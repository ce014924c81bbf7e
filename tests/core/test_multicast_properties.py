"""Property-based tests for the multicast extension."""

from hypothesis import given, settings, strategies as st

from repro.core import Message, RMBConfig, RMBRing


@st.composite
def multicast_requests(draw):
    """A random multicast: source, clockwise span, taps inside the span."""
    nodes = 12
    source = draw(st.integers(min_value=0, max_value=nodes - 1))
    span = draw(st.integers(min_value=2, max_value=nodes - 1))
    destination = (source + span) % nodes
    offsets = draw(st.lists(
        st.integers(min_value=1, max_value=span - 1),
        unique=True, max_size=min(4, span - 1),
    ))
    taps = tuple((source + offset) % nodes for offset in offsets)
    flits = draw(st.integers(min_value=0, max_value=20))
    return nodes, Message(0, source, destination, data_flits=flits,
                          extra_destinations=taps)


@settings(max_examples=30, deadline=None)
@given(multicast_requests())
def test_every_receiver_gets_the_stream(request):
    nodes, message = request
    ring = RMBRing(RMBConfig(nodes=nodes, lanes=3, cycle_period=2.0), seed=1)
    record = ring.submit(message)
    ring.drain(max_ticks=500_000)
    assert record.finished
    assert set(record.tap_delivered_at) == set(message.extra_destinations)
    # Taps deliver in clockwise order, all before the final destination.
    ordered = sorted(
        message.extra_destinations,
        key=lambda tap: (tap - message.source) % nodes,
    )
    times = [record.tap_delivered_at[tap] for tap in ordered]
    assert times == sorted(times)
    assert all(t < record.delivered_at for t in times)


@settings(max_examples=20, deadline=None)
@given(multicast_requests())
def test_multicast_leaves_no_residue(request):
    nodes, message = request
    ring = RMBRing(RMBConfig(nodes=nodes, lanes=3, cycle_period=2.0), seed=2)
    ring.submit(message)
    ring.drain(max_ticks=500_000)
    assert ring.grid.occupied_segments() == 0
    assert not ring.buses
    assert all(not ring.routing.receiver_busy(node)
               for node in range(nodes))


@settings(max_examples=15, deadline=None)
@given(multicast_requests(), st.integers(min_value=0, max_value=2**20))
def test_multicast_coexists_with_unicast_traffic(request, seed):
    nodes, message = request
    ring = RMBRing(RMBConfig(nodes=nodes, lanes=4, cycle_period=2.0), seed=3)
    ring.submit(message)
    # Background unicast traffic from deterministic offsets.
    for index in range(1, 6):
        source = (seed + index * 5) % nodes
        destination = (source + 1 + (seed + index) % (nodes - 1)) % nodes
        if destination == source:
            destination = (destination + 1) % nodes
        ring.submit(Message(index, source, destination,
                            data_flits=index % 8))
    ring.drain(max_ticks=500_000)
    assert ring.stats().completed == 6
