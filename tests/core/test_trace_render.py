"""Unit tests for the ASCII renderer."""

from repro.core import Message, RMBConfig, RMBRing
from repro.core.trace_render import (
    film,
    glyph_for,
    render_bus,
    render_grid,
    render_ring,
)
from repro.core.segments import SegmentGrid
from repro.core.flits import MessageRecord
from repro.core.virtual_bus import VirtualBus


def test_glyphs_stable_and_distinct():
    assert glyph_for(0) == "0"
    assert glyph_for(10) == "a"
    assert glyph_for(0) != glyph_for(1)
    assert glyph_for(62) == glyph_for(0)  # modulo wrap is documented


def test_render_grid_shows_occupancy():
    grid = SegmentGrid(4, 2)
    grid.claim(1, 1, 0)
    text = render_grid(grid)
    lines = text.splitlines()
    assert "top" in lines[1]
    assert "0" in lines[1]          # glyph for bus 0 on the top lane row
    assert lines[2].count(".") == 4  # bottom lane empty


def test_render_grid_highlight():
    grid = SegmentGrid(4, 2)
    grid.claim(0, 0, 5)
    text = render_grid(grid, highlight=5)
    assert "*" in text


def test_render_bus_profile():
    message = Message(0, 0, 3, data_flits=1)
    bus = VirtualBus(0, message, MessageRecord(message), 8)
    bus.hops = [2, 1, 1]
    text = render_bus(bus, lanes=3)
    assert "0->3" in text
    assert text.count("o") == 3


def test_render_ring_lists_live_buses():
    ring = RMBRing(RMBConfig(nodes=8, lanes=3), seed=0)
    ring.submit(Message(0, 0, 4, data_flits=30))
    ring.run(4)
    text = render_ring(ring)
    assert "live buses:" in text
    assert "0->4" in text
    ring.drain()
    assert "live buses: none" in render_ring(ring)


def test_film_captures_frames():
    ring = RMBRing(RMBConfig(nodes=8, lanes=3), seed=0)
    ring.submit(Message(0, 0, 4, data_flits=10))
    frames = film(ring, ticks=20, step=5)
    assert len(frames) == 5  # initial frame + 4 steps
    assert all(isinstance(frame, str) for frame in frames)
