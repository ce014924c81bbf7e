"""The analytic latency model must match the simulator tick-for-tick."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.latency_model import efficiency, unloaded_latency
from repro.core import Message, RMBConfig, RMBRing
from repro.errors import ConfigurationError


def simulate_one(nodes, lanes, span, flits):
    ring = RMBRing(RMBConfig(nodes=nodes, lanes=lanes, cycle_period=2.0),
                   seed=0)
    record = ring.submit(Message(0, 0, span % nodes, data_flits=flits))
    ring.drain()
    return record


class TestModelMatchesSimulator:
    @pytest.mark.parametrize("span,flits", [
        (1, 0), (1, 10), (3, 0), (3, 7), (7, 16), (11, 2),
    ])
    def test_all_phases_exact(self, span, flits):
        record = simulate_one(nodes=12, lanes=3, span=span, flits=flits)
        predicted = unloaded_latency(span, flits)
        assert record.setup_time() == predicted.setup, "setup"
        assert record.latency() == predicted.delivery, "delivery"
        assert record.completed_at - record.message.created_at == \
            predicted.completion, "completion"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=11),
           st.integers(min_value=0, max_value=30))
    def test_property_random_points(self, span, flits):
        record = simulate_one(nodes=12, lanes=3, span=span, flits=flits)
        predicted = unloaded_latency(span, flits)
        assert record.latency() == predicted.delivery


class TestModelStructure:
    def test_phase_sums(self):
        breakdown = unloaded_latency(span=4, data_flits=10)
        assert breakdown.setup == 1 + 3 + 4
        assert breakdown.delivery == breakdown.setup + 10 + 4
        assert breakdown.completion == breakdown.delivery + 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            unloaded_latency(0, 5)
        with pytest.raises(ConfigurationError):
            unloaded_latency(3, -1)

    def test_as_dict_has_totals(self):
        data = unloaded_latency(2, 4).as_dict()
        assert data["completion"] == data["delivery"] + data["teardown"]


class TestDerivedMetrics:
    def test_efficiency_bounds(self):
        assert 0 < efficiency(1, 8) < 0.2
        assert efficiency(1000, 2) > 0.98

    def test_efficiency_decreases_with_span(self):
        assert efficiency(16, 2) > efficiency(16, 10)
