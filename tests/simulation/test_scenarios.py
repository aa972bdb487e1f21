"""Tests for the utility-event scenarios (Section IV-A's special cases)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.strategies import GreedyStrategy
from repro.errors import ConfigurationError
from repro.power.utility import UtilityEvent, UtilityEventKind
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import build_datacenter
from repro.simulation.engine import run_simulation
from repro.simulation.scenarios import (
    run_with_utility_events,
    spike_during_sprint_scenario,
)
from repro.workloads.traces import Trace

SMALL = DataCenterConfig(n_pdus=2, servers_per_pdu=50)


def burst_trace():
    values = [0.8] * 60 + [2.4] * 600 + [0.8] * 60
    return Trace(np.asarray(values, dtype=float), 1.0, "burst")


class TestSpikeDuringSprint:
    def test_spike_forces_normal_operation(self):
        event = UtilityEvent(UtilityEventKind.SPIKE, 200.0, 60.0, 1.15)
        result = run_with_utility_events(
            burst_trace(), [event], config=SMALL
        )
        degrees = result.degrees
        # Sprinting before the spike...
        assert degrees[150] > 1.5
        # ...at most normal during it...
        assert max(degrees[205:255]) <= 1.0 + 1e-9
        # ...and resumed afterwards.
        assert max(degrees[300:400]) > 1.5

    def test_sprint_resumes_with_remaining_energy(self):
        event = UtilityEvent(UtilityEventKind.SPIKE, 200.0, 60.0, 1.15)
        with_spike = run_with_utility_events(
            burst_trace(), [event], config=SMALL
        )
        without = run_with_utility_events(burst_trace(), [], config=SMALL)
        # During the spike window itself, demand goes unserved...
        spike_served = with_spike.served[205:255]
        assert spike_served.max() <= 1.0 + 1e-9
        # ...but overall the episode stays close to the undisturbed run —
        # the energy conserved during the forced pause serves the burst's
        # tail (on an energy-bound burst the pause can even help, the same
        # efficiency effect as a constrained sprinting degree).
        assert with_spike.average_performance == pytest.approx(
            without.average_performance, rel=0.05
        )
        assert with_spike.average_performance > 1.3

    def test_no_events_matches_plain_run(self):
        from repro.core.strategies import GreedyStrategy
        from repro.simulation.engine import simulate_strategy

        plain = simulate_strategy(burst_trace(), GreedyStrategy(), SMALL)
        scenario = run_with_utility_events(burst_trace(), [], config=SMALL)
        assert scenario.average_performance == pytest.approx(
            plain.average_performance
        )

    def test_outage_event_also_desprints(self):
        event = UtilityEvent(UtilityEventKind.OUTAGE, 200.0, 30.0)
        result = run_with_utility_events(burst_trace(), [event], config=SMALL)
        assert max(result.degrees[205:225]) <= 1.0 + 1e-9

    def test_packaged_scenario_runs(self):
        result = spike_during_sprint_scenario(config=SMALL)
        assert result.average_performance > 1.0
        # The spike window is de-sprinted.
        window = result.degrees[555:605]
        assert max(window) <= 1.0 + 1e-9


class TestRunSetUp:
    def test_dt_mismatch_message_matches_run_simulation(self):
        """Both entry points share one set-up, so one error message."""
        trace = Trace(np.full(30, 0.8), 2.0, "coarse")
        with pytest.raises(ConfigurationError) as plain:
            run_simulation(build_datacenter(SMALL), trace, GreedyStrategy())
        with pytest.raises(ConfigurationError) as utility:
            run_with_utility_events(trace, [], config=SMALL)
        assert str(utility.value) == str(plain.value)
        assert "resample" in str(utility.value)
