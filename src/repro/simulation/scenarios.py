"""Named end-to-end scenarios, including utility-event injection.

Section IV-A's list of events that must end a sprint includes "some special
cases that occur during the sprinting process, such as unexpected power
spikes in the utility power supply.  When these issues lead to higher CB
overload, which can be detected with real-time power measurement, we
immediately lower the sprinting degree or end sprinting."

:func:`run_with_utility_events` wires a :class:`~repro.power.utility.UtilityFeed`
into the simulation loop: while a disturbance is active the controller's
safety monitor latches an emergency (forcing normal operation), and clears
it when the feed is healthy again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.core.strategies import GreedyStrategy, SprintingStrategy
from repro.power.utility import UtilityEvent, UtilityFeed
from repro.simulation.config import DataCenterConfig, DEFAULT_CONFIG
from repro.simulation.datacenter import build_datacenter
from repro.simulation.engine import drive_run
from repro.simulation.metrics import SimulationResult
from repro.workloads.ms_trace import default_ms_trace
from repro.workloads.traces import Trace

if TYPE_CHECKING:
    from repro.core.controller import SprintingController
    from repro.simulation.faults import FaultRecord


def run_with_utility_events(
    trace: Trace,
    events: List[UtilityEvent],
    strategy: Optional[SprintingStrategy] = None,
    config: DataCenterConfig = DEFAULT_CONFIG,
) -> SimulationResult:
    """Run a trace with utility disturbances driving the safety monitor.

    Any active event (spike, sag or outage) latches the controller's
    emergency state for its duration — the paper's conservative response:
    end sprinting first, diagnose later.
    """
    datacenter = build_datacenter(config)
    feed = UtilityFeed(
        nominal_capacity_w=datacenter.topology.dc_breaker.rated_power_w,
        events=list(events),
    )

    def drive(
        controller: "SprintingController",
    ) -> "Tuple[None, List[FaultRecord]]":
        # Feed health only changes at event edges: the trace runs as one
        # window per stretch between edges, and the emergency is declared
        # or cleared between windows.
        times = trace.times_s()
        edges = {0, len(trace)}
        for event in feed.events:
            edges.update(
                np.searchsorted(times, (event.start_s, event.end_s)).tolist()
            )
        cuts = sorted(edges)
        emergency_active = False
        for start, stop in zip(cuts, cuts[1:]):
            time_s = float(times[start])
            healthy = feed.is_healthy(time_s)
            if not healthy and not emergency_active:
                event = feed.event_at(time_s)
                controller.safety.declare_emergency(
                    time_s, f"utility {event.kind.value}"
                )
                emergency_active = True
            elif healthy and emergency_active:
                controller.safety.clear_emergency()
                emergency_active = False
            controller.run_window(
                trace.samples[start:stop], times[start:stop], start
            )
        return None, []

    return drive_run(datacenter, trace, strategy or GreedyStrategy(), drive)


def spike_during_sprint_scenario(
    spike_start_s: float = 550.0,
    spike_duration_s: float = 60.0,
    config: DataCenterConfig = DEFAULT_CONFIG,
) -> SimulationResult:
    """The Section IV-A case: a utility spike lands mid-sprint.

    Runs the MS trace with a spike injected into its central burst; the
    controller must drop to normal operation for the spike's duration and
    resume sprinting afterwards.
    """
    from repro.power.utility import UtilityEventKind

    trace = default_ms_trace()
    event = UtilityEvent(
        kind=UtilityEventKind.SPIKE,
        start_s=spike_start_s,
        duration_s=spike_duration_s,
        magnitude=1.15,
    )
    return run_with_utility_events(trace, [event], config=config)
