"""Discrete-time simulation engine driving a controller through a trace.

The engine is intentionally thin: all physics lives in the substrate
objects and all policy in the controller; the engine owns only time
stepping, result collection, and the factory plumbing that the Oracle
search and the upper-bound-table builder need (both re-run the simulation
many times against fresh facilities).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.strategies import (
    FixedUpperBoundStrategy,
    OracleStrategy,
    SprintingStrategy,
    UpperBoundTable,
    strict_argmax,
)
from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.simulation.config import DataCenterConfig, DEFAULT_CONFIG
from repro.simulation.datacenter import DataCenter, build_datacenter
from repro.simulation.faults import (
    FaultInjector,
    FaultPlan,
    FaultRecord,
    RECOVERABLE_FAULT_ERRORS,
)
from repro.simulation.metrics import SimulationResult, average_performance_improvement
from repro.simulation.rollout import bind_rollout_planner
from repro.simulation.snapshot import FacilityState
from repro.workloads.traces import Trace

if TYPE_CHECKING:
    from repro.core.controller import SprintingController
    from repro.simulation.batch import SweepRunner

#: Default candidate grid for the Oracle's exhaustive search: 13 evenly
#: spaced upper bounds from the normal degree to the chip maximum.
#: ``linspace`` states the endpoint contract directly (``arange`` with a
#: float step only includes 4.0 through rounding luck); the values are
#: identical and pinned by ``tests/simulation/test_engine_grid.py``.
DEFAULT_ORACLE_GRID = tuple(np.linspace(1.0, 4.0, 13).tolist())


def run_simulation(
    datacenter: DataCenter,
    trace: Trace,
    strategy: SprintingStrategy,
    fault_plan: Optional[FaultPlan] = None,
    use_kernel: bool = True,
) -> SimulationResult:
    """Run one full trace through a fresh controller on ``datacenter``.

    The facility substrate is reset first, so back-to-back runs on the
    same :class:`DataCenter` are independent.

    The trace's sampling period must match the controller's integration
    step (the configured ``dt_s``): every sample drives exactly one
    control period, and a mismatch would silently distort breaker thermal
    integration and energy accounting.  Resample the trace
    (:meth:`~repro.workloads.traces.Trace.resampled`) or change the
    config's ``dt_s`` to reconcile them.

    With a ``fault_plan``, the plan's events are injected into the
    substrate as time advances, and recoverable substrate failures
    (breaker trips, battery/tank depletion, thermal emergencies — see
    :data:`~repro.simulation.faults.RECOVERABLE_FAULT_ERRORS`) no longer
    escape: the controller degrades to admission-control-only on the
    surviving capacity and the run completes, with the fault telemetry
    reported via ``fault_events`` / ``aborted_at_s`` on the result.
    Without a plan the historical behaviour is preserved bit-for-bit
    (including the exceptions).
    """

    def drive(
        controller: "SprintingController",
    ) -> "Tuple[Optional[float], List[FaultRecord]]":
        if fault_plan is None:
            # The whole trace is one window of the span-compiled loop.
            controller.run_window(trace.samples, trace.times_s(), 0)
            return None, []
        return _run_with_faults(datacenter, controller, trace, fault_plan)

    return drive_run(datacenter, trace, strategy, drive, use_kernel=use_kernel)


def drive_run(
    datacenter: DataCenter,
    trace: Trace,
    strategy: SprintingStrategy,
    drive: "Callable[[SprintingController], Tuple[Optional[float], List[FaultRecord]]]",
    use_kernel: bool = True,
) -> SimulationResult:
    """One run's set-up and result assembly around a caller's stepping.

    Resets ``datacenter``, builds a fresh controller for ``strategy``,
    checks the trace's sampling period against the controller step,
    resets the strategy and binds the MPC rollout planner; then
    ``drive(controller)`` steps the whole trace and returns
    ``(aborted_at_s, fault_events)`` for the result.
    """
    datacenter.reset()
    controller = datacenter.controller(strategy, use_kernel=use_kernel)
    if abs(trace.dt_s - controller.settings.dt_s) > 1e-9:
        raise ConfigurationError(
            f"trace sampling period ({trace.dt_s:g} s) does not match the "
            f"controller step ({controller.settings.dt_s:g} s); resample "
            "the trace or set the config's dt_s accordingly"
        )
    controller.strategy.reset()
    # MPC strategies plan by forking this very facility: attach the rollout
    # planner to the live (datacenter, controller) pair.  No-op otherwise.
    bind_rollout_planner(strategy, datacenter, controller, trace)
    aborted_at_s, fault_events = drive(controller)
    return SimulationResult(
        trace=trace,
        strategy_name=strategy.name,
        steps=controller.history.snapshot(),
        energy_shares=controller.phases.energy_shares(),
        time_in_phase_s=dict(controller.phases.time_in_phase_s),
        dropped_integral=controller.admission.dropped_integral,
        served_integral=controller.admission.served_integral,
        demand_integral=controller.admission.demand_integral,
        fault_events=fault_events,
        aborted_at_s=aborted_at_s,
    )


def _run_with_faults(
    datacenter: DataCenter,
    controller: "SprintingController",
    trace: Trace,
    fault_plan: FaultPlan,
) -> "Tuple[Optional[float], List[FaultRecord]]":
    """Drive the trace with fault injection and graceful degradation."""
    injector = FaultInjector(fault_plan, datacenter)
    times = trace.times_s()
    try:
        degraded_at = _run_faulted(
            controller, injector, trace.samples, times, 0, len(trace)
        )
    finally:
        # Ratings/capacities mutated by the plan are restored so the
        # facility object can be reused (reset() only restores state).
        injector.restore_substrate()
    aborted_at_s = None if degraded_at is None else float(times[degraded_at[0]])
    return aborted_at_s, injector.records


def _run_faulted(
    controller: "SprintingController",
    injector: FaultInjector,
    samples: np.ndarray,
    times: np.ndarray,
    start: int,
    stop: int,
) -> Optional[Tuple[int, bool]]:
    """Drive samples ``[start, stop)`` under fault injection.

    The stretch is cut into windows at the injector's boundaries (event,
    expiry and telemetry-gap end times).  Each window starts with one
    :meth:`~FaultInjector.apply_due` call, so the substrate only changes
    between windows, and its samples are stepped one by one through
    :meth:`~repro.core.controller.SprintingController.step` (a one-sample
    window of the span-compiled loop; the traced self-test in
    ``perfbench/tests`` expects faulted runs to enter there).  One
    ``run_window`` per window (failing sample from the history length)
    is bit-identical and goes in once that test names ``run_trace``.

    Every sample produces exactly one ``ControlStep`` (healthy or
    degraded), so downstream series accessors keep their alignment.  A
    capacity-destroying fault degrades the controller on the *same*
    sample — there is no step on which the error silently disappears —
    and the rest of the stretch runs on the admission-only
    :meth:`~repro.core.controller.SprintingController.degraded_step`.

    Returns ``(index, attempted)`` for the sample on which the controller
    degraded, or ``None`` if it stayed healthy.  ``attempted`` is True
    when the healthy controller stepped that sample and failed, i.e. the
    strategy's upper bound took part in (or, by failing, ended) the
    degree decision there.
    """
    degraded_at: Optional[Tuple[int, bool]] = None
    i = start
    while i < stop:
        time_s = float(times[i])
        injector.apply_due(time_s)
        j = int(np.searchsorted(times, injector.next_boundary_s(time_s)))
        j = min(max(j, i + 1), stop)
        demands = injector.window_demands(samples[i:j], time_s)
        if not controller.degraded:
            degradation = injector.take_degradation()
            if degradation is not None:
                surviving_fraction, reason = degradation
                _degrade(controller, injector, surviving_fraction, time_s, reason)
                degraded_at = (i, False)
        healthy_end = i
        if not controller.degraded:
            window = zip(demands.tolist(), times[i:j].tolist())
            try:
                for k, (demand, t) in enumerate(window, start=i):
                    healthy_end = k
                    controller.step(demand, t, k)
                healthy_end = j
            except RECOVERABLE_FAULT_ERRORS as exc:
                _degrade(
                    controller,
                    injector,
                    injector.surviving_capacity_for(exc),
                    float(times[healthy_end]),
                    f"{type(exc).__name__}: {exc}",
                )
                degraded_at = (healthy_end, True)
        for k in range(healthy_end, j):
            controller.degraded_step(float(demands[k - i]), float(times[k]))
        i = j
    return degraded_at


def _degrade(
    controller: "SprintingController",
    injector: FaultInjector,
    surviving_fraction: float,
    time_s: float,
    reason: str,
) -> None:
    """Fall back to admission control on the surviving capacity."""
    base = controller.cluster.capacity_at_degree(1.0)
    controller.enter_degraded(surviving_fraction * base, time_s, reason)
    injector.records.append(FaultRecord(time_s, "degraded", reason))


def simulate_strategy(
    trace: Trace,
    strategy: SprintingStrategy,
    config: DataCenterConfig = DEFAULT_CONFIG,
    fault_plan: Optional[FaultPlan] = None,
    use_kernel: bool = True,
) -> SimulationResult:
    """Convenience wrapper: build a fresh facility and run the trace."""
    return run_simulation(
        build_datacenter(config),
        trace,
        strategy,
        fault_plan=fault_plan,
        use_kernel=use_kernel,
    )


def evaluate_upper_bound(
    trace: Trace,
    upper_bound: float,
    config: DataCenterConfig = DEFAULT_CONFIG,
) -> float:
    """Average performance of a constant-upper-bound run on a fresh facility."""
    result = simulate_strategy(
        trace, FixedUpperBoundStrategy(upper_bound), config
    )
    return result.average_performance


def _default_runner() -> "SweepRunner":
    """The serial, cache-less runner behind the plain engine functions.

    Imported lazily: :mod:`repro.simulation.batch` imports this module, so
    a module-level import would be circular.
    """
    from repro.simulation.batch import SweepRunner

    return SweepRunner(max_workers=1, cache_dir=None)


def oracle_for_trace(
    trace: Trace,
    config: DataCenterConfig = DEFAULT_CONFIG,
    candidates: Sequence[float] = DEFAULT_ORACLE_GRID,
    runner: Optional["SweepRunner"] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> OracleStrategy:
    """Exhaustive Oracle search over constant upper bounds for a trace.

    "The Oracle strategy finds the optimal upper bound by exhaustive
    search, with the assumption that the burst degree and burst duration
    can be perfectly predicted" (Section V-A) — perfect prediction here
    means evaluating every candidate on the actual trace.

    Parameters
    ----------
    runner:
        Optional :class:`~repro.simulation.batch.SweepRunner` to fan the
        candidate evaluations out over worker processes and/or the result
        cache; the default is a serial, cache-less runner whose output is
        bit-identical to the historical in-process loop.
    fault_plan:
        Optional fault plan the Oracle must plan around: every candidate
        is evaluated under the same injected faults.
    """
    runner = runner or _default_runner()
    return runner.oracle_search(
        trace, candidates=candidates, config=config, fault_plan=fault_plan
    )


def build_upper_bound_table(
    config: DataCenterConfig = DEFAULT_CONFIG,
    burst_durations_min: Sequence[float] = (1.0, 5.0, 10.0, 15.0),
    burst_degrees: Sequence[float] = (2.6, 2.8, 3.0, 3.2, 3.4, 3.6),
    candidates: Sequence[float] = DEFAULT_ORACLE_GRID,
    trace_factory: Optional[Callable[[float, float], Trace]] = None,
    runner: Optional["SweepRunner"] = None,
) -> UpperBoundTable:
    """Pre-compute the Oracle upper-bound table (Section V-A).

    For every (burst duration, burst degree) grid point a synthetic burst
    trace is generated (Yahoo-style by default, matching the paper's
    sweep), the Oracle search is run, and the optimal bound is recorded.
    The Prediction strategy consumes the result at run time.

    Parameters
    ----------
    trace_factory:
        Optional override mapping ``(degree, duration_min)`` to a trace;
        defaults to :func:`repro.workloads.yahoo_trace.generate_yahoo_trace`.
    runner:
        Optional :class:`~repro.simulation.batch.SweepRunner`; the full
        ``durations x degrees x candidates`` product then runs as one
        parallel, cached batch.  The default is a serial, cache-less
        runner whose output is bit-identical to the historical loop.
    """
    runner = runner or _default_runner()
    return runner.build_upper_bound_table(
        config=config,
        burst_durations_min=burst_durations_min,
        burst_degrees=burst_degrees,
        candidates=candidates,
        trace_factory=trace_factory,
    )


# ----------------------------------------------------------------------
# Shared-prefix Oracle search
# ----------------------------------------------------------------------
#
# Every candidate upper bound evolves the facility *identically* until the
# first control period whose needed degree exceeds the bound: the kernel
# realizes ``min(needed, bound, fits...)`` and the fits depend only on
# state, which is shared while the min() outcomes agree.  So one
# instrumented baseline run (at the largest candidate bound) plus a
# facility snapshot at each candidate's divergence frontier lets every
# other candidate resume from its frontier and re-simulate only its
# suffix — O(trace + Σ suffixes) instead of O(candidates × trace).


def _coast_safe(datacenter: DataCenter) -> bool:
    """True when *any* sub-capacity demand leaves a fresh facility frozen.

    With demand ≤ 1.0 the realized degree is ≤ 1.0 for every candidate
    bound ≥ 1.0, so the only way pre-burst state can move is a substrate
    element running at (or beyond) its rating even at peak-normal load.
    These checks are static in the config: peak-normal IT heat within the
    chiller's removal capacity (room holds its setpoint), per-PDU IT power
    within the PDU breaker rating (no thermal accumulation, no UPS
    assist), and total facility draw within the DC breaker rating.  When
    they hold, batteries stay full, breakers stay cold, the room stays at
    setpoint — the fresh facility *is* the state at burst onset, and the
    baseline run can skip the quiescent prefix entirely.
    """
    cluster = datacenter.cluster
    topology = datacenter.topology
    cooling = datacenter.cooling
    it_peak = cluster.power_at_degree_w(1.0)
    if it_peak > cooling.chiller.rated_removal_w:
        return False
    if it_peak / topology.n_pdus > topology.pdu.breaker.rated_power_w:
        return False
    cooling_w = cooling.estimate(it_peak, datacenter.config.dt_s).electric_power_w
    if it_peak + cooling_w > topology.dc_breaker.rated_power_w:
        return False
    return True


def _divergence_step(
    needed: Sequence[float], eff_bound: float, eff_base: float, first: int
) -> Optional[int]:
    """First absolute step where ``eff_bound`` alters the realized degree.

    The candidate's degree decision ``min(needed, eff_bound)`` differs
    from the baseline's ``min(needed, eff_base)`` exactly when the needed
    degree exceeds the candidate's effective bound while the baseline's is
    higher.  ``None`` means the candidate shares the baseline's entire
    run.
    """
    if eff_bound >= eff_base:
        return None
    for j, nd in enumerate(needed):
        if nd > eff_bound:
            return first + j
    return None


def shared_prefix_oracle_search(
    trace: Trace,
    candidates: Sequence[float],
    config: DataCenterConfig = DEFAULT_CONFIG,
    fault_plan: Optional[FaultPlan] = None,
) -> Optional[Tuple[float, float]]:
    """Oracle search via one instrumented baseline run plus per-candidate suffixes.

    Returns ``(best_bound, best_performance)`` bit-identical to running
    :func:`simulate_strategy` once per candidate and taking the strict
    argmax (first of equals — the lowest winning bound), or ``None`` when
    the trace/config falls outside the fast path's validity envelope and
    the caller must fall back to the reference per-candidate sweep.

    Candidate runs that fail (recoverable substrate errors escaping a
    no-fault run) are excluded exactly as the reference path excludes
    them, including failures *after* the burst window: a provisional
    winner's post-burst tail (battery recharge against live breaker
    budgets) is re-simulated with real physics before the result is
    accepted, and demoted to failed if the tail raises.  Raises
    :class:`~repro.errors.SimulationError` when every candidate fails.
    """
    if not candidates:
        return None
    if abs(trace.dt_s - config.dt_s) > 1e-9:
        return None  # reference path raises the descriptive ConfigurationError
    if any(float(c) < 1.0 for c in candidates):
        # A bound below the normal degree binds outside bursts too, so the
        # quiescent prefix is no longer shared across candidates.
        return None
    datacenter = build_datacenter(config)
    probe = datacenter.controller(FixedUpperBoundStrategy(float(candidates[0])))
    if probe.detector.capacity != 1.0:
        return None  # burst-window mask below assumes the default detector
    if not _coast_safe(datacenter):
        return None
    if fault_plan is None:
        return _shared_prefix_no_faults(datacenter, trace, candidates)
    return _shared_prefix_with_faults(datacenter, trace, candidates, fault_plan)


def _effective_bounds(
    datacenter: DataCenter, candidates: Sequence[float]
) -> Tuple[List[float], float, float]:
    """Per-candidate effective bounds, the baseline bound, and its effect."""
    max_degree = datacenter.cluster.throughput.max_degree
    eff = [min(float(c), max_degree) for c in candidates]
    eff_base = max(eff)
    base_bound = float(candidates[eff.index(eff_base)])
    return eff, base_bound, eff_base


def _fresh_run(
    datacenter: DataCenter, bound: float
) -> "SprintingController":
    """A reset facility with a fresh fixed-bound controller (kernel path)."""
    datacenter.reset()
    controller = datacenter.controller(FixedUpperBoundStrategy(bound))
    controller.strategy.reset()
    return controller


def _resumed_run(
    datacenter: DataCenter, bound: float, state: FacilityState
) -> "SprintingController":
    """A fresh fixed-bound controller restored to a captured facility state."""
    controller = datacenter.controller(FixedUpperBoundStrategy(bound))
    controller.strategy.reset()
    state.restore(datacenter, controller)
    return controller


def _run_stretch(
    controller: "SprintingController",
    samples: np.ndarray,
    times: np.ndarray,
    start: int,
    stop: int,
) -> Optional[int]:
    """Step samples ``[start, stop)`` as one window; the failing index or None.

    A ``ReproError`` ends the run at the failing sample: the window has
    appended one history row per completed sample, so that sample's index
    is ``start`` plus the rows appended.  ``ConfigurationError`` keeps
    raising.
    """
    rows_before = len(controller.history)
    try:
        controller.run_window(samples[start:stop], times[start:stop], start)
    except ConfigurationError:
        raise
    except ReproError:
        return start + len(controller.history) - rows_before
    return None


def _shared_prefix_no_faults(
    datacenter: DataCenter,
    trace: Trace,
    candidates: Sequence[float],
) -> Tuple[float, float]:
    samples = trace.samples
    times = trace.times_s()
    n = int(samples.size)
    mask = samples > 1.0
    if not bool(mask.any()):
        # No burst: every candidate serves the whole trace at performance
        # 1.0 (coast-safety established no run can fail), and the strict
        # argmax keeps the first candidate.
        return float(candidates[0]), 1.0
    first = int(np.argmax(mask))
    last = n - 1 - int(np.argmax(mask[::-1]))

    cluster = datacenter.cluster
    eff, base_bound, eff_base = _effective_bounds(datacenter, candidates)
    needed = [
        cluster.degree_for_demand(float(samples[i]))
        for i in range(first, last + 1)
    ]
    frontier_of = [
        _divergence_step(needed, e, eff_base, first) for e in eff
    ]
    frontiers = sorted({k for k in frontier_of if k is not None})

    # Instrumented baseline: the largest candidate, from burst onset on a
    # fresh facility (valid by _coast_safe), in windows between the
    # divergence frontiers with a snapshot ahead of each.
    controller = _fresh_run(datacenter, base_bound)
    snapshots: Dict[int, FacilityState] = {}
    base_failed_at: Optional[int] = None
    cuts = sorted({first, *frontiers}) + [last + 1]
    for start, stop in zip(cuts, cuts[1:]):
        if start in frontiers:
            snapshots[start] = FacilityState.capture(datacenter, controller)
        base_failed_at = _run_stretch(controller, samples, times, start, stop)
        if base_failed_at is not None:
            break
    base_served = np.zeros(n)
    base_rows = controller.history.column("served")
    base_served[first : first + base_rows.size] = base_rows
    base_end: Optional[FacilityState] = None
    if base_failed_at is None:
        base_end = FacilityState.capture(datacenter, controller)
    base_perf = (
        average_performance_improvement(base_served, trace)
        if base_failed_at is None
        else math.nan
    )

    # Per-candidate suffixes from the divergence frontiers.
    performances = [math.nan] * len(candidates)
    end_states: List[Optional[FacilityState]] = [None] * len(candidates)
    for idx, bound in enumerate(candidates):
        frontier = frontier_of[idx]
        if frontier is None:
            # Shares the baseline's entire run (including its failure).
            performances[idx] = base_perf
            end_states[idx] = base_end
            continue
        if base_failed_at is not None and frontier > base_failed_at:
            # Identical prefix through the failing step: fails identically.
            continue
        controller = _resumed_run(datacenter, float(bound), snapshots[frontier])
        if _run_stretch(controller, samples, times, frontier, last + 1) is not None:
            continue
        served = np.zeros(n)
        served[first:frontier] = base_served[first:frontier]
        served[frontier : last + 1] = controller.history.column("served")
        performances[idx] = average_performance_improvement(served, trace)
        end_states[idx] = FacilityState.capture(datacenter, controller)

    # Verified-winner loop: the truncation at the last burst sample hides
    # post-burst failures (battery recharge against live breaker budgets),
    # so the provisional winner's tail is re-run with real physics and the
    # candidate demoted to failed if it raises — exactly the reference
    # path's NaN for that candidate.
    while True:
        best_idx = strict_argmax(performances)
        if best_idx is None:
            raise SimulationError(
                "oracle search failed: every candidate upper bound's run "
                f"failed on trace {trace.name!r}"
            )
        if last + 1 >= n:
            return float(candidates[best_idx]), performances[best_idx]
        state = end_states[best_idx]
        assert state is not None  # finite performance implies a captured end
        controller = _resumed_run(datacenter, float(candidates[best_idx]), state)
        if _run_stretch(controller, samples, times, last + 1, n) is None:
            return float(candidates[best_idx]), performances[best_idx]
        performances[best_idx] = math.nan


def _shared_prefix_with_faults(
    datacenter: DataCenter,
    trace: Trace,
    candidates: Sequence[float],
    fault_plan: FaultPlan,
) -> Tuple[float, float]:
    """Fault-plan variant: no coast (faults can mutate the quiescent prefix),
    per-step needed degrees read from the live run's demand column (trace
    gaps hold the last good demand), and no failure bookkeeping —
    recoverable errors degrade the run instead of killing it, so every
    candidate finishes.
    """
    samples = trace.samples
    times = trace.times_s()
    n = int(samples.size)
    mask = samples > 1.0
    if not bool(mask.any()):
        return float(candidates[0]), 1.0
    last = n - 1 - int(np.argmax(mask[::-1]))
    eff, base_bound, eff_base = _effective_bounds(datacenter, candidates)

    # Pass 1 — instrumented baseline over [0..last]: record the needed
    # degree wherever the healthy controller attempted the step (the only
    # samples where a bound can bind; degraded samples ignore bounds).
    controller = _fresh_run(datacenter, base_bound)
    injector = FaultInjector(fault_plan, datacenter)
    try:
        degraded_at = _run_faulted(
            controller, injector, samples, times, 0, last + 1
        )
    finally:
        # reset() only restores state; rating/capacity mutations must be
        # undone here or pass 2 would start on a pre-degraded substrate.
        injector.restore_substrate()
    history = controller.history
    base_served = np.zeros(n)
    base_served[: last + 1] = history.column("served")
    base_perf = average_performance_improvement(base_served, trace)
    attempted = last + 1
    if degraded_at is not None:
        attempted = degraded_at[0] + int(degraded_at[1])
    cluster = datacenter.cluster
    needed = [
        cluster.degree_for_demand(d)
        for d in history.column("demand")[:attempted].tolist()
    ] + [-math.inf] * (last + 1 - attempted)

    frontier_of = [_divergence_step(needed, e, eff_base, 0) for e in eff]
    frontiers = sorted({k for k in frontier_of if k is not None})

    # Pass 2 — deterministic re-run of the baseline up to the deepest
    # frontier, capturing pre-step snapshots (including injector state).
    snapshots: Dict[int, FacilityState] = {}
    if frontiers:
        controller = _fresh_run(datacenter, base_bound)
        injector = FaultInjector(fault_plan, datacenter)
        start = 0
        for frontier in frontiers:
            _run_faulted(controller, injector, samples, times, start, frontier)
            snapshots[frontier] = FacilityState.capture(
                datacenter, controller, injector=injector
            )
            start = frontier

    performances = [math.nan] * len(candidates)
    for idx, bound in enumerate(candidates):
        frontier = frontier_of[idx]
        if frontier is None:
            performances[idx] = base_perf
            continue
        controller = datacenter.controller(FixedUpperBoundStrategy(float(bound)))
        controller.strategy.reset()
        injector = FaultInjector(fault_plan, datacenter)
        snapshots[frontier].restore(datacenter, controller, injector=injector)
        _run_faulted(controller, injector, samples, times, frontier, last + 1)
        served = np.zeros(n)
        served[:frontier] = base_served[:frontier]
        served[frontier : last + 1] = controller.history.column("served")
        performances[idx] = average_performance_improvement(served, trace)

    best_idx = strict_argmax(performances)
    assert best_idx is not None  # faulted candidates degrade, never fail
    return float(candidates[best_idx]), performances[best_idx]
