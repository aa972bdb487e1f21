"""Differential suite for the span-compiled control loop.

``StepKernel.run_trace`` is the one fast step body: plain and
utility-event runs and MPC rollouts run windows of samples through it,
compiling per-sample stepping into per-span stepping with steady-cycle
fast-forward, and faulted runs step one-sample windows through
``SprintingController.step`` between injection boundaries.  Its
contract (like the rest of the kernel) is *bit-identity* with the
reference controller.  This suite drives randomized traces built of long
constant-demand spans — the shape the span engine accelerates — through
every strategy kind the repo ships, under every fault kind and every
utility-event kind, and asserts every per-step telemetry field and every
accumulator matches the ``use_kernel=False`` reference exactly.  Events
are placed at the first and last sample, inside a constant span, on a
span boundary, overlapping one another, and where a recoverable error
degrades the run mid-window.  It also pins:

* that fault injection is applied once per boundary, not once per
  sample;
* MPC rollout windows on a non-integer ``dt_s`` (the rollout's own
  ``start + j * dt`` timestamps) and kernel-vs-reference rollout scores;
* an explicit k>1 steady cycle (PCM melt/refreeze oscillation) actually
  replaying through :meth:`~repro.core.steplog.StepLog.extend_cycle`;
* the vector kernel's per-element quiescent latch arming, replaying
  bit-identically, and disarming on demand changes and external writes.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.steplog import StepLog
from repro.core.strategies import (
    FixedUpperBoundStrategy,
    GreedyStrategy,
    MPCStrategy,
    SprintingStrategy,
)
from repro.power.utility import UtilityEvent, UtilityEventKind, UtilityFeed
from repro.simulation.batch_facility import BatchFacility
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import DataCenter, build_datacenter
from repro.simulation.engine import run_simulation
from repro.simulation.faults import (
    RECOVERABLE_FAULT_ERRORS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultRecord,
)
from repro.simulation.metrics import SimulationResult
from repro.simulation.rollout import RolloutPlanner, bind_rollout_planner
from repro.simulation.scenarios import run_with_utility_events
from repro.workloads.traces import Trace

from tests.core.test_kernel_differential import (
    SMALL,
    assert_results_identical,
)
from tests.core.test_strategy_state_property import STRATEGY_FACTORIES

STRATEGY_KINDS = tuple(STRATEGY_FACTORIES)


def span_trace(seed: int, n: int = 600, dt_s: float = 1.0) -> Trace:
    """A randomized trace made of long constant-demand spans.

    Mixes sub-capacity plateaus (idle fixed points), above-capacity
    plateaus (burst plateaus), and occasional single-sample jitter so
    span boundaries, burst edges and degenerate one-sample spans are all
    exercised.
    """
    rng = np.random.default_rng(seed)
    parts = []
    total = 0
    while total < n:
        kind = rng.integers(0, 10)
        if kind < 5:
            level = float(rng.uniform(0.2, 0.95))
            length = int(rng.integers(20, 160))
        elif kind < 8:
            level = float(rng.uniform(1.1, 3.5))
            length = int(rng.integers(10, 80))
        else:
            level = float(rng.uniform(0.0, 3.5))
            length = 1
        parts.append(np.full(min(length, n - total), level))
        total += length
    return Trace(np.concatenate(parts)[:n], dt_s=dt_s, name=f"spans-{seed}")


def run_both(trace, strategy_kind, fault_plan=None):
    fast = run_simulation(
        build_datacenter(SMALL),
        trace,
        STRATEGY_FACTORIES[strategy_kind](),
        fault_plan=fault_plan,
        use_kernel=True,
    )
    ref = run_simulation(
        build_datacenter(SMALL),
        trace,
        STRATEGY_FACTORIES[strategy_kind](),
        fault_plan=fault_plan,
        use_kernel=False,
    )
    return fast, ref


class TestSpanView:
    def test_spans_roundtrip(self):
        trace = span_trace(7)
        spans = trace.spans()
        rebuilt = np.concatenate(
            [np.full(s.length, s.demand) for s in spans]
        )
        assert np.array_equal(rebuilt, trace.samples)
        assert spans[0].start == 0
        assert spans[-1].end == len(trace)
        for a, b in zip(spans, spans[1:]):
            assert a.end == b.start
            assert a.demand != b.demand

    def test_span_stats_constant_trace(self):
        trace = Trace(np.full(100, 0.5), dt_s=1.0, name="flat")
        stats = trace.span_stats()
        assert stats.n_samples == 100
        assert stats.n_spans == 1
        assert stats.mean_length == 100.0
        assert stats.max_length == 100
        assert stats.predicted_ff_coverage == pytest.approx(0.99)

    def test_span_stats_alternating_trace(self):
        trace = Trace(
            np.tile([0.3, 0.7], 50), dt_s=1.0, name="alternating"
        )
        stats = trace.span_stats()
        assert stats.n_spans == 100
        assert stats.mean_length == 1.0
        assert stats.predicted_ff_coverage == 0.0


class TestSpanDifferential:
    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_all_strategy_kinds(self, kind):
        fast, ref = run_both(span_trace(3), kind)
        assert_results_identical(fast, ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_greedy_many_seeds(self, seed):
        fast, ref = run_both(span_trace(seed), "greedy")
        assert_results_identical(fast, ref)

    @pytest.mark.parametrize("kind", ("greedy", "fixed", "mpc"))
    def test_with_fault_plan(self, kind):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="ups_failure", time_s=150.0),
                FaultEvent(kind="chiller_outage", time_s=320.0,
                           fraction=0.5),
            )
        )
        fast, ref = run_both(span_trace(5), kind, fault_plan=plan)
        assert_results_identical(fast, ref)

    def test_fault_mid_constant_span_disarm(self):
        """Satellite: a due fault event must disarm the k=1 latch.

        A long flat trace arms the quiescent fast-forward; the fault at
        t=200 lands mid-span, where a stale latch would replay pre-fault
        state.  The engine clears it before applying due events, so the
        faulted run stays bit-identical to the reference.
        """
        trace = Trace(np.full(500, 0.6), dt_s=1.0, name="flat-faulted")
        plan = FaultPlan(
            events=(FaultEvent(kind="breaker_derate", time_s=200.0,
                               fraction=0.4),)
        )
        fast, ref = run_both(trace, "greedy", fault_plan=plan)
        assert_results_identical(fast, ref)


class TestSteadyCycle:
    def test_k1_cycle_replays_in_bulk(self, monkeypatch):
        """An idle fixed point inside a span goes through extend_cycle."""
        replays = []
        original = StepLog.extend_cycle

        def spy(self, steps, repeats, times=None):
            replays.append((len(steps), repeats))
            original(self, steps, repeats, times)

        monkeypatch.setattr(StepLog, "extend_cycle", spy)
        trace = Trace(np.full(400, 0.5), dt_s=1.0, name="flat")
        fast, ref = run_both(trace, "greedy")
        assert_results_identical(fast, ref)
        assert replays, "no bulk replay on a 400-sample constant trace"
        assert sum(k * r for k, r in replays) > 300

    def test_k_greater_than_one_pcm_cycle(self, monkeypatch):
        """PCM melt/refreeze oscillation forms a k>1 steady cycle.

        With a tiny PCM latent budget and demand just above capacity the
        chip sprints, exhausts the sink, caps to 1.0, refreezes, and
        sprints again — a multi-step periodic orbit inside one constant-
        demand span.  The orbit is float-exact because the PCM saturates
        at both ends (fully melted, fully solid); the sprint must stay
        within breaker ratings and chiller capacity so no other state
        (trip fractions, room temperature) drifts asymptotically.  The
        span engine must detect the period and replay whole cycles
        bit-identically.
        """
        replays = []
        original = StepLog.extend_cycle

        def spy(self, steps, repeats, times=None):
            replays.append((len(steps), repeats))
            original(self, steps, repeats, times)

        monkeypatch.setattr(StepLog, "extend_cycle", spy)
        config = DataCenterConfig(
            n_pdus=2,
            servers_per_pdu=50,
            has_tes=False,
            chiller_margin=4.0,
            enforce_chip_thermal=True,
            chip_sprint_endurance_min=0.005,
        )
        trace = Trace(np.full(400, 1.1), dt_s=1.0, name="pcm-cycle")
        strategy = GreedyStrategy()
        fast = run_simulation(
            build_datacenter(config), trace, strategy, use_kernel=True
        )
        ref = run_simulation(
            build_datacenter(config), trace, GreedyStrategy(),
            use_kernel=False,
        )
        assert_results_identical(fast, ref)
        multi = [(k, r) for k, r in replays if k > 1]
        assert multi, (
            f"expected a k>1 cycle replay, got only {replays!r}"
        )
        assert max(k for k, _ in multi) >= 5


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    kind=st.sampled_from(STRATEGY_KINDS),
    with_fault=st.booleans(),
)
def test_span_engine_property(seed, kind, with_fault):
    """Property: span-compiled runs are bit-identical to the reference
    for every strategy kind, on random long-constant-span traces, with
    and without fault plans drawn from every fault kind."""
    trace = span_trace(seed, n=420)
    plan = None
    if with_fault:
        rng = np.random.default_rng(seed + 1)
        faults = tuple(FAULTS)
        plan = FaultPlan(
            events=tuple(
                _event(
                    faults[int(rng.integers(0, len(faults)))],
                    float(rng.integers(30, 390)),
                )
                for _ in range(int(rng.integers(1, 3)))
            )
        )
    fast, ref = run_both(trace, kind, fault_plan=plan)
    assert_results_identical(fast, ref)


#: One event of each fault kind (both breaker-trip targets count), with
#: durations on the restorable ones so expiries split windows too.
FAULTS = {
    "breaker_trip_pdu": dict(kind="breaker_trip", fraction=0.5),
    "breaker_trip_dc": dict(kind="breaker_trip", target="dc"),
    "breaker_derate": dict(kind="breaker_derate", fraction=0.4,
                           duration_s=90.0),
    "ups_failure": dict(kind="ups_failure", fraction=0.7),
    "chiller_outage": dict(kind="chiller_outage", fraction=0.6,
                           duration_s=120.0),
    "tes_valve_stuck": dict(kind="tes_valve_stuck", duration_s=80.0),
    "trace_gap": dict(kind="trace_gap", duration_s=45.0),
}

PLACEMENTS = (
    "first_sample",
    "last_sample",
    "mid_span",
    "span_boundary",
    "overlapping",
    "mid_window_degradation",
)


def _event(fault, time_s):
    return FaultEvent(time_s=float(time_s), **FAULTS[fault])


def placed_plan(trace, fault, placement):
    """A plan putting ``fault`` at ``placement`` on ``trace``'s spans."""
    dt = trace.dt_s
    spans = trace.spans()
    longest = max(spans, key=lambda s: s.length)
    mid = (longest.start + longest.length // 2) * dt
    if placement == "first_sample":
        events = [_event(fault, 0.0)]
    elif placement == "last_sample":
        events = [_event(fault, (len(trace) - 1) * dt)]
    elif placement == "mid_span":
        events = [_event(fault, mid)]
    elif placement == "span_boundary":
        burst = next(s for s in spans[1:] if s.demand > 1.0)
        events = [_event(fault, burst.start * dt)]
    elif placement == "overlapping":
        events = [
            _event(fault, mid),
            FaultEvent(kind="chiller_outage", time_s=mid + 5 * dt,
                       fraction=0.5, duration_s=60.0),
            FaultEvent(kind="trace_gap", time_s=mid + 20 * dt,
                       duration_s=30.0),
        ]
    else:
        # A substation breaker de-rated from the start: the first burst
        # trips it inside a window, far from any event time.
        events = [
            FaultEvent(kind="breaker_derate", time_s=0.0, fraction=0.6,
                       target="dc"),
            _event(fault, mid),
        ]
    return FaultPlan(tuple(events))


def _window_edges(plan):
    """Every time at which the injector may split a window."""
    edges = set()
    for event in plan:
        edges.add(event.time_s)
        if np.isfinite(event.duration_s):
            edges.add(event.time_s + event.duration_s)
    return edges


def _result(trace, controller, records=(), aborted_at_s=None):
    """A SimulationResult built exactly as the engine builds one."""
    return SimulationResult(
        trace=trace,
        strategy_name=controller.strategy.name,
        steps=controller.history.snapshot(),
        energy_shares=controller.phases.energy_shares(),
        time_in_phase_s=dict(controller.phases.time_in_phase_s),
        dropped_integral=controller.admission.dropped_integral,
        served_integral=controller.admission.served_integral,
        demand_integral=controller.admission.demand_integral,
        fault_events=list(records),
        aborted_at_s=aborted_at_s,
    )


def per_sample_faulted_run(trace, plan):
    """The fault driver's executable spec: one reference-controller step
    per sample, with due events applied, gaps held and degradation
    entered before every sample."""
    datacenter = build_datacenter(SMALL)
    datacenter.reset()
    controller = datacenter.controller(GreedyStrategy(), use_kernel=False)
    injector = FaultInjector(plan, datacenter)
    base = controller.cluster.capacity_at_degree(1.0)
    aborted_at_s = None

    def degrade(fraction, time_s, reason):
        controller.enter_degraded(fraction * base, time_s, reason)
        injector.records.append(FaultRecord(time_s, "degraded", reason))

    try:
        for i, sample in enumerate(trace):
            time_s = i * trace.dt_s
            injector.apply_due(time_s)
            demand = float(injector.window_demands(np.array([sample]), time_s)[0])
            if not controller.degraded:
                degradation = injector.take_degradation()
                if degradation is not None:
                    degrade(degradation[0], time_s, degradation[1])
                    aborted_at_s = time_s
            if not controller.degraded:
                try:
                    controller.step(demand, time_s, i)
                    continue
                except RECOVERABLE_FAULT_ERRORS as exc:
                    degrade(
                        injector.surviving_capacity_for(exc),
                        time_s,
                        f"{type(exc).__name__}: {exc}",
                    )
                    aborted_at_s = time_s
            controller.degraded_step(demand, time_s)
    finally:
        injector.restore_substrate()
    return _result(trace, controller, injector.records, aborted_at_s)


def per_sample_utility_run(trace, events, strategy):
    """``run_with_utility_events``' executable spec: feed health polled
    and one reference-controller step per sample."""
    datacenter = build_datacenter(SMALL)
    datacenter.reset()
    controller = datacenter.controller(strategy, use_kernel=False)
    controller.strategy.reset()
    bind_rollout_planner(strategy, datacenter, controller, trace)
    feed = UtilityFeed(
        nominal_capacity_w=datacenter.topology.dc_breaker.rated_power_w,
        events=list(events),
    )
    emergency = False
    for i, demand in enumerate(trace):
        time_s = i * trace.dt_s
        healthy = feed.is_healthy(time_s)
        if not healthy and not emergency:
            event = feed.event_at(time_s)
            controller.safety.declare_emergency(
                time_s, f"utility {event.kind.value}"
            )
            emergency = True
        elif healthy and emergency:
            controller.safety.clear_emergency()
            emergency = False
        controller.step(demand, time_s, i)
    return _result(trace, controller)


@contextlib.contextmanager
def reference_controllers():
    """Make every controller the program builds a reference controller
    (``use_kernel=False``), rollout controllers included."""
    original = DataCenter.controller

    def controller(self, strategy, use_kernel=True):
        return original(self, strategy, use_kernel=False)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DataCenter, "controller", controller)
        yield


class TestWindowInterface:
    @pytest.mark.parametrize("use_kernel", (True, False))
    def test_window_steps_are_indexed_from_first_index(self, use_kernel):
        """Sample j of a window is observed at ``times[j]`` with step index
        ``first_index + j``; the times are the caller's, not derived."""
        seen = []

        class Recorder(SprintingStrategy):
            name = "recorder"

            def degree_upper_bound(self, obs):
                seen.append((obs.step_index, obs.time_s))
                return obs.max_degree

        controller = build_datacenter(SMALL).controller(
            Recorder(), use_kernel=use_kernel
        )
        times = np.array([3.25, 3.5, 3.75, 4.0])
        controller.run_window(np.full(4, 0.7), times, 37)
        step = controller.step(0.7, 9.5, 80)
        assert seen == [(37, 3.25), (38, 3.5), (39, 3.75), (40, 4.0),
                        (80, 9.5)]
        assert step == controller.history[-1]
        assert controller.history.column("time_s").tolist() == [
            3.25, 3.5, 3.75, 4.0, 9.5
        ]


class TestFaultWindows:
    @pytest.mark.parametrize("fault", tuple(FAULTS))
    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_every_fault_kind_every_strategy(self, kind, fault):
        seed = 100 + 10 * STRATEGY_KINDS.index(kind) + tuple(FAULTS).index(fault)
        trace = span_trace(seed, n=420)
        plan = placed_plan(trace, fault, "mid_span")
        fast, ref = run_both(trace, kind, fault_plan=plan)
        assert_results_identical(fast, ref)

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("fault", tuple(FAULTS))
    def test_event_placements(self, fault, placement):
        trace = span_trace(13, n=420)
        plan = placed_plan(trace, fault, placement)
        fast, ref = run_both(trace, "greedy", fault_plan=plan)
        assert_results_identical(fast, ref)
        assert_results_identical(fast, per_sample_faulted_run(trace, plan))
        if placement == "mid_window_degradation":
            assert fast.aborted_at_s is not None
            assert fast.aborted_at_s not in _window_edges(plan)

    @pytest.mark.parametrize("seed", range(3))
    def test_mid_window_degradation_random_traces(self, seed):
        trace = span_trace(seed, n=420)
        plan = placed_plan(trace, "ups_failure", "mid_window_degradation")
        for kind in ("fixed", "heuristic", "mpc"):
            fast, ref = run_both(trace, kind, fault_plan=plan)
            assert_results_identical(fast, ref)
            assert fast.aborted_at_s is not None
            assert fast.aborted_at_s not in _window_edges(plan)

    def test_apply_due_once_per_boundary(self, monkeypatch):
        """Injection runs once per window, not once per sample: the run
        start plus every event, expiry and gap-end time."""
        calls = []
        original = FaultInjector.apply_due

        def spy(self, time_s):
            calls.append(time_s)
            return original(self, time_s)

        monkeypatch.setattr(FaultInjector, "apply_due", spy)
        trace = span_trace(5, n=300)
        plan = FaultPlan((
            FaultEvent(kind="ups_failure", time_s=50.0, fraction=0.3),
            FaultEvent(kind="chiller_outage", time_s=100.0, fraction=0.3,
                       duration_s=30.0),
            FaultEvent(kind="trace_gap", time_s=200.0, duration_s=20.0),
        ))
        result = run_simulation(
            build_datacenter(SMALL), trace, GreedyStrategy(),
            fault_plan=plan,
        )
        assert len(result.steps) == len(trace)
        assert calls == [0.0, 50.0, 100.0, 130.0, 200.0, 220.0]


class TestUtilityWindows:
    EVENTS = {
        "spike": UtilityEvent(UtilityEventKind.SPIKE, 150.0, 60.0, 1.3),
        "sag": UtilityEvent(UtilityEventKind.SAG, 40.0, 90.0, 0.7),
        "outage": UtilityEvent(UtilityEventKind.OUTAGE, 0.0, 30.0),
    }

    @pytest.mark.parametrize("event", tuple(EVENTS))
    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_utility_event_kinds(self, kind, event):
        trace = span_trace(17, n=420)
        events = [
            self.EVENTS[event],
            # Overlaps the first event's end and runs past the last sample.
            UtilityEvent(UtilityEventKind.SAG, 200.0, 400.0, 0.8),
        ]
        fast = run_with_utility_events(
            trace, events, STRATEGY_FACTORIES[kind](), SMALL
        )
        with reference_controllers():
            ref = per_sample_utility_run(
                trace, events, STRATEGY_FACTORIES[kind]()
            )
        assert_results_identical(fast, ref)
        assert fast.fault_events == []
        assert fast.aborted_at_s is None


class TestRolloutWindows:
    def _mpc(self):
        return MPCStrategy(
            candidate_bounds=(1.5, 2.5, 3.5),
            horizon_s=60.0,
            replan_interval_s=30.0,
        )

    def test_non_integer_dt_pins_rollout_timestamps(self, monkeypatch):
        """Rollout windows are stamped ``start_time_s + j * dt`` — the
        planner's own formula, not ``(start_index + j) * dt`` — and the
        whole MPC run matches the all-reference run bit-for-bit."""
        dt = 0.3
        config = SMALL.with_changes(dt_s=dt)
        trace = span_trace(21, n=500, dt_s=dt)
        windows = []
        original = RolloutPlanner._rollout_score

        def spy(self, surrogate, bound, demands, times, start_index):
            windows.append((np.array(times), start_index))
            return original(self, surrogate, bound, demands, times,
                            start_index)

        monkeypatch.setattr(RolloutPlanner, "_rollout_score", spy)
        fast = run_simulation(build_datacenter(config), trace, self._mpc())
        assert windows, "the trace never triggered planning"
        formula_matters = False
        for times, start_index in windows:
            start_time_s = start_index * dt
            expected = [start_time_s + j * dt for j in range(times.size)]
            assert times.tolist() == expected
            formula_matters |= any(
                t != (start_index + j) * dt for j, t in enumerate(expected)
            )
        assert formula_matters, "dt does not separate the two formulas"

        with reference_controllers():
            ref = run_simulation(build_datacenter(config), trace, self._mpc())
        assert_results_identical(fast, ref)

    def test_planner_scores_match_reference(self, monkeypatch):
        """Per-candidate rollout scores agree exactly between kernel and
        reference rollout windows."""
        trace = span_trace(12, n=420)
        recorded = {}
        original = RolloutPlanner.plan

        def run(key):
            scores = recorded.setdefault(key, [])

            def plan(planner, obs):
                bound = original(planner, obs)
                scores.append(planner.last_scores)
                return bound

            monkeypatch.setattr(RolloutPlanner, "plan", plan)
            run_simulation(build_datacenter(SMALL), trace, self._mpc())
            monkeypatch.setattr(RolloutPlanner, "plan", original)

        run("kernel")
        with reference_controllers():
            run("reference")
        assert len(recorded["kernel"]) > 0
        assert recorded["kernel"] == recorded["reference"]


class TestVectorLatch:
    BOUNDS = (1.0, 1.8, 2.6, 3.4)

    def _flat_trace(self, n=400, level=0.5):
        return Trace(np.full(n, level), dt_s=1.0, name="flat")

    def _run_unlatched(self, facility, trace, **kwargs):
        """Reference batch run with the latch tracking suppressed."""
        from repro.core.vector_kernel import VectorStepKernel

        original = VectorStepKernel.step

        def no_latch(self, demand, time_s):
            self._ff_last_demand = None
            self._ff_armed = False
            self._ff_cache = None
            self._ff_sig = None
            return original(self, demand, time_s)

        VectorStepKernel.step = no_latch
        try:
            return facility.run_fixed_bounds(trace, list(self.BOUNDS),
                                             **kwargs)
        finally:
            VectorStepKernel.step = original

    def test_arms_and_replays_bit_identically(self):
        trace = self._flat_trace()
        latched = BatchFacility(SMALL).run_fixed_bounds(
            trace, list(self.BOUNDS), record_telemetry=True
        )
        plain = self._run_unlatched(
            BatchFacility(SMALL), trace, record_telemetry=True
        )
        k1, k2 = latched.kernel, plain.kernel
        assert k1._ff_armed, "constant demand never armed the latch"
        assert np.array_equal(latched.served, plain.served)
        assert np.array_equal(k1.served_integral, k2.served_integral)
        assert np.array_equal(k1.dropped_integral, k2.dropped_integral)
        assert np.array_equal(k1.demand_integral, k2.demand_integral)
        assert np.array_equal(
            k1.cb_overload_energy_j, k2.cb_overload_energy_j
        )
        assert np.array_equal(k1.ups_energy_j, k2.ups_energy_j)
        assert np.array_equal(
            k1.tes_electric_energy_j, k2.tes_electric_energy_j
        )
        for code in range(4):
            assert np.array_equal(
                k1.time_in_phase_s[code], k2.time_in_phase_s[code]
            )
        assert np.array_equal(k1.pdu.time_s, k2.pdu.time_s)
        assert np.array_equal(k1.dc.time_s, k2.dc.time_s)
        assert k1.telemetry is not None and k2.telemetry is not None
        for name in k1.telemetry:
            assert np.array_equal(
                np.vstack(k1.telemetry[name]),
                np.vstack(k2.telemetry[name]),
                equal_nan=True,
            ), name

    def test_step_trace_bit_identity(self):
        """A burst-and-plateau trace: latch on plateaus, disarm on edges."""
        samples = np.concatenate(
            [np.full(150, 0.5), np.full(100, 1.6), np.full(150, 0.5)]
        )
        trace = Trace(samples, dt_s=1.0, name="plateaus")
        latched = BatchFacility(SMALL).run_fixed_bounds(
            trace, list(self.BOUNDS), record_telemetry=True
        )
        plain = self._run_unlatched(
            BatchFacility(SMALL), trace, record_telemetry=True
        )
        assert np.array_equal(latched.served, plain.served)
        k1, k2 = latched.kernel, plain.kernel
        assert k1.telemetry is not None and k2.telemetry is not None
        for name in k1.telemetry:
            assert np.array_equal(
                np.vstack(k1.telemetry[name]),
                np.vstack(k2.telemetry[name]),
                equal_nan=True,
            ), name

    def test_demand_change_disarms(self):
        from repro.simulation.datacenter import build_datacenter as build

        dc = build(SMALL)
        ctrl = dc.controller(FixedUpperBoundStrategy(1.0))
        from repro.core.vector_kernel import VectorStepKernel

        kernel = VectorStepKernel(
            dc.cluster, dc.topology, dc.cooling, ctrl,
            np.asarray(self.BOUNDS),
        )
        for i in range(10):
            kernel.step(0.5, float(i))
        assert kernel._ff_armed
        kernel.step(0.9, 10.0)
        assert not kernel._ff_armed

    def test_clear_fast_forward_after_external_write(self):
        """External derates must be preceded by clear_fast_forward."""
        from repro.core.vector_kernel import VectorStepKernel
        from repro.simulation.datacenter import build_datacenter as build

        def make_kernel():
            dc = build(SMALL)
            ctrl = dc.controller(FixedUpperBoundStrategy(1.0))
            return VectorStepKernel(
                dc.cluster, dc.topology, dc.cooling, ctrl,
                np.asarray(self.BOUNDS),
            )

        mutated = make_kernel()
        for i in range(10):
            mutated.step(0.5, float(i))
        assert mutated._ff_armed
        mutated.battery_energy_j = mutated.battery_energy_j * 0.5
        mutated.clear_fast_forward()
        assert not mutated._ff_armed
        out_mutated = [
            mutated.step(0.5, float(10 + i)) for i in range(5)
        ]

        fresh = make_kernel()
        for i in range(10):
            fresh.step(0.5, float(i))
        fresh._ff_armed = False
        fresh._ff_cache = None
        fresh._ff_sig = None
        fresh._ff_last_demand = None
        fresh.battery_energy_j = fresh.battery_energy_j * 0.5
        out_fresh = [fresh.step(0.5, float(10 + i)) for i in range(5)]
        for a, b in zip(out_mutated, out_fresh):
            assert np.array_equal(a, b)
        assert np.array_equal(
            mutated.battery_energy_j, fresh.battery_energy_j
        )
