"""Differential validation of the shared-prefix Oracle search.

:func:`~repro.simulation.engine.shared_prefix_oracle_search` runs one
instrumented baseline and resumes per-candidate suffixes from snapshots;
its contract is *bit-identity* with the reference sweep — one full
:func:`simulate_strategy` per candidate, NaN on failure, strict
first-wins argmax.  Every test here computes both and compares the chosen
bound and the achieved performance with ``==``, never ``approx``; any
drift in the snapshot engine, the divergence-frontier computation or the
tie-breaking shows up as a hard mismatch.

This file is the differential suite CI runs in the benchmark-smoke job
(under ``REPRO_SWEEP_WORKERS=2``) together with
``test_snapshot.py``'s round-trip checks.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.strategies import FixedUpperBoundStrategy
from repro.errors import ReproError
from repro.simulation.batch import SweepRunner
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import build_datacenter
from repro.simulation.engine import (
    _run_stretch,
    shared_prefix_oracle_search,
    simulate_strategy,
)
from repro.simulation.faults import FaultEvent, FaultPlan
from repro.workloads.traces import Trace

SMALL = DataCenterConfig(n_pdus=2, servers_per_pdu=50)

#: An ascending grid with clamp-induced ties: 4.5 and 5.0 both clamp to
#: the cluster's max degree, so they duplicate 4.0's run exactly.
GRID = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)


def random_trace(seed: int, n: int = 420, dt_s: float = 1.0) -> Trace:
    """Randomised demand with idle stretches and hard bursts (same shape
    as the kernel differential suite's generator)."""
    rng = np.random.default_rng(seed)
    base = 0.55 + 0.3 * rng.random(n)
    for _ in range(rng.integers(1, 4)):
        start = int(rng.integers(0, n - 40))
        length = int(rng.integers(20, 120))
        base[start:start + length] += rng.uniform(0.8, 3.0)
    return Trace(np.clip(base, 0.0, 4.5), dt_s=dt_s, name=f"random-{seed}")


def reference_search(trace, candidates, config, fault_plan=None):
    """The reference Oracle: one full run per candidate, strict argmax."""
    best_bound, best_perf = None, -math.inf
    for bound in candidates:
        try:
            result = simulate_strategy(
                trace,
                FixedUpperBoundStrategy(float(bound)),
                config,
                fault_plan=fault_plan,
            )
        except ReproError:
            continue
        if result.average_performance > best_perf:
            best_perf = result.average_performance
            best_bound = float(bound)
    assert best_bound is not None
    return best_bound, best_perf


class TestNoFaultEquality:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_traces(self, seed):
        trace = random_trace(seed)
        fast = shared_prefix_oracle_search(trace, GRID, SMALL)
        assert fast is not None
        assert fast == reference_search(trace, GRID, SMALL)

    @pytest.mark.parametrize("seed", (50, 51))
    def test_unsorted_candidate_order(self, seed):
        """First-wins argmax depends on candidate *order*, not value —
        both paths must honour the caller's ordering identically."""
        trace = random_trace(seed)
        candidates = (4.0, 2.0, 3.5, 2.5, 3.0)
        fast = shared_prefix_oracle_search(trace, candidates, SMALL)
        assert fast is not None
        assert fast == reference_search(trace, candidates, SMALL)

    def test_no_burst_trace(self):
        """Degenerate flat demand: performance is 1.0 for everyone and the
        first candidate wins the tie."""
        flat = Trace(np.full(300, 0.8), 1.0, "flat")
        fast = shared_prefix_oracle_search(flat, (2.0, 3.0, 4.0), SMALL)
        assert fast == (2.0, 1.0)
        assert fast == reference_search(flat, (2.0, 3.0, 4.0), SMALL)

    def test_short_burst_ties_resolve_to_lowest_bound(self):
        """A burst too short to exhaust any budget: every bound ≥ the
        burst degree serves it fully, and the lowest such bound wins."""
        values = [0.8] * 60 + [1.5] * 45 + [0.8] * 200
        trace = Trace(np.asarray(values, dtype=float), 1.0, "tie")
        fast = shared_prefix_oracle_search(trace, (2.0, 3.0, 4.0), SMALL)
        assert fast is not None
        assert fast[0] == 2.0
        assert fast == reference_search(trace, (2.0, 3.0, 4.0), SMALL)

    def test_long_extreme_burst(self):
        """A 40-minute degree-4 burst drains every reserve: the interior
        bound wins and both paths agree bit-for-bit."""
        values = [0.8] * 120 + [4.0] * 2400 + [0.8] * 300
        trace = Trace(np.asarray(values, dtype=float), 1.0, "extreme")
        fast = shared_prefix_oracle_search(trace, GRID, SMALL)
        assert fast is not None
        assert fast == reference_search(trace, GRID, SMALL)

    def test_default_config_yahoo(self, yahoo_trace_5min):
        """Full paper-size facility on a generated Yahoo trace."""
        candidates = (2.0, 2.5, 3.0, 3.5, 4.0)
        config = DataCenterConfig()
        fast = shared_prefix_oracle_search(
            yahoo_trace_5min, candidates, config
        )
        assert fast is not None
        assert fast == reference_search(yahoo_trace_5min, candidates, config)


def failing_index(trace, bound, config):
    """Index of the sample on which a fixed-bound run raises, or None
    when the run completes."""
    datacenter = build_datacenter(config)
    controller = datacenter.controller(FixedUpperBoundStrategy(float(bound)))
    controller.strategy.reset()
    try:
        controller.run_window(trace.samples, trace.times_s(), 0)
    except ReproError:
        return len(controller.history)
    return None


class TestFailureBranches:
    """Inputs on which real breaker trips drive the two failure branches
    of the fault-free search.  Each test first checks its premise on the
    reference runs, so a physics change that moves the trips makes the
    test fail loudly instead of silently skipping the branch."""

    GRID = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0)

    @pytest.mark.parametrize("cut", (0, 60, 95))
    def test_stretch_failing_index_matches_per_sample_loop(self, cut):
        """``_run_stretch`` steps a whole stretch as one window and must
        name the same failing sample as stepping it one sample at a time,
        also when the run was cut into stretches ahead of the trip."""
        config = DataCenterConfig(
            n_pdus=2, servers_per_pdu=50, reserve_trip_time_s=0.5
        )
        values = [0.8] * 30 + [2.2] * 65 + [3.0] + [0.5] * 200
        trace = Trace(np.asarray(values, dtype=float), 1.0, "stretch-trip")
        samples, times = trace.samples, trace.times_s()

        def fresh():
            datacenter = build_datacenter(config)
            controller = datacenter.controller(FixedUpperBoundStrategy(4.0))
            controller.strategy.reset()
            return controller

        per_sample = fresh()
        expected = None
        for k in range(samples.size):
            try:
                per_sample.step(float(samples[k]), float(times[k]), k)
            except ReproError:
                expected = k
                break
        assert expected == 95

        windowed = fresh()
        if cut:
            assert _run_stretch(windowed, samples, times, 0, cut) is None
        failed = _run_stretch(windowed, samples, times, cut, samples.size)
        assert failed == expected
        assert np.array_equal(
            windowed.history.column("served"),
            per_sample.history.column("served"),
        )

    def test_baseline_fails_on_a_divergence_frontier(self):
        """A one-sample spike at sample 95 trips the largest bound's
        breaker on that very sample, which is also where demand first
        exceeds the 3.0 and 3.5 bounds (their divergence frontier).  Those
        candidates resume from the snapshot taken ahead of the spike,
        survive it, and 3.5 wins."""
        config = DataCenterConfig(
            n_pdus=2, servers_per_pdu=50, reserve_trip_time_s=0.5
        )
        values = [0.8] * 30 + [2.2] * 65 + [3.0] + [0.5] * 200
        trace = Trace(np.asarray(values, dtype=float), 1.0, "frontier-trip")
        assert failing_index(trace, 4.0, config) == 95
        for bound in (3.0, 3.5):
            assert failing_index(trace, bound, config) is None
        fast = shared_prefix_oracle_search(trace, self.GRID, config)
        assert fast is not None
        assert fast[0] == 3.5
        assert fast == reference_search(trace, self.GRID, config)

    def test_winner_fails_after_the_last_burst_sample(self):
        """Bounds 2.5-4.0 serve the burst best but trip a breaker in the
        post-burst tail (battery recharge on top of peak-normal load with
        5% DC headroom).  The verified-winner loop must demote each of
        them in turn and settle on 2.0, like the reference."""
        config = DataCenterConfig(
            n_pdus=2,
            servers_per_pdu=50,
            reserve_trip_time_s=2.0,
            dc_headroom_fraction=0.05,
        )
        values = [0.8] * 30 + [2.0] * 120 + [1.0] * 300
        trace = Trace(np.asarray(values, dtype=float), 1.0, "tail-trip")
        last = 149
        burst_only = Trace(trace.samples[: last + 1], 1.0, "burst-only")
        for bound in (2.5, 3.0, 3.5, 4.0):
            assert failing_index(burst_only, bound, config) is None
            assert failing_index(trace, bound, config) > last
        assert failing_index(trace, 2.0, config) is None
        fast = shared_prefix_oracle_search(trace, self.GRID, config)
        assert fast is not None
        assert fast[0] == 2.0
        assert fast == reference_search(trace, self.GRID, config)


class TestFaultEquality:
    PLANS = {
        "chiller-mid-burst": FaultPlan((
            FaultEvent.parse("chiller@150s:fraction=0.6,duration=90"),
        )),
        "ups-mid-burst": FaultPlan((
            FaultEvent.parse("ups@120s:fraction=0.4"),
        )),
        "breaker-and-gap": FaultPlan((
            FaultEvent.parse("breaker@100s:fraction=0.5"),
            FaultEvent.parse("gap@200s:duration=30"),
        )),
        "derate-pre-burst": FaultPlan((
            FaultEvent.parse("derate@30s:fraction=0.3,duration=300"),
        )),
    }

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    @pytest.mark.parametrize("seed", (7, 19))
    def test_fault_plans(self, seed, plan_name):
        trace = random_trace(seed)
        plan = self.PLANS[plan_name]
        fast = shared_prefix_oracle_search(
            trace, GRID, SMALL, fault_plan=plan
        )
        assert fast is not None
        assert fast == reference_search(trace, GRID, SMALL, fault_plan=plan)


class TestValidityEnvelope:
    def test_empty_candidates_fall_back(self):
        assert shared_prefix_oracle_search(random_trace(0), (), SMALL) is None

    def test_dt_mismatch_falls_back(self):
        """The reference path owns the descriptive dt-mismatch error."""
        coarse = random_trace(1).resampled(5.0)
        assert shared_prefix_oracle_search(coarse, GRID, SMALL) is None

    def test_sub_normal_bound_falls_back(self):
        """A bound below the normal degree binds outside bursts, so the
        prefix is not shared and the fast path declines."""
        fast = shared_prefix_oracle_search(random_trace(2), (0.5, 2.0), SMALL)
        assert fast is None


class TestRunnerEntryPoint:
    """`SweepRunner.oracle_search` fronts the fast path with a search-level
    cache; cold and warm calls must agree with the reference."""

    def test_cold_and_warm_match_reference(self, tmp_path):
        trace = random_trace(3)
        with SweepRunner(max_workers=1, cache_dir=tmp_path) as runner:
            cold = runner.oracle_search(trace, candidates=GRID, config=SMALL)
            warm = runner.oracle_search(trace, candidates=GRID, config=SMALL)
        expected = reference_search(trace, GRID, SMALL)
        for oracle in (cold, warm):
            assert (oracle.upper_bound, oracle.achieved_performance) == expected

    def test_pooled_table_build_matches_serial(self, monkeypatch):
        """Entry-wise table equality between the pooled point searches and
        the serial path.  CI runs this under ``REPRO_SWEEP_WORKERS=2`` so
        the worker-shipped search genuinely crosses process boundaries;
        locally `from_env` falls back to cpu_count."""
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", "off")

        def factory(degree, duration_min):
            burst = int(duration_min * 60)
            values = [0.8] * 60 + [degree] * burst + [0.8] * 120
            return Trace(
                np.asarray(values, dtype=float),
                1.0,
                f"grid-{degree:g}-{duration_min:g}",
            )

        grid = dict(
            config=SMALL,
            burst_durations_min=(2.0, 6.0),
            burst_degrees=(2.8, 3.2),
            candidates=(2.0, 2.5, 3.0, 4.0),
            trace_factory=factory,
        )
        with SweepRunner.from_env() as pooled:
            table = pooled.build_upper_bound_table(**grid)
        with SweepRunner(max_workers=1) as serial:
            expected = serial.build_upper_bound_table(**grid)
        assert table.entries() == expected.entries()

    def test_fallback_path_matches(self, tmp_path, monkeypatch):
        """With the fast path disabled the runner's per-candidate sweep
        must land on the identical answer."""
        monkeypatch.setattr(
            "repro.simulation.batch.shared_prefix_oracle_search",
            lambda *args, **kwargs: None,
        )
        trace = random_trace(4)
        with SweepRunner(max_workers=1, cache_dir=tmp_path) as runner:
            oracle = runner.oracle_search(trace, candidates=GRID, config=SMALL)
        expected = reference_search(trace, GRID, SMALL)
        assert (oracle.upper_bound, oracle.achieved_performance) == expected
