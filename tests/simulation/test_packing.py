"""Vector-packed tier: bit-identity to the scalar path, pinned.

The packed tier's whole value rests on one claim: a task that runs
packed produces the *same object* the scalar engine produces — every
float bit-identical, every tie broken the same way.  The differential
tests here randomize grids of traces and bounds and compare
``vector_pack_tasks`` / ``packed_point_searches`` output against the
scalar reference with plain ``==`` (no tolerances anywhere).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.simulation import batch as batch_module
from repro.simulation import packing
from repro.simulation.batch import (
    RunFailure,
    StrategySpec,
    SweepRunner,
    SweepTask,
    execute_task,
)
from repro.simulation.config import DataCenterConfig
from repro.simulation.faults import FaultEvent, FaultPlan
from repro.simulation.packing import (
    packed_point_searches,
    task_packable,
    vector_pack_tasks,
)
from repro.workloads.traces import Trace

SMALL = DataCenterConfig(n_pdus=2, servers_per_pdu=25)


def bursty_trace(seed: int, n: int = 90) -> Trace:
    """Random trace with a guaranteed burst window (so no outcome field
    degenerates to NaN, which would defeat ``==`` comparison)."""
    rng = np.random.default_rng(seed)
    samples = 0.6 + 0.3 * rng.random(n)
    lo = int(rng.integers(10, n // 2))
    hi = lo + int(rng.integers(10, n - lo - 1))
    samples[lo:hi] += 1.2 + 1.4 * rng.random()
    return Trace(samples, name=f"pack-{seed}")


def scalar_reference(tasks):
    """The scalar engine's results: one reference run per task."""
    return [execute_task(task) for task in tasks]


class TestPackability:
    def test_fixed_and_greedy_pack(self):
        trace = bursty_trace(0)
        assert task_packable(SweepTask(trace, StrategySpec.fixed(2.5), SMALL))
        assert task_packable(SweepTask(trace, StrategySpec.greedy(), SMALL))

    def test_faulted_mpc_and_mismatched_dt_do_not_pack(self):
        trace = bursty_trace(0)
        plan = FaultPlan((FaultEvent(kind="breaker", time_s=10.0),))
        assert not task_packable(
            SweepTask(trace, StrategySpec.fixed(2.5), SMALL, plan)
        )
        assert not task_packable(
            SweepTask(
                trace,
                StrategySpec.mpc(candidate_bounds=(2.0, 3.0)),
                SMALL,
            )
        )
        off_dt = Trace(trace.samples, dt_s=2.0, name="off-dt")
        assert not task_packable(
            SweepTask(off_dt, StrategySpec.fixed(2.5), SMALL)
        )


class TestRandomizedDifferential:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_packed_grid_bit_identical_to_scalar(self, seed):
        """Random grid: mixed traces, random fixed bounds (with
        duplicates), greedy sprinkled in — packed == scalar, bit for bit.
        """
        rng = np.random.default_rng(seed)
        traces = [bursty_trace(100 * seed + i) for i in range(3)]
        tasks = []
        for trace in traces:
            for _ in range(3):
                bound = float(
                    rng.choice([2.0, 2.5, 3.0, 3.0, 3.5])  # dup: tie bait
                )
                tasks.append(SweepTask(trace, StrategySpec.fixed(bound), SMALL))
            tasks.append(SweepTask(trace, StrategySpec.greedy(), SMALL))
        packed = vector_pack_tasks(tasks)
        assert all(result is not None for result in packed)
        assert packed == scalar_reference(tasks)

    def test_greedy_equals_unbounded_fixed_semantics(self):
        """Greedy packs as bound=inf; its packed outcome must equal its
        scalar run, not merely a high fixed bound's."""
        trace = bursty_trace(7)
        tasks = [
            SweepTask(trace, StrategySpec.greedy(), SMALL),
            SweepTask(trace, StrategySpec.greedy(), SMALL),
        ]
        packed = vector_pack_tasks(tasks)
        reference = scalar_reference(tasks)
        assert packed == reference
        assert packed[0].strategy_name == "greedy"

    def test_unpackable_tasks_stay_none(self):
        trace = bursty_trace(9)
        tasks = [
            SweepTask(trace, StrategySpec.fixed(2.0), SMALL),
            SweepTask(
                trace, StrategySpec.mpc(candidate_bounds=(2.0, 3.0)), SMALL
            ),
            SweepTask(trace, StrategySpec.fixed(3.0), SMALL),
        ]
        packed = vector_pack_tasks(tasks)
        assert packed[1] is None
        assert packed[0] is not None and packed[2] is not None

    def test_lone_task_is_not_packed(self):
        """A group narrower than MIN_PACK_WIDTH gains nothing; it stays
        on the scalar path."""
        tasks = [SweepTask(bursty_trace(11), StrategySpec.fixed(2.0), SMALL)]
        assert vector_pack_tasks(tasks) == [None]

    def test_runner_without_vector_pack_never_packs(self, monkeypatch):
        """``SweepRunner(vector_pack=False)`` is the per-runner switch:
        every task runs on the scalar engine, with identical results."""
        trace = bursty_trace(12)
        tasks = [
            SweepTask(trace, StrategySpec.fixed(b), SMALL) for b in (2.0, 3.0)
        ]
        calls = []
        monkeypatch.setattr(
            batch_module, "vector_pack_tasks", lambda t: calls.append(t)
        )
        runner = SweepRunner(max_workers=1, cache_dir=None, vector_pack=False)
        assert runner.run_tasks(tasks) == scalar_reference(tasks)
        assert calls == []


class TestPackedPointSearches:
    CANDIDATES = (2.0, 2.5, 3.0, 3.0, 3.5)  # duplicate: tie-break bait

    def scalar_searches(self, traces):
        """Strict first-wins argmax over one reference run per candidate."""
        found = []
        for trace in traces:
            best = None
            for bound in self.CANDIDATES:
                outcome = execute_task(
                    SweepTask(trace, StrategySpec.fixed(bound), SMALL)
                )
                if outcome.failed:
                    continue
                perf = outcome.average_performance
                if best is None or perf > best[1]:
                    best = (float(bound), perf)
            found.append(best)
        return found

    def test_fused_table_search_matches_reference(self):
        traces = [bursty_trace(20 + i) for i in range(4)]
        packed = packed_point_searches(traces, self.CANDIDATES, SMALL)
        assert packed is not None
        assert packed == self.scalar_searches(traces)

    def test_mixed_lengths_group_separately_and_still_match(self):
        traces = [
            bursty_trace(30, n=90),
            bursty_trace(31, n=120),
            bursty_trace(32, n=90),
            bursty_trace(33, n=120),
        ]
        packed = packed_point_searches(traces, self.CANDIDATES, SMALL)
        assert packed is not None
        assert packed == self.scalar_searches(traces)

    def test_declines_outside_envelope(self):
        traces = [bursty_trace(40), bursty_trace(41)]
        assert packed_point_searches(traces, (), SMALL) is None
        assert packed_point_searches(traces, (2.0, -1.0), SMALL) is None
        assert packed_point_searches(traces[:1], (2.0,), SMALL) is None
        off_dt = Trace(traces[0].samples, dt_s=2.0, name="off")
        assert (
            packed_point_searches([traces[0], off_dt], (2.0,), SMALL) is None
        )


class _StubKernel:
    """Kernel double whose elements have all failed."""

    def __init__(self, n_steps: int, width: int) -> None:
        self.failed = np.ones(width, dtype=bool)
        self.telemetry = {
            "degree": [np.ones(width)] * n_steps,
            "room_temperature_c": [np.full(width, 25.0)] * n_steps,
        }


class TestFailureLatching:
    def test_failed_elements_rerun_on_the_scalar_engine(self, monkeypatch):
        """A packed element the kernel latches as failed must come back as
        the *scalar* engine's RunFailure — exact type, message, timestamp —
        via a scalar re-run, never as a reduced outcome.

        (Under unmutated physics the safety monitor prevents failures, so
        the kernel is stubbed to report every element failed.)
        """
        trace = bursty_trace(50)
        tasks = [
            SweepTask(trace, StrategySpec.fixed(b), SMALL) for b in (2.0, 3.0)
        ]
        sentinel = {
            task.cache_key(): RunFailure(
                "fixed", "BreakerTrippedError", "injected", float(i)
            )
            for i, task in enumerate(tasks)
        }

        def stub_batch(config, demand, dt_s, bounds, **kwargs):
            served = np.zeros_like(np.asarray(demand, dtype=np.float64))
            return served, _StubKernel(served.shape[0], served.shape[1])

        monkeypatch.setattr(packing, "run_vector_batch", stub_batch)
        monkeypatch.setattr(
            batch_module,
            "execute_task",
            lambda task: sentinel[task.cache_key()],
        )
        packed = vector_pack_tasks(tasks)
        assert packed == [sentinel[t.cache_key()] for t in tasks]
