"""Tests for the persistent sweep pool and worker-side reuse.

The parallel runner starts its process pool once and keeps it alive
across batches; every task travels to a worker with its trace, so a new
trace does not restart the pool.  Workers run the same ``execute_task``
as the serial path.  These tests pin the two things that matter: the
pool actually persists (also across batches that bring unseen traces),
and none of the reuse changes a single result relative to the serial
reference path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.batch import (
    StrategySpec,
    SweepRunner,
    SweepTask,
    execute_task,
)
from repro.simulation.config import DataCenterConfig
from repro.simulation.scheduler import ProcessPoolScheduler
from repro.workloads.traces import Trace

SMALL = DataCenterConfig(n_pdus=2, servers_per_pdu=25)


def pool_of(runner: SweepRunner):
    """The runner's live process pool; ``None`` for poolless backends."""
    return getattr(runner._scheduler, "pool", None)


def burst_trace(seed: int = 0, n: int = 90) -> Trace:
    rng = np.random.default_rng(seed)
    samples = 0.7 + 0.2 * rng.random(n)
    samples[30:60] += 1.8
    return Trace(samples, name=f"pool-{seed}")


class TestPoolPersistence:
    def test_pool_survives_across_batches(self):
        # vector_pack off: packable fixed-bound tasks would otherwise run
        # on the in-process kernel tier and never touch the pool.
        runner = SweepRunner(max_workers=2, vector_pack=False)
        trace = burst_trace()
        tasks = [
            SweepTask(trace, StrategySpec.fixed(bound), SMALL)
            for bound in (2.0, 3.0)
        ]
        try:
            runner.run_tasks(tasks)
            first_pool = pool_of(runner)
            assert first_pool is not None
            runner.run_tasks(tasks)
            assert pool_of(runner) is first_pool
        finally:
            runner.close()

    def test_pool_persists_across_new_traces(self):
        runner = SweepRunner(max_workers=2, vector_pack=False)
        spec_pair = [StrategySpec.fixed(2.0), StrategySpec.fixed(3.0)]
        try:
            runner.run_tasks(
                [SweepTask(burst_trace(0), s, SMALL) for s in spec_pair]
            )
            first_pool = pool_of(runner)
            assert first_pool is not None
            unseen = [SweepTask(burst_trace(1), s, SMALL) for s in spec_pair]
            results = runner.run_tasks(unseen)
            assert pool_of(runner) is first_pool
            assert results == [execute_task(task) for task in unseen]
        finally:
            runner.close()

    def test_close_is_idempotent_and_serial_runner_is_a_noop(self):
        serial = SweepRunner(max_workers=1)
        serial.close()
        serial.close()
        assert pool_of(serial) is None

    def test_serial_path_never_builds_a_pool(self):
        runner = SweepRunner(max_workers=1)
        runner.run_tasks(
            [SweepTask(burst_trace(), StrategySpec.greedy(), SMALL)]
        )
        assert pool_of(runner) is None


class TestRunnerLifecycle:
    """`close()` latches the runner shut; further submissions are a
    programming error with a clear message, not a silent pool rebuild."""

    def test_double_close_is_idempotent(self):
        runner = SweepRunner(max_workers=1)
        runner.close()
        runner.close()
        assert pool_of(runner) is None

    def test_submit_after_close_raises(self):
        from repro.errors import ConfigurationError

        runner = SweepRunner(max_workers=1)
        runner.run_tasks(
            [SweepTask(burst_trace(), StrategySpec.greedy(), SMALL)]
        )
        runner.close()
        task = SweepTask(burst_trace(), StrategySpec.greedy(), SMALL)
        with pytest.raises(ConfigurationError, match="closed"):
            runner.run_tasks([task])
        with pytest.raises(ConfigurationError, match="closed"):
            runner.oracle_search(burst_trace(), candidates=(2.0, 3.0))
        with pytest.raises(ConfigurationError, match="closed"):
            runner.build_upper_bound_table(
                burst_durations_min=(2.0,),
                burst_degrees=(3.0,),
                candidates=(2.0, 3.0),
                config=SMALL,
            )

    def test_context_manager_closes_on_exit(self):
        from repro.errors import ConfigurationError

        with SweepRunner(max_workers=1) as runner:
            results = runner.run_tasks(
                [SweepTask(burst_trace(), StrategySpec.greedy(), SMALL)]
            )
            assert len(results) == 1
        with pytest.raises(ConfigurationError, match="closed"):
            runner.run_tasks(
                [SweepTask(burst_trace(), StrategySpec.greedy(), SMALL)]
            )

    def test_entering_a_closed_runner_raises(self):
        from repro.errors import ConfigurationError

        runner = SweepRunner(max_workers=1)
        runner.close()
        with pytest.raises(ConfigurationError, match="closed"):
            with runner:
                pass  # pragma: no cover - __enter__ must raise


class TestWorkerReuseCorrectness:
    def test_shipped_path_matches_reference_path(self):
        """Tasks shipped to pool workers must be element-wise identical to
        ``execute_task`` in process — including when the now-warm workers
        run the batch again in a different order on different traces."""
        tasks = [
            SweepTask(trace, spec, SMALL)
            for trace, spec in (
                (burst_trace(0), StrategySpec.greedy()),
                (burst_trace(0), StrategySpec.fixed(2.5)),
                (burst_trace(1), StrategySpec.greedy()),
            )
        ]
        reference = [execute_task(task) for task in tasks]
        scheduler = ProcessPoolScheduler(max_workers=2)
        try:
            assert scheduler.run_tasks(tasks) == reference
            assert scheduler.pool is not None
            assert scheduler.run_tasks(tasks[::-1]) == reference[::-1]
        finally:
            scheduler.close()

    def test_parallel_pool_results_match_serial(self):
        traces = [burst_trace(seed) for seed in range(3)]
        tasks = [
            SweepTask(trace, StrategySpec.fixed(bound), SMALL)
            for trace in traces
            for bound in (2.0, 3.0, 4.0)
        ]
        serial = SweepRunner(max_workers=1, vector_pack=False).run_tasks(
            tasks
        )
        parallel_runner = SweepRunner(max_workers=2, vector_pack=False)
        try:
            parallel = parallel_runner.run_tasks(tasks)
        finally:
            parallel_runner.close()
        assert parallel == serial


class TestBrokenPool:
    def test_pool_that_fails_mid_batch_is_discarded(self):
        """A pool whose batch raised cannot be trusted with the next one:
        the scheduler shuts it down, re-raises, and the next batch starts
        a fresh pool whose results equal the serial path."""

        class _BrokenPool:
            shut_down = False

            def map(self, *args, **kwargs):
                raise RuntimeError("worker died")

            def shutdown(self, wait=True):
                self.shut_down = True

        scheduler = ProcessPoolScheduler(max_workers=2)
        broken = _BrokenPool()
        scheduler._pool = broken
        tasks = [
            SweepTask(burst_trace(), StrategySpec.fixed(bound), SMALL)
            for bound in (2.0, 3.0)
        ]
        try:
            with pytest.raises(RuntimeError, match="worker died"):
                scheduler.run_tasks(tasks)
            assert broken.shut_down
            assert scheduler.pool is None
            assert scheduler.run_tasks(tasks) == [
                execute_task(task) for task in tasks
            ]
            assert scheduler.pool is not None
        finally:
            scheduler.close()
