"""Pluggable sweep-execution backends behind one scheduler interface.

:class:`SweepScheduler` is the seam :class:`~repro.simulation.batch.SweepRunner`
dispatches uncached work through.  Three backends implement it:

* :class:`InProcessScheduler` — strictly serial, zero IPC; the reference
  path every other backend is checked against, and the right choice on a
  single-core host (no pickling overhead for no parallelism);
* :class:`ProcessPoolScheduler` — the persistent
  :class:`~concurrent.futures.ProcessPoolExecutor` path extracted from
  ``SweepRunner``: one pool per scheduler, started on first use and kept
  until :meth:`~SweepScheduler.close`; tasks travel to the workers with
  their traces, and workers cache one facility per configuration;
* :class:`~repro.simulation.workqueue.WorkQueueScheduler` — a multi-host
  file/directory work queue (atomically-claimed task files + heartbeat
  leases) drained by any number of ``repro sweep-worker`` processes.

Every backend must produce results element-wise identical to
:func:`repro.simulation.batch.execute_task`; the parametrized backend
suite in ``tests/simulation/test_backends.py`` pins that contract.

This module is on the determinism hot-path list: scheduling decides only
*where* a task runs, never *what* it computes, so nothing here may read a
wall clock or entropy source.  (The work-queue backend needs wall-clock
leases, which is exactly why it lives in its own module off the hot list.)

Worker-side entry points (:func:`_execute_in_worker`,
:func:`_search_in_worker`) look their batch helpers (``_oracle_point_search``
and the result converters) up through :mod:`repro.simulation.batch` at
call time, so test doubles installed over the batch module's names apply
to every backend uniformly.
"""

from __future__ import annotations

import json
import logging
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import DataCenter, build_datacenter
from repro.workloads.traces import Trace

if TYPE_CHECKING:
    from repro.simulation.batch import SweepTask, TaskResult

_LOG = logging.getLogger(__name__)
_R = TypeVar("_R")

#: The selectable backend names (``repro sweep --backend``).
BACKEND_NAMES = ("in-process", "process-pool", "work-queue")


# ---------------------------------------------------------------------------
# Worker-side machinery (shared by the pool backend and its tests)
# ---------------------------------------------------------------------------
# Per-worker facility cache, filled by the first task to need a given
# configuration and kept for the life of the pool.  Rebuilding the
# substrate once per configuration (instead of once per run) is what makes
# warm sweeps cheap; ``run_simulation`` resets the substrate and the fault
# injector restores mutated ratings, so facility reuse is outcome-neutral.
_WORKER_FACILITIES: Dict[str, DataCenter] = {}


def _facility_for(config: DataCenterConfig) -> DataCenter:
    """This worker's cached facility for ``config`` (built on first use)."""
    key = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    datacenter = _WORKER_FACILITIES.get(key)
    if datacenter is None:
        datacenter = build_datacenter(config)
        _WORKER_FACILITIES[key] = datacenter
    return datacenter


def _execute_in_worker(task: "SweepTask") -> "TaskResult":
    """Worker-process entry point: run one task on the cached facility.

    Must produce results element-wise identical to
    :func:`repro.simulation.batch.execute_task`: the facility is reset
    before every run and the strategy is rebuilt per task, so only the
    construction cost is amortised, not any state.
    """
    from repro.errors import ConfigurationError, ReproError
    from repro.simulation import batch as _batch
    from repro.simulation.engine import run_simulation

    datacenter = _facility_for(task.config)
    try:
        result = run_simulation(
            datacenter,
            task.trace,
            task.spec.build(task.config, cluster=datacenter.cluster),
            fault_plan=task.fault_plan,
        )
    except ConfigurationError:
        raise
    except ReproError as exc:
        return _batch._failure_from_error(task, exc)
    return _batch._outcome_from_result(result)


def _search_in_worker(
    trace: Trace, candidates: Tuple[float, ...], config: DataCenterConfig
) -> Optional[Tuple[float, float]]:
    """Worker-process entry point: one grid point's Oracle search."""
    from repro.simulation import batch as _batch

    return _batch._oracle_point_search(trace, candidates, config)


# ---------------------------------------------------------------------------
# The scheduler interface
# ---------------------------------------------------------------------------
class SweepScheduler(ABC):
    """Where uncached sweep work runs; never what it computes.

    Implementations receive only the tasks the runner could not answer
    from the artifact store, and must return results element-wise
    identical to the serial reference path
    (:func:`repro.simulation.batch.execute_task` /
    :func:`repro.simulation.batch._oracle_point_search`) in input order.
    """

    #: Backend name (one of :data:`BACKEND_NAMES`).
    name: str = "abstract"

    #: Whether the runner may execute vector-packable tasks inline before
    #: dispatching the remainder to this backend.  The work-queue backend
    #: opts out: its whole point is shipping every task through the shared
    #: queue so external workers can claim them.
    packs_inline: bool = True

    @abstractmethod
    def run_tasks(self, tasks: Sequence["SweepTask"]) -> List["TaskResult"]:
        """Execute ``tasks``, preserving input order."""

    @abstractmethod
    def run_point_searches(
        self,
        point_traces: Sequence[Trace],
        candidates: Tuple[float, ...],
        config: DataCenterConfig,
    ) -> List[Optional[Tuple[float, float]]]:
        """One Oracle search per trace; ``None`` where every candidate
        failed."""

    def close(self) -> None:
        """Release backend resources (idempotent); default is a no-op."""


class InProcessScheduler(SweepScheduler):
    """Strictly serial in-process execution — the reference backend.

    Zero processes, zero pickling: the right choice for debugging, for
    single-core hosts, and as the identity baseline the parallel backends
    are differenced against.
    """

    name = "in-process"

    def run_tasks(self, tasks: Sequence["SweepTask"]) -> List["TaskResult"]:
        from repro.simulation import batch as _batch

        return [_batch.execute_task(task) for task in tasks]

    def run_point_searches(
        self,
        point_traces: Sequence[Trace],
        candidates: Tuple[float, ...],
        config: DataCenterConfig,
    ) -> List[Optional[Tuple[float, float]]]:
        from repro.simulation import batch as _batch

        return [
            _batch._oracle_point_search(trace, candidates, config)
            for trace in point_traces
        ]


class ProcessPoolScheduler(SweepScheduler):
    """The persistent process-pool path, extracted from ``SweepRunner``.

    The pool starts on the first parallel batch and lives until
    :meth:`close`.  Each task or point search travels to a worker with its
    trace, so a batch with traces the workers have never seen runs on the
    same pool; workers keep one facility per configuration across
    batches.  Task submissions are chunked so the IPC round-trips scale
    with the worker count, not the task count.  A pool that breaks
    mid-batch is discarded and the next batch starts a fresh one.  A
    batch of one task runs in-process — a pool round-trip cannot pay for
    itself.
    """

    name = "process-pool"

    def __init__(self, max_workers: int) -> None:
        from repro.errors import ConfigurationError

        if max_workers < 2:
            raise ConfigurationError(
                "ProcessPoolScheduler needs max_workers >= 2; use "
                "InProcessScheduler for serial execution"
            )
        self.max_workers = int(max_workers)
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def pool(self) -> Optional[ProcessPoolExecutor]:
        """The live executor (``None`` until first parallel batch)."""
        return self._pool

    def run_tasks(self, tasks: Sequence["SweepTask"]) -> List["TaskResult"]:
        from repro.simulation import batch as _batch

        if len(tasks) < 2:
            return [_batch.execute_task(task) for task in tasks]
        chunksize = max(1, len(tasks) // (self.max_workers * 4))
        return self._map(_execute_in_worker, tasks, chunksize=chunksize)

    def run_point_searches(
        self,
        point_traces: Sequence[Trace],
        candidates: Tuple[float, ...],
        config: DataCenterConfig,
    ) -> List[Optional[Tuple[float, float]]]:
        from repro.simulation import batch as _batch

        if len(point_traces) < 2:
            return [
                _batch._oracle_point_search(trace, candidates, config)
                for trace in point_traces
            ]
        n = len(point_traces)
        return self._map(
            _search_in_worker, point_traces, [candidates] * n, [config] * n
        )

    def _map(
        self,
        fn: Callable[..., _R],
        *iterables: Sequence[Any],
        chunksize: int = 1,
    ) -> List[_R]:
        """``fn`` over ``iterables`` on the pool, started on first use."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        try:
            return list(self._pool.map(fn, *iterables, chunksize=chunksize))
        except Exception:
            # A broken pool (killed worker, unpicklable crash) cannot be
            # reused; drop it so the next batch starts a fresh one.
            _LOG.debug(
                "sweep pool failed mid-batch; discarding it", exc_info=True
            )
            self.close()
            raise

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
