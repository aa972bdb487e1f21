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
  their traces;
* :class:`~repro.simulation.workqueue.WorkQueueScheduler` — a multi-host
  file/directory work queue (atomically-claimed task files + heartbeat
  leases) drained by any number of ``repro sweep-worker`` processes.

Every backend runs the same two functions,
:func:`repro.simulation.batch.execute_task` per task and
:func:`repro.simulation.batch._oracle_point_search` per grid point, so
only *where* they run differs; the parametrized backend suite in
``tests/simulation/test_backends.py`` pins that contract.

This module is on the determinism hot-path list: scheduling decides only
*where* a task runs, never *what* it computes, so nothing here may read a
wall clock or entropy source.  (The work-queue backend needs wall-clock
leases, which is exactly why it lives in its own module off the hot list.)
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.simulation.config import DataCenterConfig
from repro.workloads.traces import Trace

if TYPE_CHECKING:
    from repro.simulation.batch import SweepTask, TaskResult

_LOG = logging.getLogger(__name__)
_R = TypeVar("_R")

#: The selectable backend names (``repro sweep --backend``).
BACKEND_NAMES = ("in-process", "process-pool", "work-queue")


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
    same pool.  Task submissions are chunked so the IPC round-trips scale
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
        return self._map(_batch.execute_task, tasks, chunksize=chunksize)

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
            _batch._oracle_point_search,
            point_traces,
            [candidates] * n,
            [config] * n,
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
