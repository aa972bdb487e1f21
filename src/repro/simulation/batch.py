"""Parallel sweep engine with deterministic result caching.

Every headline experiment (the Fig. 9 strategy comparison, the Fig. 10
burst sweep, the Section V-A upper-bound table) re-runs hundreds of
*independent* full simulations.  This module turns those nested Python
loops into declarative batches:

* a :class:`SweepTask` names one run — ``(config, trace, strategy spec)`` —
  in a fully picklable, hashable form;
* a :class:`SweepRunner` dispatches batches through a pluggable
  :class:`~repro.simulation.scheduler.SweepScheduler` backend —
  ``in-process`` (serial reference), ``process-pool`` (persistent
  :class:`~concurrent.futures.ProcessPoolExecutor`), or ``work-queue``
  (a multi-host file/directory queue drained by ``repro sweep-worker``
  processes) — after answering what it can from a shared
  content-addressed :class:`~repro.simulation.store.ArtifactStore` and
  executing compatible fixed-bound tasks on the vector-packed tier
  (:func:`~repro.simulation.packing.vector_pack_tasks`), so repeated
  Oracle searches and upper-bound-table builds are near-free across
  benchmark runs and cold grids run integer factors faster than the
  scalar engine.

Strategies are described by :class:`StrategySpec` rather than live
objects: a spec is plain data (safe to hash and to ship to a worker
process) and is materialised into a real
:class:`~repro.core.strategies.SprintingStrategy` inside the worker.

Environment knobs
-----------------
``REPRO_SWEEP_WORKERS``
    Default worker count for :meth:`SweepRunner.from_env` (falls back to
    ``os.cpu_count()``; an effective count of ``1`` selects the
    in-process backend outright — no pool, no pickling).
``REPRO_SWEEP_CACHE_DIR``
    Cache directory for :meth:`SweepRunner.from_env`; the value ``off``
    disables caching entirely.  Defaults to ``.repro-sweep-cache`` under
    the current working directory.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.strategies import (
    DEFAULT_FLEXIBILITY_PERCENT,
    DEFAULT_MPC_CANDIDATES,
    FixedUpperBoundStrategy,
    GreedyStrategy,
    HeuristicStrategy,
    MPCStrategy,
    OracleStrategy,
    PredictionStrategy,
    SprintingStrategy,
    UpperBoundTable,
    strict_argmax,
)
from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.simulation.batch_facility import vector_oracle_search
from repro.simulation.config import DataCenterConfig, DEFAULT_CONFIG
from repro.simulation.datacenter import build_datacenter
from repro.simulation.engine import (
    DEFAULT_ORACLE_GRID,
    shared_prefix_oracle_search,
    simulate_strategy,
)
from repro.simulation.faults import FaultPlan
from repro.simulation.packing import (
    packed_point_searches as packed_point_searches,
    vector_pack_tasks as vector_pack_tasks,
)
from repro.simulation.scheduler import (
    BACKEND_NAMES as BACKEND_NAMES,
    InProcessScheduler,
    ProcessPoolScheduler,
    SweepScheduler,
    _ShippedSearch as _ShippedSearch,
    _ShippedTask as _ShippedTask,
    _WORKER_FACILITIES as _WORKER_FACILITIES,
    _WORKER_TRACES as _WORKER_TRACES,
    _execute_shipped as _execute_shipped,
    _execute_shipped_search as _execute_shipped_search,
    _facility_for as _facility_for,
    _init_worker as _init_worker,
    _trace_content_key as _trace_content_key,
)
from repro.simulation.store import ArtifactStore
from repro.units import minutes
from repro.workloads.traces import Trace
from repro.workloads.yahoo_trace import generate_yahoo_trace

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.servers.cluster import ServerCluster
    from repro.simulation.metrics import SimulationResult

_LOG = logging.getLogger(__name__)

#: Bump when the cached payload layout (or anything that changes simulated
#: outcomes) changes incompatibly: old entries then miss instead of lying.
#: v2: fault plans join the key, payloads carry a status (ok | failure),
#: and outcomes gained fault telemetry fields.
#: v3: StrategySpec gained the MPC fields (horizon_s, replan_interval_s,
#: candidate_bounds, forecast, violation_penalty_s); the spec canonical
#: form changed shape for every kind, so v2 entries must miss.
CACHE_FORMAT_VERSION = 3

#: Environment variable naming the default worker count.
ENV_WORKERS = "REPRO_SWEEP_WORKERS"

#: Environment variable naming the cache directory (``off`` disables).
ENV_CACHE_DIR = "REPRO_SWEEP_CACHE_DIR"

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIRNAME = ".repro-sweep-cache"


# ---------------------------------------------------------------------------
# Strategy specifications
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StrategySpec:
    """A declarative, picklable description of one sprinting strategy.

    Use the constructors (:meth:`greedy`, :meth:`fixed`, :meth:`prediction`,
    :meth:`heuristic`, :meth:`mpc`) rather than filling fields by hand; :meth:`build`
    materialises the live strategy object inside a worker process.  The
    Heuristic strategy's ``additional_power_fn`` is rebuilt from the
    facility configuration at materialisation time, which is what makes the
    spec picklable where the live strategy is not.
    """

    kind: str
    upper_bound: Optional[float] = None
    predicted_burst_duration_s: Optional[float] = None
    estimated_best_degree: Optional[float] = None
    flexibility_percent: float = DEFAULT_FLEXIBILITY_PERCENT
    max_degree: float = 4.0
    #: Flattened upper-bound table: ((duration_s, degree, bound), ...).
    table_entries: Optional[Tuple[Tuple[float, float, float], ...]] = None
    #: MPC rollout lookahead (seconds); ``None`` for non-MPC kinds.
    horizon_s: Optional[float] = None
    #: MPC re-plan cadence; ``None`` plans once per burst.
    replan_interval_s: Optional[float] = None
    #: MPC candidate bound grid; ``None`` for non-MPC kinds.
    candidate_bounds: Optional[Tuple[float, ...]] = None
    #: MPC forecast mode (``"perfect"`` | ``"predicted"``).
    forecast: Optional[str] = None
    #: MPC safety-event penalty (served-seconds per event).
    violation_penalty_s: Optional[float] = None

    @classmethod
    def greedy(cls) -> "StrategySpec":
        """The unconstrained Greedy strategy."""
        return cls(kind="greedy")

    @classmethod
    def fixed(cls, upper_bound: float) -> "StrategySpec":
        """A constant upper bound (the Oracle's output format)."""
        return cls(kind="fixed", upper_bound=float(upper_bound))

    @classmethod
    def prediction(
        cls,
        table: UpperBoundTable,
        predicted_burst_duration_s: float,
        max_degree: float = 4.0,
    ) -> "StrategySpec":
        """The Prediction strategy, with the table flattened to plain data."""
        entries = tuple(
            (float(d), float(g), float(ub)) for d, g, ub in table.entries()
        )
        return cls(
            kind="prediction",
            predicted_burst_duration_s=float(predicted_burst_duration_s),
            max_degree=float(max_degree),
            table_entries=entries,
        )

    @classmethod
    def heuristic(
        cls,
        estimated_best_degree: float,
        flexibility_percent: float = DEFAULT_FLEXIBILITY_PERCENT,
        max_degree: float = 4.0,
    ) -> "StrategySpec":
        """The Heuristic strategy (power model supplied by the config)."""
        return cls(
            kind="heuristic",
            estimated_best_degree=float(estimated_best_degree),
            flexibility_percent=float(flexibility_percent),
            max_degree=float(max_degree),
        )

    @classmethod
    def mpc(
        cls,
        candidate_bounds: Sequence[float] = DEFAULT_MPC_CANDIDATES,
        horizon_s: float = 600.0,
        replan_interval_s: Optional[float] = None,
        forecast: str = "perfect",
        predicted_burst_duration_s: Optional[float] = None,
        violation_penalty_s: float = 120.0,
        max_degree: float = 4.0,
    ) -> "StrategySpec":
        """The model-predictive strategy (rollout planner bound at run time)."""
        return cls(
            kind="mpc",
            predicted_burst_duration_s=(
                None
                if predicted_burst_duration_s is None
                else float(predicted_burst_duration_s)
            ),
            max_degree=float(max_degree),
            horizon_s=float(horizon_s),
            replan_interval_s=(
                None if replan_interval_s is None else float(replan_interval_s)
            ),
            candidate_bounds=tuple(float(b) for b in candidate_bounds),
            forecast=str(forecast),
            violation_penalty_s=float(violation_penalty_s),
        )

    def build(
        self,
        config: DataCenterConfig,
        cluster: Optional["ServerCluster"] = None,
    ) -> SprintingStrategy:
        """Materialise the live strategy object for ``config``.

        ``cluster`` optionally supplies an already-built facility's server
        cluster so the Heuristic strategy's power model does not rebuild
        the whole substrate; the result is identical (the model is a pure
        function of the configuration).
        """
        if self.kind == "greedy":
            return GreedyStrategy()
        if self.kind == "fixed":
            if self.upper_bound is None:
                raise ConfigurationError("fixed spec needs an upper_bound")
            return FixedUpperBoundStrategy(self.upper_bound)
        if self.kind == "prediction":
            if self.table_entries is None:
                raise ConfigurationError("prediction spec needs table_entries")
            if self.predicted_burst_duration_s is None:
                raise ConfigurationError(
                    "prediction spec needs predicted_burst_duration_s"
                )
            table = UpperBoundTable()
            for duration_s, degree, bound in self.table_entries:
                table.set(duration_s=duration_s, degree=degree, upper_bound=bound)
            return PredictionStrategy(
                table,
                predicted_burst_duration_s=self.predicted_burst_duration_s,
                max_degree=self.max_degree,
            )
        if self.kind == "heuristic":
            if self.estimated_best_degree is None:
                raise ConfigurationError(
                    "heuristic spec needs estimated_best_degree"
                )
            if cluster is None:
                cluster = build_datacenter(config).cluster
            return HeuristicStrategy(
                estimated_best_degree=self.estimated_best_degree,
                additional_power_fn=cluster.additional_power_at_degree_w,
                flexibility_percent=self.flexibility_percent,
                max_degree=self.max_degree,
            )
        if self.kind == "mpc":
            if self.candidate_bounds is None:
                raise ConfigurationError("mpc spec needs candidate_bounds")
            if self.horizon_s is None:
                raise ConfigurationError("mpc spec needs horizon_s")
            if self.forecast is None:
                raise ConfigurationError("mpc spec needs a forecast mode")
            return MPCStrategy(
                candidate_bounds=self.candidate_bounds,
                horizon_s=self.horizon_s,
                replan_interval_s=self.replan_interval_s,
                forecast=self.forecast,
                predicted_burst_duration_s=self.predicted_burst_duration_s,
                violation_penalty_s=(
                    120.0
                    if self.violation_penalty_s is None
                    else self.violation_penalty_s
                ),
                max_degree=self.max_degree,
            )
        raise ConfigurationError(f"unknown strategy spec kind {self.kind!r}")

    def canonical(self) -> Dict:
        """JSON-serialisable canonical form (feeds the cache key)."""
        return {
            "kind": self.kind,
            "upper_bound": self.upper_bound,
            "predicted_burst_duration_s": self.predicted_burst_duration_s,
            "estimated_best_degree": self.estimated_best_degree,
            "flexibility_percent": self.flexibility_percent,
            "max_degree": self.max_degree,
            "table_entries": (
                None
                if self.table_entries is None
                else [list(entry) for entry in self.table_entries]
            ),
            "horizon_s": self.horizon_s,
            "replan_interval_s": self.replan_interval_s,
            "candidate_bounds": (
                None
                if self.candidate_bounds is None
                else [float(b) for b in self.candidate_bounds]
            ),
            "forecast": self.forecast,
            "violation_penalty_s": self.violation_penalty_s,
        }

    @classmethod
    def from_canonical(cls, payload: Dict) -> "StrategySpec":
        """Inverse of :meth:`canonical` (the work-queue wire format).

        Raises :class:`~repro.errors.ConfigurationError` on malformed
        payloads; validity of the *values* is still checked by
        :meth:`build`, exactly as for a locally constructed spec.
        """
        try:
            upper_bound = payload["upper_bound"]
            predicted = payload["predicted_burst_duration_s"]
            estimated = payload["estimated_best_degree"]
            entries = payload["table_entries"]
            horizon = payload["horizon_s"]
            replan = payload["replan_interval_s"]
            cand = payload["candidate_bounds"]
            forecast = payload["forecast"]
            penalty = payload["violation_penalty_s"]
            return cls(
                kind=str(payload["kind"]),
                upper_bound=None if upper_bound is None else float(upper_bound),
                predicted_burst_duration_s=(
                    None if predicted is None else float(predicted)
                ),
                estimated_best_degree=(
                    None if estimated is None else float(estimated)
                ),
                flexibility_percent=float(payload["flexibility_percent"]),
                max_degree=float(payload["max_degree"]),
                table_entries=(
                    None
                    if entries is None
                    else tuple(
                        (float(d), float(g), float(ub))
                        for d, g, ub in entries
                    )
                ),
                horizon_s=None if horizon is None else float(horizon),
                replan_interval_s=None if replan is None else float(replan),
                candidate_bounds=(
                    None if cand is None else tuple(float(b) for b in cand)
                ),
                forecast=None if forecast is None else str(forecast),
                violation_penalty_s=(
                    None if penalty is None else float(penalty)
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed strategy spec payload: {exc}"
            ) from exc


# ---------------------------------------------------------------------------
# Tasks and outcomes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepTask:
    """One independent simulation run, in shippable form."""

    trace: Trace
    spec: StrategySpec
    config: DataCenterConfig = DEFAULT_CONFIG
    fault_plan: Optional[FaultPlan] = None

    def cache_key(self) -> str:
        """Deterministic content hash of everything that shapes the outcome.

        Covers every configuration field, the trace *content* (samples and
        sampling period — the display name is deliberately excluded, it
        cannot influence the dynamics), the full strategy spec, and the
        fault plan (``None`` and the empty plan hash differently from any
        non-trivial plan), plus a format version so stale layouts miss
        instead of lying.
        """
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "config": self.config.to_dict(),
            "trace": {
                "dt_s": self.trace.dt_s,
                "n_samples": len(self.trace),
                "samples_sha256": hashlib.sha256(
                    self.trace.samples.tobytes()
                ).hexdigest(),
            },
            "spec": self.spec.canonical(),
            "fault_plan": (
                None if self.fault_plan is None else self.fault_plan.canonical()
            ),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _search_cache_key(
    trace: Trace,
    candidates: Sequence[float],
    config: DataCenterConfig,
    fault_plan: Optional[FaultPlan],
) -> str:
    """Content hash of one whole Oracle search (one cache entry per search).

    Same coverage discipline as :meth:`SweepTask.cache_key` — config,
    trace content, fault plan, format version — plus the full candidate
    grid: a search over different candidates is a different search, even
    when the winning bound happens to coincide.
    """
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "kind": "oracle_search",
        "config": config.to_dict(),
        "trace": {
            "dt_s": trace.dt_s,
            "n_samples": len(trace),
            "samples_sha256": hashlib.sha256(
                trace.samples.tobytes()
            ).hexdigest(),
        },
        "candidates": [float(c) for c in candidates],
        "fault_plan": (
            None if fault_plan is None else fault_plan.canonical()
        ),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SweepOutcome:
    """The scalar results one sweep consumer needs from one run.

    Deliberately compact — a few floats rather than per-step telemetry —
    so outcomes are cheap to cache, compare bit-for-bit, and ship back
    from worker processes.  Use :func:`repro.simulation.engine.simulate_strategy`
    directly when per-step series are needed.
    """

    strategy_name: str
    average_performance: float
    overall_performance: float
    drop_fraction: float
    peak_degree: float
    sprint_duration_s: float
    #: Mean realised degree over the samples where demand exceeds 1.0
    #: (NaN when the trace never exceeds capacity).
    mean_burst_degree: float
    peak_room_temperature_c: float
    energy_shares: Tuple[Tuple[str, float], ...] = field(default_factory=tuple)
    #: Time at which the run degraded to admission-only (None = never).
    aborted_at_s: Optional[float] = None
    #: Number of fault events applied during the run.
    n_fault_events: int = 0

    @property
    def failed(self) -> bool:
        """A completed run (even a degraded one) is not a failure."""
        return False

    def energy_share(self, source: str) -> float:
        """Energy share of one source (0.0 when absent)."""
        return dict(self.energy_shares).get(source, 0.0)

    def to_dict(self) -> Dict:
        """Plain-JSON form for the on-disk cache."""
        return {
            "strategy_name": self.strategy_name,
            "average_performance": self.average_performance,
            "overall_performance": self.overall_performance,
            "drop_fraction": self.drop_fraction,
            "peak_degree": self.peak_degree,
            "sprint_duration_s": self.sprint_duration_s,
            "mean_burst_degree": self.mean_burst_degree,
            "peak_room_temperature_c": self.peak_room_temperature_c,
            "energy_shares": [list(pair) for pair in self.energy_shares],
            "aborted_at_s": self.aborted_at_s,
            "n_fault_events": self.n_fault_events,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "SweepOutcome":
        """Inverse of :meth:`to_dict`; raises on malformed payloads."""
        shares = tuple(
            (str(name), float(value)) for name, value in payload["energy_shares"]
        )
        aborted = payload["aborted_at_s"]
        return cls(
            strategy_name=str(payload["strategy_name"]),
            average_performance=float(payload["average_performance"]),
            overall_performance=float(payload["overall_performance"]),
            drop_fraction=float(payload["drop_fraction"]),
            peak_degree=float(payload["peak_degree"]),
            sprint_duration_s=float(payload["sprint_duration_s"]),
            mean_burst_degree=float(payload["mean_burst_degree"]),
            peak_room_temperature_c=float(payload["peak_room_temperature_c"]),
            energy_shares=shares,
            aborted_at_s=None if aborted is None else float(aborted),
            n_fault_events=int(payload["n_fault_events"]),
        )


@dataclass(frozen=True)
class RunFailure:
    """A grid point whose simulation raised instead of completing.

    Failed points used to surface as bare ``null``\\ s (or kill the whole
    sweep); a structured record keeps the batch rectangular, caches like
    any outcome, and tells the consumer exactly what went wrong where.
    """

    strategy_name: str
    error_type: str
    message: str
    time_s: Optional[float] = None

    @property
    def failed(self) -> bool:
        """Always True — the counterpart of ``SweepOutcome.failed``."""
        return True

    def to_dict(self) -> Dict:
        """Plain-JSON form for the on-disk cache."""
        return {
            "strategy_name": self.strategy_name,
            "error_type": self.error_type,
            "message": self.message,
            "time_s": self.time_s,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunFailure":
        """Inverse of :meth:`to_dict`; raises on malformed payloads."""
        time_s = payload["time_s"]
        return cls(
            strategy_name=str(payload["strategy_name"]),
            error_type=str(payload["error_type"]),
            message=str(payload["message"]),
            time_s=None if time_s is None else float(time_s),
        )


#: What one grid point yields: a completed outcome or a structured failure.
TaskResult = Union[SweepOutcome, RunFailure]


def _outcome_from_result(result: "SimulationResult") -> SweepOutcome:
    """Reduce one :class:`SimulationResult` to its sweep outcome."""
    demand = result.demand
    degrees = result.degrees
    burst_mask = demand > 1.0
    mean_burst_degree = (
        float(degrees[burst_mask].mean()) if burst_mask.any() else float("nan")
    )
    return SweepOutcome(
        strategy_name=result.strategy_name,
        average_performance=result.average_performance,
        overall_performance=result.overall_performance,
        drop_fraction=result.drop_fraction,
        peak_degree=result.peak_degree,
        sprint_duration_s=result.sprint_duration_s,
        mean_burst_degree=mean_burst_degree,
        peak_room_temperature_c=result.peak_room_temperature_c,
        energy_shares=tuple(sorted(result.energy_shares.items())),
        aborted_at_s=result.aborted_at_s,
        n_fault_events=len(result.fault_events),
    )


def _failure_from_error(task: SweepTask, exc: ReproError) -> RunFailure:
    """Reduce one simulation-level exception to its failure record."""
    return RunFailure(
        strategy_name=task.spec.kind,
        error_type=type(exc).__name__,
        message=str(exc),
        time_s=getattr(exc, "time_s", None),
    )


def execute_task(task: SweepTask) -> TaskResult:
    """Run one task to completion on a fresh facility.

    This is the reference compute path — the serial runner and the
    cache-miss refill call it directly, and the pooled worker path
    (:func:`_execute_shipped`) must stay element-wise identical to it.

    A simulation-level :class:`~repro.errors.ReproError` (a breaker trip
    in an uncovered scenario, a depleted battery, a thermal emergency)
    becomes a structured :class:`RunFailure` instead of propagating, so
    one bad grid point cannot destroy a batch.
    :class:`~repro.errors.ConfigurationError` still raises — a malformed
    task is a programming error, not a simulation outcome.
    """
    try:
        result = simulate_strategy(
            task.trace,
            task.spec.build(task.config),
            task.config,
            fault_plan=task.fault_plan,
        )
    except ConfigurationError:
        raise
    except ReproError as exc:
        return _failure_from_error(task, exc)
    return _outcome_from_result(result)


# ---------------------------------------------------------------------------
# Worker-side search path
# ---------------------------------------------------------------------------
# The pooled worker machinery (_WORKER_TRACES, _ShippedTask, _init_worker,
# _facility_for, _execute_shipped, ...) lives in
# :mod:`repro.simulation.scheduler` and is re-exported above: worker
# functions resolve ``execute_task`` / ``_oracle_point_search`` through
# *this* module at call time, so test doubles installed here apply to
# every backend.


def _oracle_tiers(
    trace: Trace,
    candidates: Sequence[float],
    config: DataCenterConfig,
    fault_plan: Optional[FaultPlan],
    reference: Callable[[], Sequence[float]],
) -> Optional[Tuple[float, float]]:
    """The Oracle search's tier order, one place for every caller.

    Shared-prefix first (it fast-forwards the quiescent prefix), then the
    vector batch when there is no fault plan (fault injection mutates the
    scalar substrate mid-run), then ``reference()``: the caller's
    per-candidate runs, one performance per candidate, NaN for a failed
    run.  Every tier is bit-identical to the per-candidate strict argmax.

    Returns ``(best_bound, best_performance)``, or ``None`` when every
    candidate's run failed (the caller owns the error message).
    """
    try:
        fast = shared_prefix_oracle_search(
            trace, candidates, config, fault_plan=fault_plan
        )
        if fast is None and fault_plan is None:
            fast = vector_oracle_search(trace, candidates, config)
    except SimulationError:
        return None  # both fast tiers raise it when every candidate fails
    if fast is not None:
        return fast
    performances = reference()
    best = strict_argmax(performances)
    if best is None:
        return None
    return float(candidates[best]), performances[best]


def _oracle_point_search(
    trace: Trace,
    candidates: Sequence[float],
    config: DataCenterConfig,
) -> Optional[Tuple[float, float]]:
    """One grid point's Oracle search (:func:`_oracle_tiers`).

    Returns ``(best_bound, best_performance)``, or ``None`` when every
    candidate's run failed.  The reference tier runs each candidate
    through :func:`execute_task`, so its failure semantics (and any test
    doubles installed over ``execute_task``) apply on every backend.
    """

    def reference() -> List[float]:
        return [
            math.nan if outcome.failed else outcome.average_performance
            for outcome in (
                execute_task(
                    SweepTask(trace, StrategySpec.fixed(bound), config)
                )
                for bound in candidates
            )
        ]

    return _oracle_tiers(trace, candidates, config, None, reference)


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------
class SweepRunner:
    """Fan independent simulation runs out over a backend, with caching.

    Parameters
    ----------
    max_workers:
        Process count for pooled batches.  ``1`` (the default) selects
        the in-process backend — the reference serial path every other
        backend is tested against.  ``None`` resolves to
        ``os.cpu_count()``.
    cache_dir:
        Directory for the content-addressed
        :class:`~repro.simulation.store.ArtifactStore`; created on first
        write.  ``None`` disables caching.
    backend:
        One of :data:`~repro.simulation.scheduler.BACKEND_NAMES`
        (``in-process`` | ``process-pool`` | ``work-queue``), or ``None``
        to pick from ``max_workers``.  ``process-pool`` with an effective
        worker count of 1 degrades to ``in-process`` — a one-worker pool
        is pure pickling overhead.
    queue_dir:
        Shared queue directory, required by (and only meaningful for)
        the ``work-queue`` backend.
    lease_timeout_s:
        Work-queue heartbeat staleness threshold before a crashed
        worker's task is reclaimed.
    vector_pack:
        Whether compatible fixed-bound tasks may execute on the packed
        :class:`~repro.core.vector_kernel.VectorStepKernel` tier instead
        of per-task scalar runs (bit-identical either way; disable for
        differential debugging or to pin pool behaviour in tests).

    The store keeps one small JSON file per task, named by the task's
    SHA-256 :meth:`~SweepTask.cache_key`, plus a compact manifest index.
    Corrupt, truncated or key-mismatched files are detected on read and
    silently recomputed (and rewritten).  ``runner.hits`` /
    ``runner.misses`` count cache traffic for reporting.
    """

    def __init__(
        self,
        max_workers: Optional[int] = 1,
        cache_dir: Union[str, "os.PathLike[str]", None] = None,
        backend: Optional[str] = None,
        queue_dir: Union[str, "os.PathLike[str]", None] = None,
        lease_timeout_s: float = 60.0,
        vector_pack: bool = True,
    ) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers!r}"
            )
        self.max_workers = int(max_workers)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.store: Optional[ArtifactStore] = (
            None
            if self.cache_dir is None
            else ArtifactStore(self.cache_dir, CACHE_FORMAT_VERSION)
        )
        self.vector_pack = bool(vector_pack)
        if backend is None:
            backend = "process-pool" if self.max_workers > 1 else "in-process"
        if backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown sweep backend {backend!r}; expected one of "
                f"{', '.join(BACKEND_NAMES)}"
            )
        if backend == "process-pool" and self.max_workers == 1:
            backend = "in-process"
        self._scheduler: SweepScheduler
        if backend == "work-queue":
            if queue_dir is None:
                raise ConfigurationError(
                    "the work-queue backend needs a queue_dir"
                )
            from repro.simulation.workqueue import WorkQueueScheduler

            self._scheduler = WorkQueueScheduler(
                queue_dir, lease_timeout_s=lease_timeout_s
            )
        elif backend == "process-pool":
            self._scheduler = ProcessPoolScheduler(self.max_workers)
        else:
            self._scheduler = InProcessScheduler()
        self.backend = self._scheduler.name
        self.hits = 0
        self.misses = 0
        self._closed = False

    @property
    def _pool(self) -> Optional["ProcessPoolExecutor"]:
        """The backend's live process pool (``None`` for poolless backends).

        Kept as a property so the pool-persistence tests keep observing
        the executor exactly where they always did.
        """
        scheduler = self._scheduler
        if isinstance(scheduler, ProcessPoolScheduler):
            return scheduler.pool
        return None

    @classmethod
    def from_env(cls) -> "SweepRunner":
        """Build a runner from the environment knobs (benchmark default).

        Workers come from ``REPRO_SWEEP_WORKERS`` (default
        ``os.cpu_count()``); an effective count of 1 — a single-core host,
        or an explicit ``REPRO_SWEEP_WORKERS=1`` — selects the in-process
        backend outright, so no pool is ever spawned for serial work.
        Caching defaults to *on* in ``.repro-sweep-cache`` under the
        working directory, and is disabled by
        ``REPRO_SWEEP_CACHE_DIR=off``.
        """
        workers_env = os.environ.get(ENV_WORKERS, "").strip()
        max_workers = int(workers_env) if workers_env else None
        cache_env = os.environ.get(ENV_CACHE_DIR, "").strip()
        if cache_env.lower() in ("off", "0", "none", "disabled"):
            cache_dir: Optional[Path] = None
        elif cache_env:
            cache_dir = Path(cache_env)
        else:
            cache_dir = Path(DEFAULT_CACHE_DIRNAME)
        return cls(max_workers=max_workers, cache_dir=cache_dir)

    # ------------------------------------------------------------------
    # Core batch execution
    # ------------------------------------------------------------------
    def run_tasks(self, tasks: Sequence[SweepTask]) -> List[TaskResult]:
        """Run a batch, preserving input order.

        Cached results are returned without recomputation.  Of the
        remainder, compatible fixed-bound fault-free tasks execute on the
        vector-packed kernel tier (bit-identical to the scalar path, one
        lockstep batch instead of one run per task) unless the backend
        opts out (the work queue ships everything so external workers can
        claim it); whatever is left goes to the scheduler backend.  All
        fresh results are written back to the store.  Failed grid points
        come back as :class:`RunFailure` records (also cached — a
        deterministic failure recomputes exactly as pointlessly as a
        deterministic success), never as ``None``.
        """
        self._ensure_open()
        outcomes: List[Optional[TaskResult]] = [None] * len(tasks)
        pending: List[Tuple[int, SweepTask, str]] = []
        for i, task in enumerate(tasks):
            key = task.cache_key()
            cached = self._cache_load(key)
            if cached is not None:
                self.hits += 1
                outcomes[i] = cached
            else:
                self.misses += 1
                pending.append((i, task, key))

        if pending:
            pending_tasks = [task for _, task, _ in pending]
            computed: List[Optional[TaskResult]] = [None] * len(pending)
            if self.vector_pack and self._scheduler.packs_inline:
                for k, packed in enumerate(vector_pack_tasks(pending_tasks)):
                    computed[k] = packed
            leftover = [k for k in range(len(pending)) if computed[k] is None]
            if leftover:
                scheduled = self._scheduler.run_tasks(
                    [pending_tasks[k] for k in leftover]
                )
                for k, result in zip(leftover, scheduled):
                    computed[k] = result
            for (i, _, key), outcome in zip(pending, computed):
                assert outcome is not None
                outcomes[i] = outcome
                self._cache_store(key, outcome)

        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    def close(self) -> None:
        """Shut down the runner (idempotent).

        Releases the backend's resources (a persistent worker pool for
        ``process-pool``; a no-op for the other backends) and latches the
        runner closed: submitting further work raises
        :class:`~repro.errors.ConfigurationError` instead of a pool
        error.  Runners also work as context managers —
        ``with SweepRunner(...) as runner:`` closes on exit.
        """
        self._closed = True
        self._scheduler.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "this SweepRunner is closed; create a new runner to "
                "submit more work"
            )

    def __enter__(self) -> "SweepRunner":
        self._ensure_open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - shutdown best effort
        try:
            self.close()
        except (AttributeError, OSError, RuntimeError) as exc:
            # AttributeError: a runner whose __init__ raised never set
            # _pool; OSError/RuntimeError: during interpreter shutdown the
            # executor machinery may already be torn down.  Either way
            # there is nothing left to clean up.
            _LOG.debug("pool shutdown in __del__ failed: %s", exc)

    def simulate(
        self,
        trace: Trace,
        spec: StrategySpec,
        config: DataCenterConfig = DEFAULT_CONFIG,
        fault_plan: Optional[FaultPlan] = None,
    ) -> TaskResult:
        """Run (or recall) a single task."""
        return self.run_tasks([SweepTask(trace, spec, config, fault_plan)])[0]

    # ------------------------------------------------------------------
    # The paper's sweeps, batched
    # ------------------------------------------------------------------
    def evaluate_upper_bounds(
        self,
        trace: Trace,
        bounds: Sequence[float],
        config: DataCenterConfig = DEFAULT_CONFIG,
        fault_plan: Optional[FaultPlan] = None,
    ) -> List[float]:
        """Average performance of each constant upper bound on ``trace``.

        A bound whose run failed maps to NaN (not 0.0 — a failure is not
        a measured performance of zero).
        """
        tasks = [
            SweepTask(trace, StrategySpec.fixed(bound), config, fault_plan)
            for bound in bounds
        ]
        return [
            float("nan") if result.failed else result.average_performance
            for result in self.run_tasks(tasks)
        ]

    def oracle_search(
        self,
        trace: Trace,
        candidates: Sequence[float] = DEFAULT_ORACLE_GRID,
        config: DataCenterConfig = DEFAULT_CONFIG,
        fault_plan: Optional[FaultPlan] = None,
    ) -> OracleStrategy:
        """Exhaustive Oracle search (Section V-A), batched.

        Ties break towards the earlier candidate — the strict
        ``perf > best_perf`` argmax keeps the lowest winning bound, exactly
        like the serial :func:`repro.core.strategies.oracle_search` — so
        the result is independent of worker count and of the compute path.

        The search runs through the Oracle tiers (:func:`_oracle_tiers`:
        shared-prefix, then the vector batch for no-fault searches, then
        :meth:`evaluate_upper_bounds` per candidate); all paths produce
        bit-identical results.  With a cache directory, the whole search
        caches as *one* entry (a warm search is one file read, one hit),
        rather than one entry per candidate.
        """
        self._ensure_open()
        if not candidates:
            raise ConfigurationError("candidates must be non-empty")
        key = _search_cache_key(trace, candidates, config, fault_plan)
        cached = self._search_cache_load(key)
        if cached is not None:
            self.hits += 1
            return OracleStrategy(cached[0], achieved_performance=cached[1])
        lookups = self.hits + self.misses
        found = _oracle_tiers(
            trace,
            candidates,
            config,
            fault_plan,
            lambda: self.evaluate_upper_bounds(
                trace, candidates, config, fault_plan
            ),
        )
        if found is None:
            raise SimulationError(
                "oracle search failed: every candidate upper bound's run "
                f"failed on trace {trace.name!r}"
            )
        if self.hits + self.misses == lookups:
            # A fast tier answered without per-candidate cache lookups:
            # the whole search is one miss.
            self.misses += 1
        self._search_cache_store(key, found[0], found[1])
        return OracleStrategy(found[0], achieved_performance=found[1])

    def build_upper_bound_table(
        self,
        config: DataCenterConfig = DEFAULT_CONFIG,
        burst_durations_min: Sequence[float] = (1.0, 5.0, 10.0, 15.0),
        burst_degrees: Sequence[float] = (2.6, 2.8, 3.0, 3.2, 3.4, 3.6),
        candidates: Sequence[float] = DEFAULT_ORACLE_GRID,
        trace_factory: Optional[Callable[[float, float], Trace]] = None,
    ) -> UpperBoundTable:
        """Pre-compute the Oracle upper-bound table (Section V-A), batched.

        Each grid point runs as one shared-prefix Oracle search
        (:func:`_oracle_point_search`); with multiple workers the points
        fan out over the persistent pool, one search per point, and with a
        cache directory each point caches as one search entry.  The
        per-point strict argmax matches the serial search's tie-breaking,
        so the table is independent of worker count and compute path.
        """
        self._ensure_open()
        if not candidates:
            raise ConfigurationError("candidates must be non-empty")
        factory = trace_factory or (
            lambda degree, duration_min: generate_yahoo_trace(
                burst_degree=degree, burst_duration_min=duration_min
            )
        )
        points = [
            (duration_min, degree)
            for duration_min in burst_durations_min
            for degree in burst_degrees
        ]
        traces = {point: factory(point[1], point[0]) for point in points}
        cand = tuple(float(c) for c in candidates)

        results: List[Optional[Tuple[float, float]]] = [None] * len(points)
        keys: List[str] = []
        pending: List[int] = []
        for p, point in enumerate(points):
            key = _search_cache_key(traces[point], cand, config, None)
            keys.append(key)
            cached = self._search_cache_load(key)
            if cached is not None:
                self.hits += 1
                results[p] = cached
            else:
                self.misses += 1
                pending.append(p)
        if pending:
            computed = self._run_point_searches(
                [traces[points[p]] for p in pending], cand, config
            )
            for p, found in zip(pending, computed):
                if found is not None:
                    results[p] = found
                    self._search_cache_store(keys[p], found[0], found[1])

        table = UpperBoundTable()
        for p, (duration_min, degree) in enumerate(points):
            found = results[p]
            if found is None:
                raise SimulationError(
                    "upper-bound table: every candidate failed at grid "
                    f"point (duration={duration_min:g} min, "
                    f"degree={degree:g})"
                )
            table.set(
                duration_s=minutes(duration_min),
                degree=degree,
                upper_bound=found[0],
            )
        return table

    def _run_point_searches(
        self,
        point_traces: Sequence[Trace],
        candidates: Tuple[float, ...],
        config: DataCenterConfig,
    ) -> List[Optional[Tuple[float, float]]]:
        """Run the uncached grid-point searches, packed when possible.

        The vector-packed tier fuses the whole table build (every point x
        every candidate) into few kernel batches; when it declines
        (incompatible traces) the searches go to the scheduler
        backend, which keeps the per-point strict argmax semantics.
        """
        if self.vector_pack and self._scheduler.packs_inline:
            packed = packed_point_searches(point_traces, candidates, config)
            if packed is not None:
                return packed
        return self._scheduler.run_point_searches(
            point_traces, candidates, config
        )

    # ------------------------------------------------------------------
    # The shared artifact store (content-addressed result cache)
    # ------------------------------------------------------------------
    def _cache_path(self, key: str) -> Optional[Path]:
        if self.store is None:
            return None
        return self.store.path_for(key)

    def _cache_load(self, key: str) -> Optional[TaskResult]:
        """Load one cached result; any malformed entry reads as a miss.

        Entries carry a ``status``: ``"ok"`` payloads decode to a
        :class:`SweepOutcome`, ``"failure"`` payloads to a
        :class:`RunFailure` (failures are as deterministic as successes,
        so they cache identically).  Envelope validation (version, key
        echo) lives in :class:`~repro.simulation.store.ArtifactStore`.
        """
        if self.store is None:
            return None
        payload = self.store.load_payload(key)
        if payload is None:
            return None
        try:
            if payload["status"] == "failure":
                return RunFailure.from_dict(payload["outcome"])
            if payload["status"] != "ok":
                return None
            return SweepOutcome.from_dict(payload["outcome"])
        except (ValueError, KeyError, TypeError):
            # Tampered fields, wrong types: recompute.
            return None

    def _search_cache_load(self, key: str) -> Optional[Tuple[float, float]]:
        """Load one cached Oracle-search result (bound, performance).

        Search entries carry status ``"search"`` so a per-task entry can
        never decode as a search (and vice versa); anything malformed
        reads as a miss, exactly like :meth:`_cache_load`.
        """
        if self.store is None:
            return None
        payload = self.store.load_payload(key)
        if payload is None or payload["status"] != "search":
            return None
        try:
            outcome = payload["outcome"]
            return (
                float(outcome["upper_bound"]),
                float(outcome["achieved_performance"]),
            )
        except (ValueError, KeyError, TypeError):
            return None

    def _search_cache_store(
        self, key: str, upper_bound: float, performance: float
    ) -> None:
        """Atomically persist one Oracle-search result."""
        if self.store is None:
            return
        self.store.store_payload(
            key,
            {
                "version": CACHE_FORMAT_VERSION,
                "key": key,
                "status": "search",
                "outcome": {
                    "upper_bound": upper_bound,
                    "achieved_performance": performance,
                },
            },
        )

    def _cache_store(self, key: str, outcome: TaskResult) -> None:
        """Atomically persist one result (write-to-temp + rename)."""
        if self.store is None:
            return
        self.store.store_payload(
            key,
            {
                "version": CACHE_FORMAT_VERSION,
                "key": key,
                "status": "failure" if outcome.failed else "ok",
                "outcome": outcome.to_dict(),
            },
        )


def config_fields() -> Tuple[str, ...]:
    """Names of every :class:`DataCenterConfig` field (cache-key surface).

    Exposed so the key-coverage property tests can insist that adding a
    configuration field comes with a matching perturbation case.
    """
    return tuple(f.name for f in fields(DataCenterConfig))
