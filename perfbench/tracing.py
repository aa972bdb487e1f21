"""Span tracing from the benchmark's own files.

The program is not instrumented.  Instead :class:`Patcher` swaps wrappers
in for the public functions and methods listed in :data:`LAYERS`, each
wrapper records one span per call (name, start, end, parent span, task
id) into :class:`Tracer`'s in-memory columns, and :meth:`Patcher.restore`
puts every original object back.  A function imported by name into other
modules (``from repro.simulation.engine import shared_prefix_oracle_search``)
is patched in every ``repro`` module that holds it, because the caller
looks the name up in its own module.

Self time is a span's duration minus the part of it its child spans
cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

After = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """In-memory span columns plus named counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.task = array("q")
        self.counters: Dict[str, float] = defaultdict(float)
        self.task_id = -1
        self._stack: List[int] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "task": np.frombuffer(self.task, dtype=np.int64).copy(),
        }


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from synchronous calls, so siblings never overlap and the
    covered time is the sum of the children's durations, whether they are
    nested deeper or run back to back.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - covered


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------
class Patcher:
    """Swaps attributes and remembers how to put every one of them back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, bool, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def wrap_function(self, module: str, name: str, make: Callable[[Any], Any]) -> None:
        """Replace ``module.name`` and every ``repro`` module's binding of
        the same object."""
        original = getattr(importlib.import_module(module), name)
        replacement = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if vars(mod).get(name) is original:
                self.set(mod, name, replacement)

    def wrap_method(self, module: str, qualname: str, make: Callable[[Any], Any]) -> None:
        """Replace a method on its class, keeping classmethod-ness."""
        cls_name, attr = qualname.rsplit(".", 1)
        cls = getattr(importlib.import_module(module), cls_name)
        static = inspect.getattr_static(cls, attr)
        if isinstance(static, classmethod):
            self.set(cls, attr, classmethod(make(static.__func__)))
        else:
            self.set(cls, attr, make(static))


def span_wrapper(tracer: Tracer, name: str, after: Optional[After] = None) -> Callable[[Any], Any]:
    name_id = tracer.intern(name)

    def make(fn: Any) -> Any:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    return make


def count_wrapper(tracer: Tracer, after: After) -> Callable[[Any], Any]:
    """A wrapper that records no span, only feeds ``after``."""

    def make(fn: Any) -> Any:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            after(tracer, args, kwargs, result)
            return result

        return wrapper

    return make


# ---------------------------------------------------------------------------
# The layers
# ---------------------------------------------------------------------------
def _count(key: str, value: Callable[[tuple, dict, Any], float]) -> After:
    def after(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counters[key] += value(args, kwargs, result)

    return after


def _run_simulation_after(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    plan = kwargs.get("fault_plan", args[3] if len(args) > 3 else None)
    if plan is not None:
        tracer.counters["faulted_runs"] += 1
        tracer.counters["degraded_runs"] += result.aborted_at_s is not None


def _extend_cycle_rows(args: tuple, kwargs: dict, result: Any) -> float:
    steps = args[1]
    repeats = kwargs.get("repeats", args[2] if len(args) > 2 else 0)
    return float(len(steps) * repeats)


def _horizon_after(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["last_horizon"] = float(len(result))


def _plan_after(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["rollout_steps"] += tracer.counters["last_horizon"] * len(args[0].last_scores)


def _fallback(key: str) -> After:
    return _count(key, lambda a, k, r: float(r is None))


def _pack_after(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["pack_tasks"] += len(result)
    tracer.counters["pack_packed"] += sum(r is not None for r in result)


@dataclass(frozen=True)
class Layer:
    """One wrapped program entry point.

    ``target`` is ``module:function`` or ``module:Class.method``; ``name``
    is the span name (``None`` records no span, only ``after``).
    """

    target: str
    name: Optional[str]
    after: Optional[After] = None


LAYERS: Tuple[Layer, ...] = (
    Layer("repro.simulation.datacenter:build_datacenter", "simulation.datacenter.build"),
    Layer("repro.simulation.datacenter:DataCenter.reset", "simulation.datacenter.reset"),
    Layer("repro.simulation.engine:run_simulation", "simulation.engine.run_simulation", _run_simulation_after),
    Layer("repro.core.kernel:StepKernel.run_trace", "core.kernel.run_trace",
          _count("run_trace_steps", lambda a, k, r: float(len(a[2])))),
    Layer("repro.core.steplog:StepLog.extend_cycle", "core.steplog.extend_cycle",
          _count("replayed_rows", _extend_cycle_rows)),
    Layer("repro.core.controller:SprintingController.step", "core.controller.step"),
    Layer("repro.core.controller:SprintingController.degraded_step", "core.controller.degraded_step"),
    Layer("repro.simulation.faults:FaultInjector.apply_due", "simulation.faults.apply_due",
          _count("events_applied", lambda a, k, r: float(len(r)))),
    Layer("repro.simulation.scenarios:run_with_utility_events", "simulation.scenarios.run_with_utility_events"),
    Layer("repro.simulation.rollout:PerfectForecast.horizon_demands", None, _horizon_after),
    Layer("repro.simulation.rollout:PredictedBurstForecast.horizon_demands", None, _horizon_after),
    Layer("repro.simulation.rollout:RolloutPlanner.plan", "simulation.rollout.plan", _plan_after),
    Layer("repro.simulation.snapshot:FacilityState.capture", "simulation.snapshot.capture"),
    Layer("repro.simulation.snapshot:FacilityState.restore", "simulation.snapshot.restore"),
    Layer("repro.core.vector_kernel:VectorStepKernel.step", "core.vector_kernel.step",
          _count("vector_lanes", lambda a, k, r: float(a[0].n))),
    Layer("repro.simulation.engine:shared_prefix_oracle_search",
          "simulation.engine.shared_prefix_oracle_search", _fallback("shared_prefix_fallbacks")),
    Layer("repro.simulation.batch_facility:vector_oracle_search",
          "simulation.batch_facility.vector_oracle_search", _fallback("vector_oracle_fallbacks")),
    Layer("repro.simulation.batch:SweepRunner.evaluate_upper_bounds", "simulation.batch.evaluate_upper_bounds"),
    Layer("repro.simulation.packing:vector_pack_tasks", "simulation.packing.vector_pack_tasks", _pack_after),
    Layer("repro.simulation.packing:packed_point_searches", "simulation.packing.packed_point_searches"),
    Layer("repro.simulation.scheduler:InProcessScheduler.run_tasks", "simulation.scheduler.run_tasks"),
    Layer("repro.simulation.scheduler:ProcessPoolScheduler.run_tasks", "simulation.scheduler.run_tasks"),
    Layer("repro.simulation.scheduler:InProcessScheduler.run_point_searches",
          "simulation.scheduler.run_point_searches"),
    Layer("repro.simulation.scheduler:ProcessPoolScheduler.run_point_searches",
          "simulation.scheduler.run_point_searches"),
    Layer("repro.simulation.store:ArtifactStore.load_payload", "simulation.store.load_payload"),
    Layer("repro.simulation.store:ArtifactStore.store_payload", "simulation.store.store_payload"),
)


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Patch every layer in :data:`LAYERS`, plus the pool-start counter."""
    for layer in LAYERS:
        module, target = layer.target.split(":")
        if layer.name is None:
            assert layer.after is not None
            make = count_wrapper(tracer, layer.after)
        else:
            make = span_wrapper(tracer, layer.name, layer.after)
        if "." in target:
            patcher.wrap_method(module, target, make)
        else:
            patcher.wrap_function(module, target, make)

    def counting_pool(pool_cls: Any) -> Any:
        class CountingPool(pool_cls):  # type: ignore[misc, valid-type]
            def __init__(self, *args: Any, **kwargs: Any) -> None:
                tracer.counters["pool_starts"] += 1
                super().__init__(*args, **kwargs)

        return CountingPool

    patcher.wrap_function("repro.simulation.scheduler", "ProcessPoolExecutor", counting_pool)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
def _calls_self(name: str) -> Tuple[Tuple[str, str], ...]:
    return ((f"{name}.calls", "count"), (f"{name}.self_ms", "ms"))


#: Every per-layer metric of a traced run, with its unit, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("workloads.traces.spans_per_sample", "ratio"),
    ("workloads.traces.ff_coverage", "ratio"),
    ("simulation.datacenter.build.self_ms", "ms"),
    ("simulation.datacenter.reset.self_ms", "ms"),
    ("simulation.engine.run_simulation.self_ms", "ms"),
    *_calls_self("core.kernel.run_trace"),
    ("core.kernel.run_trace.steps", "count"),
    ("core.steplog.extend_cycle.calls", "count"),
    ("core.steplog.replayed_frac", "ratio"),
    *_calls_self("core.controller.step"),
    *_calls_self("core.controller.degraded_step"),
    *_calls_self("simulation.faults.apply_due"),
    ("simulation.faults.events_applied", "count"),
    ("simulation.faults.degraded_frac", "ratio"),
    *_calls_self("simulation.scenarios.run_with_utility_events"),
    *_calls_self("simulation.rollout.plan"),
    ("simulation.rollout.rollout_steps", "count"),
    *_calls_self("simulation.snapshot.capture"),
    *_calls_self("simulation.snapshot.restore"),
    *_calls_self("core.vector_kernel.step"),
    ("core.vector_kernel.step.mean_width", "lanes"),
    ("core.vector_kernel.step.lane_steps_per_s", "1/s"),
    *_calls_self("simulation.engine.shared_prefix_oracle_search"),
    ("simulation.engine.shared_prefix_oracle_search.fallback_frac", "ratio"),
    *_calls_self("simulation.batch_facility.vector_oracle_search"),
    ("simulation.batch_facility.vector_oracle_search.fallback_frac", "ratio"),
    *_calls_self("simulation.batch.evaluate_upper_bounds"),
    ("simulation.batch.hit_frac", "ratio"),
    *_calls_self("simulation.packing.vector_pack_tasks"),
    ("simulation.packing.vector_pack_tasks.packed_frac", "ratio"),
    *_calls_self("simulation.packing.packed_point_searches"),
    ("simulation.scheduler.run_tasks.self_ms", "ms"),
    ("simulation.scheduler.run_point_searches.self_ms", "ms"),
    ("simulation.scheduler.pool_starts", "count"),
    *_calls_self("simulation.store.load_payload"),
    *_calls_self("simulation.store.store_payload"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def summarize(
    tracer: Tracer,
    traced_task_s: float,
    untraced_task_s: float,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer values for every name in :data:`PER_LAYER`.

    ``traced_task_s`` / ``untraced_task_s`` are the summed task times of
    the traced and untraced passes over the same tasks; ``extra`` carries
    the values the workload measures itself (span statistics of its
    inputs, the runner's cache hit fraction).  A layer the workload never
    reached reads 0.
    """
    cols = tracer.arrays()
    own = self_times(cols["start"], cols["end"], cols["parent"])
    n_names = len(tracer.names)
    calls = np.bincount(cols["name_id"], minlength=n_names)
    self_s = np.bincount(cols["name_id"], weights=own, minlength=n_names)
    top = cols["parent"] < 0
    attributed = float(np.sum(cols["end"][top] - cols["start"][top]))
    c = tracer.counters

    values: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for i, name in enumerate(tracer.names):
        if f"{name}.calls" in values:
            values[f"{name}.calls"] = float(calls[i])
        if f"{name}.self_ms" in values:
            values[f"{name}.self_ms"] = float(self_s[i]) * 1e3
    vector_self_s = values["core.vector_kernel.step.self_ms"] / 1e3
    values.update(
        {
            "core.kernel.run_trace.steps": c["run_trace_steps"],
            "core.steplog.replayed_frac": _ratio(c["replayed_rows"], c["run_trace_steps"]),
            "simulation.faults.events_applied": c["events_applied"],
            "simulation.faults.degraded_frac": _ratio(c["degraded_runs"], c["faulted_runs"]),
            "simulation.rollout.rollout_steps": c["rollout_steps"],
            "core.vector_kernel.step.mean_width": _ratio(
                c["vector_lanes"], values["core.vector_kernel.step.calls"]
            ),
            "core.vector_kernel.step.lane_steps_per_s": _ratio(c["vector_lanes"], vector_self_s),
            "simulation.engine.shared_prefix_oracle_search.fallback_frac": _ratio(
                c["shared_prefix_fallbacks"],
                values["simulation.engine.shared_prefix_oracle_search.calls"],
            ),
            "simulation.batch_facility.vector_oracle_search.fallback_frac": _ratio(
                c["vector_oracle_fallbacks"],
                values["simulation.batch_facility.vector_oracle_search.calls"],
            ),
            "simulation.packing.vector_pack_tasks.packed_frac": _ratio(
                c["pack_packed"], c["pack_tasks"]
            ),
            "simulation.scheduler.pool_starts": c["pool_starts"],
            "trace.unattributed_ms": (traced_task_s - attributed) * 1e3,
            "trace.overhead_ratio": _ratio(traced_task_s, untraced_task_s),
        }
    )
    values.update(extra)
    return values
