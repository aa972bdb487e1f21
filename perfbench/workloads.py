"""The workloads: what each task asks of the program, and the checks.

Each workload turns the seeded inputs of :mod:`perfbench.inputs` into
program objects (:meth:`Workload.make`, untimed), issues one task
(:meth:`Workload.run`, timed), reduces the answer to a digest of its
simulated content (:meth:`Workload.digest`), and re-checks a seeded
sample of answers against an independent computation
(:meth:`Workload.check`, untimed).

A modelled outcome is an answer, not a failure: a fixed bound that trips a
breaker in a fault-free run raises a ``ReproError``, which is recorded as
``("error", type, message)`` and checked like any other answer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import inputs
from perfbench.inputs import DT_S, RunInput, StrategyInput, SweepInput
from perfbench.tracing import Patcher

from repro.core.controller import ControlStep
from repro.core.strategies import (
    FixedUpperBoundStrategy,
    GreedyStrategy,
    HeuristicStrategy,
    MPCStrategy,
    SprintingStrategy,
)
from repro.errors import ReproError
from repro.power.utility import UtilityEvent, UtilityEventKind
from repro.simulation.batch import StrategySpec, SweepRunner, SweepTask
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import DataCenter, build_datacenter
from repro.simulation.faults import FaultPlan
from repro.simulation.metrics import SimulationResult
from repro.workloads.traces import Trace

# Program entry points are called through their modules, so the traced run's
# wrappers (which replace module attributes) see the benchmark's own calls.
from repro.simulation import engine, scenarios

#: The two-PDU facility of the MPC matrix benchmark: the same control
#: behaviour at a fraction of the substrate cost.
SMALL_CONFIG = DataCenterConfig(n_pdus=2, servers_per_pdu=50)

#: Float-valued ControlStep fields, i.e. the numeric StepLog columns.
_COLUMNS = tuple(
    f.name for f in fields(ControlStep) if f.name not in ("phase", "in_burst")
)


@dataclass
class Task:
    """One generated task: its inputs, the program objects built from
    them, and the simulated seconds it asks for."""

    index: int
    spec: Any
    objects: Dict[str, Any]
    sim_s: float


def _hash(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _error(exc: ReproError) -> Tuple[str, str, str]:
    return ("error", type(exc).__name__, str(exc))


def result_digest(answer: Any) -> str:
    """Digest of a run's simulated content: every numeric StepLog column,
    the burst flags, admission integrals, phase times, energy shares and
    fault records (kind and time).  Messages are left out, so rewording an
    error does not move the digest."""
    if isinstance(answer, tuple) and answer and answer[0] == "error":
        return _hash("error", answer[1])
    r: SimulationResult = answer
    parts: List[object] = [r.steps.column(name) for name in _COLUMNS]
    parts.append(r.steps.column("in_burst"))
    parts += [
        r.dropped_integral,
        r.served_integral,
        r.demand_integral,
        sorted((p.value, t) for p, t in r.time_in_phase_s.items()),
        sorted(r.energy_shares.items()),
        [(f.time_s, f.kind) for f in r.fault_events],
        r.aborted_at_s,
    ]
    return _hash(*parts)


def results_equal(fast: Any, ref: Any) -> bool:
    """Bit-for-bit equality of two run answers (the reference check)."""
    if isinstance(fast, tuple) or isinstance(ref, tuple):
        return fast == ref
    return bool(
        fast.steps == ref.steps
        and fast.dropped_integral == ref.dropped_integral
        and fast.served_integral == ref.served_integral
        and fast.demand_integral == ref.demand_integral
        and fast.time_in_phase_s == ref.time_in_phase_s
        and fast.energy_shares == ref.energy_shares
        and fast.fault_events == ref.fault_events
        and fast.aborted_at_s == ref.aborted_at_s
    )


def _strategy(spec: StrategyInput, datacenter: DataCenter) -> SprintingStrategy:
    if spec.kind == "fixed":
        return FixedUpperBoundStrategy(spec.value)
    if spec.kind == "heuristic":
        return HeuristicStrategy(
            estimated_best_degree=spec.value,
            additional_power_fn=datacenter.cluster.additional_power_at_degree_w,
        )
    if spec.kind == "mpc":
        return MPCStrategy(
            candidate_bounds=inputs.MPC_CANDIDATES,
            horizon_s=spec.horizon_s,
            replan_interval_s=spec.replan_s,
            forecast=spec.forecast,
            predicted_burst_duration_s=spec.predicted_s,
        )
    return GreedyStrategy()


def _sweep_spec(spec: StrategyInput) -> StrategySpec:
    if spec.kind == "heuristic":
        return StrategySpec.heuristic(spec.value)
    return StrategySpec.greedy()


def _plan(specs: Sequence[str]) -> Optional[FaultPlan]:
    return FaultPlan.from_specs(list(specs)) if specs else None


class Workload:
    """Interface shared by the workloads."""

    name = ""
    #: How many seeded answers :meth:`check` re-computes per run.
    n_checks = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def make(self, index: int) -> Task:
        raise NotImplementedError

    def run(self, task: Task) -> Any:
        raise NotImplementedError

    def digest(self, task: Task, answer: Any) -> str:
        return result_digest(answer)

    def check_indices(self, n_window: int) -> List[int]:
        """The seeded sample of task indices whose answers are re-checked."""
        rng = inputs.rng_for(self.seed, self.name, 0, salt=1)
        k = min(self.n_checks, n_window)
        return sorted(int(i) for i in rng.choice(n_window, k, replace=False))

    def check(self, task: Task, answer: Any) -> List[str]:
        """Mismatch descriptions for one sampled task (empty when correct)."""
        raise NotImplementedError

    def stream_checks(self, digests: Dict[int, str]) -> Dict[int, str]:
        """Checks over the whole stream of answers, by task index."""
        return {}

    def traces(self, task: Task) -> List[Trace]:
        """The demand traces the task hands to the program."""
        return [task.objects["trace"]]

    def layer_values(self) -> Dict[str, float]:
        """Per-layer values the workload measures itself."""
        return {}

    def close(self) -> None:
        pass


class RunsWorkload(Workload):
    """Independent simulation runs, one per task: fault-free span runs,
    faulted and utility-event runs on the default facility, and MPC runs on
    the two-PDU facility.  Both facilities are built once at set-up
    (``run_simulation`` resets them)."""

    name = "runs"
    n_checks = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.default = build_datacenter(DataCenterConfig())
        self.small = build_datacenter(SMALL_CONFIG)

    def make(self, index: int) -> Task:
        spec: RunInput = inputs.runs_input(self.seed, index)
        trace = Trace(spec.samples, DT_S, name=f"{spec.family}[{self.seed}:{index}]")
        events = [
            UtilityEvent(UtilityEventKind(kind), start, duration, magnitude)
            for kind, start, duration, magnitude in spec.utility
        ]
        objects = {"trace": trace, "plan": _plan(spec.faults), "events": events}
        return Task(index, spec, objects, len(trace) * DT_S)

    def run(self, task: Task) -> Any:
        spec: RunInput = task.spec
        obj = task.objects
        datacenter = self.small if spec.strategy.kind == "mpc" else self.default
        strategy = _strategy(spec.strategy, datacenter)
        try:
            if obj["events"]:
                return scenarios.run_with_utility_events(
                    obj["trace"], obj["events"], strategy, datacenter.config
                )
            return engine.run_simulation(
                datacenter, obj["trace"], strategy, fault_plan=obj["plan"]
            )
        except ReproError as exc:
            return _error(exc)

    def check(self, task: Task, answer: Any) -> List[str]:
        """Re-run on the executable spec: every controller the program
        builds gets ``use_kernel=False``."""
        patcher = Patcher()
        original = DataCenter.controller

        def reference_controller(self: DataCenter, strategy: Any, use_kernel: bool = True) -> Any:
            return original(self, strategy, use_kernel=False)

        patcher.set(DataCenter, "controller", reference_controller)
        try:
            ref = self.run(task)
        finally:
            patcher.restore()
        if results_equal(answer, ref):
            return []
        return [f"task {task.index}: kernel run differs from the use_kernel=False reference"]


class SweepWorkload(Workload):
    """A stream of user sweep requests against one ``SweepRunner`` with a
    two-worker process pool and an artifact store that starts empty."""

    name = "sweep"
    n_checks = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.runner = SweepRunner(max_workers=2, cache_dir=workdir / "store")
        self._tasks: Dict[int, Task] = {}

    def make(self, index: int) -> Task:
        spec: SweepInput = inputs.sweep_input(self.seed, index)
        if spec.kind == "reask":
            original = self._tasks.get(spec.repeat_of) or self.make(spec.repeat_of)
            task = Task(index, spec, {"original": original}, original.sim_s)
        else:
            traces = [
                Trace(samples, DT_S, name=f"sweep-{spec.kind}[{self.seed}:{index}:{k}]")
                for k, samples in enumerate(spec.traces)
            ]
            n = len(traces[0]) * DT_S
            if spec.kind == "table":
                sim_s = n * len(traces) * len(spec.candidates)
            elif spec.kind == "oracle":
                sim_s = n * len(spec.candidates)
            else:
                sim_s = n * len(spec.values)
            task = Task(index, spec, {"traces": traces, "plan": _plan(spec.faults)}, sim_s)
        self._tasks[index] = task
        return task

    def _configs(self, spec: SweepInput) -> List[DataCenterConfig]:
        if spec.kind == "headroom":
            return [DataCenterConfig(dc_headroom_fraction=v) for v in spec.values]
        return [DataCenterConfig(pue=v) for v in spec.values]

    def run(self, task: Task) -> Any:
        spec: SweepInput = task.spec
        if spec.kind == "reask":
            return self.run(task.objects["original"])
        traces = task.objects["traces"]
        plan = task.objects["plan"]
        try:
            if spec.kind == "table":
                by_point = dict(zip(spec.grid, traces))
                table = self.runner.build_upper_bound_table(
                    burst_durations_min=sorted({d for d, _ in spec.grid}),
                    burst_degrees=sorted({g for _, g in spec.grid}),
                    candidates=spec.candidates,
                    trace_factory=lambda degree, duration: by_point[(duration, degree)],
                )
                return ("table", tuple(table.entries()))
            if spec.kind == "oracle":
                found = self.runner.oracle_search(
                    traces[0], candidates=spec.candidates, fault_plan=plan
                )
                return ("oracle", found.upper_bound, found.achieved_performance)
            outcomes = self.runner.run_tasks(
                [
                    SweepTask(traces[0], _sweep_spec(spec.strategy), config, plan)
                    for config in self._configs(spec)
                ]
            )
            return ("sweep", tuple(outcomes))
        except ReproError as exc:
            return _error(exc)

    def digest(self, task: Task, answer: Any) -> str:
        if answer[0] == "error":
            return _hash("error", answer[1])
        if answer[0] == "sweep":
            return _hash("sweep", *(sorted(o.to_dict().items()) for o in answer[1]))
        return _hash(*answer)

    def traces(self, task: Task) -> List[Trace]:
        if task.spec.kind == "reask":
            return self.traces(task.objects["original"])
        return list(task.objects["traces"])

    def layer_values(self) -> Dict[str, float]:
        total = self.runner.hits + self.runner.misses
        return {"simulation.batch.hit_frac": self.runner.hits / total if total else 0.0}

    def check_indices(self, n_window: int) -> List[int]:
        """A seeded sample of the requests that are not re-asks."""
        rng = inputs.rng_for(self.seed, self.name, 0, salt=1)
        fresh = [i for i in range(n_window) if inputs.SWEEP_CYCLE[i % len(inputs.SWEEP_CYCLE)] != "reask"]
        return sorted(int(i) for i in rng.choice(fresh, min(self.n_checks, len(fresh)), replace=False))

    def stream_checks(self, digests: Dict[int, str]) -> Dict[int, str]:
        """Every warm re-ask must answer exactly what the cold request did."""
        out = {}
        for i, task in self._tasks.items():
            j = task.spec.repeat_of
            if j is not None and i in digests and digests[i] != digests.get(j):
                out[i] = f"task {i}: re-ask of request {j} answered differently from the cold request"
        return out

    def check(self, task: Task, answer: Any) -> List[str]:
        spec: SweepInput = task.spec
        traces = task.objects["traces"]
        plan = task.objects["plan"]
        if spec.kind == "oracle":
            # Every candidate failing is an answer too: the search raises.
            found = _reference_argmax(traces[0], spec.candidates, plan)
            got = None if answer[0] == "error" else (answer[1], answer[2])
            if got != found:
                return [f"task {task.index}: oracle answer {got} != per-candidate argmax {found}"]
            return []
        if answer[0] == "error":
            return []
        if spec.kind == "table":
            rng = inputs.rng_for(self.seed, self.name, task.index, salt=2)
            p = int(rng.integers(0, len(spec.grid)))
            duration_min, degree = spec.grid[p]
            found = _reference_argmax(traces[p], spec.candidates, None)
            got = [b for d, g, b in answer[1] if d == duration_min * 60.0 and g == degree]
            if found is None or got != [found[0]]:
                return [f"task {task.index}: table point {spec.grid[p]} bound {got} != per-candidate argmax {found}"]
            return []
        # Sensitivity sweep: one seeded point against a direct run.
        rng = inputs.rng_for(self.seed, self.name, task.index, salt=2)
        k = int(rng.integers(0, len(spec.values)))
        config = self._configs(spec)[k]
        datacenter = build_datacenter(config)
        strategy = _sweep_spec(spec.strategy).build(config)
        try:
            result = engine.run_simulation(datacenter, traces[0], strategy, fault_plan=plan)
            expect: Tuple[Any, ...] = (result.average_performance, result.aborted_at_s)
        except ReproError as exc:
            expect = ("failed", type(exc).__name__)
        outcome = answer[1][k]
        if outcome.failed:
            got: Tuple[Any, ...] = ("failed", outcome.error_type)
        else:
            got = (outcome.average_performance, outcome.aborted_at_s)
        if got != expect:
            return [f"task {task.index}: sweep point {k} {got} != direct run {expect}"]
        return []

    def close(self) -> None:
        self.runner.close()


def _reference_argmax(
    trace: Trace, candidates: Sequence[float], plan: Optional[FaultPlan]
) -> Optional[Tuple[float, float]]:
    """Strict first-wins argmax over one plain run per candidate bound."""
    datacenter = build_datacenter(DataCenterConfig())
    best: Optional[Tuple[float, float]] = None
    for bound in candidates:
        try:
            result = engine.run_simulation(
                datacenter, trace, FixedUpperBoundStrategy(bound), fault_plan=plan
            )
        except ReproError:
            continue
        perf = result.average_performance
        if best is None or perf > best[1]:
            best = (float(bound), perf)
    return best


WORKLOADS = {cls.name: cls for cls in (RunsWorkload, SweepWorkload)}
