"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload runs --seed 0 --seconds 55 --trace 0

Run from the root of a checkout; the simulator is imported from its
``src/`` directory.  A run sets up (imports, facility builds, runner),
issues seeded tasks one at a time from a single client until the summed
task time reaches ``--seconds`` (and at least :data:`MIN_TASKS` tasks
ran), checks the answers, and prints every metric with its unit.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` tasks run untraced for half of ``--seconds``, the same tasks
run again traced, and the metrics are the per-layer ones.  A failed check exits 1; a checkout
without the simulator exits 2 without a result.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

#: End-to-end metrics of an untraced run, with units, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("sim_s_per_host_s", "sim_s/host_s"),
    ("task_ms.p50", "ms"),
    ("task_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
)
WORKLOAD_NAMES = ("runs", "sweep")
DEFAULT_SEED = 0
#: Every run completes at least this many tasks, which fixes the tail
#: percentile's sample floor and the window the result digest covers.
MIN_TASKS = 20
#: Set-ups per run (one in this process, the rest in fresh processes);
#: ``setup_s`` is their median.
SETUP_REPEATS = 3


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--expect-digest",
        help="fail unless the digest of the first tasks' results equals "
        "this (default: the recorded digest, for the default seed)",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program() -> Any:
    """Import the simulator from this checkout's ``src/`` only."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import repro
        from perfbench import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if Path(repro.__file__).resolve().parent.parent != src:
        print(f"perfbench: repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return workloads


def _setup(name: str, seed: int, workdir: Path) -> Tuple[float, Any]:
    """Import, build the workload and generate its first task; returns the
    seconds since this process started the benchmark, and the workload."""
    workloads = _import_program()
    bench = workloads.WORKLOADS[name](seed, workdir)
    bench.make(0)
    return time.perf_counter() - T0, bench


def _child_setup(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


@dataclass
class Pass:
    """What one pass over the task stream measured."""

    durations: List[float] = field(default_factory=list)
    digests: Dict[int, str] = field(default_factory=dict)
    kept: Dict[int, Tuple[Any, Any]] = field(default_factory=dict)
    errors: Dict[int, str] = field(default_factory=dict)
    sim_s: float = 0.0
    span_samples: int = 0
    span_count: int = 0
    ff_samples: float = 0.0

    @property
    def task_s(self) -> float:
        return sum(self.durations)


def _pass(
    bench: Any,
    seconds: float,
    keep: List[int],
    n_tasks: Optional[int] = None,
    tracer: Any = None,
) -> Pass:
    """Issue tasks one after another (one client, closed loop).  Only
    ``bench.run`` is timed; generation, digests and bookkeeping are not."""
    out = Pass()
    spent = 0.0
    i = 0
    while True:
        if n_tasks is None:
            if spent >= seconds and i >= MIN_TASKS:
                break
        elif i >= n_tasks:
            break
        task = bench.make(i)
        if tracer is not None:
            tracer.task_id = i
        t = time.perf_counter()
        try:
            answer = bench.run(task)
            error = None
        except Exception:  # an unexpected error is a failed task, not a crash
            error = traceback.format_exc()
        dt = time.perf_counter() - t
        spent += dt
        out.durations.append(dt)
        if error is not None:
            out.errors[i] = error
        else:
            out.sim_s += task.sim_s
            out.digests[i] = bench.digest(task, answer)
            if i in keep:
                out.kept[i] = (task, answer)
        if tracer is not None:
            for trace in bench.traces(task):
                stats = trace.span_stats()
                out.span_samples += stats.n_samples
                out.span_count += stats.n_spans
                out.ff_samples += stats.predicted_ff_coverage * stats.n_samples
        i += 1
    return out


def _window_digest(p: Pass) -> str:
    h = hashlib.sha256()
    for i in range(MIN_TASKS):
        h.update(p.digests.get(i, "failed").encode())
    return h.hexdigest()


def _expected_digest(args: argparse.Namespace) -> Optional[str]:
    if args.expect_digest is not None:
        return args.expect_digest
    if args.seed != DEFAULT_SEED:
        return None
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())
    return recorded.get(args.workload)


def _commit() -> str:
    """The checkout's git commit, read from ``.git`` (no git process)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _stop_children() -> None:
    """Wait for every worker process this run started."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.terminate()
            child.join(timeout=10)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    workdir = ROOT / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    bench = None
    try:
        setup_s, bench = _setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return _measure(args, bench, setup_s, workdir)
    finally:
        if bench is not None:
            bench.close()
        _stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def _measure(args: argparse.Namespace, bench: Any, setup_s: float, workdir: Path) -> int:
    import numpy as np

    keep = bench.check_indices(MIN_TASKS)
    # A traced run repeats its untraced pass, so each pass gets half the time.
    run = _pass(bench, args.seconds / 2 if args.trace else args.seconds, keep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Task-level problems count each failing task once; run-level ones
    # (a digest mismatch, a traced run that differs) count once each.
    problems: List[str] = [f"task {i} raised:\n{tb}" for i, tb in run.errors.items()]
    bad_tasks = set(run.errors)
    for i, (task, answer) in run.kept.items():
        found = bench.check(task, answer)
        problems += found
        if found:
            bad_tasks.add(i)
    for i, message in bench.stream_checks(run.digests).items():
        problems.append(message)
        bad_tasks.add(i)
    run_problems: List[str] = []
    digest = _window_digest(run)
    expected = _expected_digest(args)
    digest_ok = expected is None or expected == digest
    if not digest_ok:
        run_problems.append(f"result digest {digest} != expected {expected}")

    n = len(run.durations)
    print(
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} commit={_commit()}"
    )
    if expected is None:
        verdict = "no expected digest for this seed"
    else:
        verdict = "matches the expected digest" if digest_ok else "DIFFERS from the expected digest"
    print(
        f"# {n} tasks, {run.sim_s:.0f} simulated s in {run.task_s:.3f} host s; "
        f"checked {len(run.kept)} sampled answers; result digest of the first "
        f"{MIN_TASKS} tasks {digest} ({verdict})"
    )

    if args.trace:
        bench.close()
        from perfbench.tracing import PER_LAYER

        metrics, trace_problems = _traced(args, run, workdir)
        run_problems += trace_problems
        units = dict(PER_LAYER)
    else:
        setups = [setup_s] + [
            _child_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)
        ]
        from perfbench import stats

        tail = stats.tail(run.durations)
        assert tail is not None  # MIN_TASKS guarantees the sample floor
        metrics = {
            "setup_s": statistics.median(setups),
            "sim_s_per_host_s": run.sim_s / run.task_s,
            "task_ms.p50": statistics.median(run.durations) * 1e3,
            "task_ms.tail": tail[1] * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        notes = {
            "setup_s": f"median of {len(setups)} set-ups: "
            + ", ".join(_fmt(s) for s in setups),
            "task_ms.tail": f"p{tail[0]:.4g} of {n} tasks",
        }
        for name, unit in END_TO_END:
            note = notes.get(name, "")
            print(f"{name:<20} {_fmt(metrics[name]):>12} {unit:<14} {note}")
        failed = len(bad_tasks) + len(run_problems)
        print(f"{'failed_frac':<20} {_fmt(failed / n):>12} {'ratio':<14} "
              f"{failed} of {n} tasks")

    for problem in problems + run_problems:
        print(f"# CHECK FAILED: {problem}", file=sys.stderr)
    correct = not (problems or run_problems)
    result = {
        "correct": correct,
        "attempted": n,
        "failed": len(bad_tasks) + len(run_problems),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _traced(
    args: argparse.Namespace, untraced: Pass, workdir: Path
) -> Tuple[Dict[str, float], List[str]]:
    """Re-run the untraced pass's tasks with every layer wrapped."""
    import numpy as np

    from perfbench import tracing, workloads

    bench = workloads.WORKLOADS[args.workload](args.seed, workdir / "traced")
    tracer = tracing.Tracer()
    patcher = tracing.Patcher()
    tracing.install(tracer, patcher)
    try:
        traced = _pass(bench, 0.0, [], n_tasks=len(untraced.durations), tracer=tracer)
        extra = bench.layer_values()
    finally:
        patcher.restore()
        bench.close()
    problems = [f"traced task {i} raised:\n{tb}" for i, tb in traced.errors.items()]
    if traced.digests != untraced.digests:
        problems.append("traced run's result digests differ from the untraced run's")
    extra["workloads.traces.spans_per_sample"] = traced.span_count / traced.span_samples
    extra["workloads.traces.ff_coverage"] = traced.ff_samples / traced.span_samples
    values = tracing.summarize(tracer, traced.task_s, untraced.task_s, extra)

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
    np.savez_compressed(spans_path, names=np.array(tracer.names), **tracer.arrays())
    print(
        f"# traced {len(traced.durations)} tasks: {len(tracer.start)} spans -> "
        f"{spans_path.relative_to(ROOT)}; overhead {values['trace.overhead_ratio']:.3f}x "
        f"({traced.task_s:.3f} s traced / {untraced.task_s:.3f} s untraced); "
        f"unattributed {values['trace.unattributed_ms']:.1f} ms"
    )
    for name, unit in tracing.PER_LAYER:
        print(f"{name:<62} {_fmt(values[name]):>12} {unit}")
    return values, problems


if __name__ == "__main__":
    sys.exit(main())
