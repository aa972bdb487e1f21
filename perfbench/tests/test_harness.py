"""Self-tests of the benchmark harness: run with
``python3 -m pytest perfbench/tests -q`` from the repository root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import inputs, stats, tracing

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# The tail-percentile rule
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n, percentile", [(20, 50.0), (100, 90.0), (150, 280 / 3), (1000, 99.0)])
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile):
    values = list(np.random.default_rng(n).permutation(n).astype(float))
    p, value = stats.tail(values)
    assert p == pytest.approx(percentile)
    assert sum(v > value for v in values) == stats.TAIL_MIN_BEYOND
    # Nearest rank: the value sits at rank ceil(p * n / 100) = n - 10.
    assert value == sorted(values)[round(p * n / 100) - 1]


def test_tail_needs_more_than_ten_samples():
    assert stats.tail([1.0] * 10) is None
    assert stats.tail([float(i) for i in range(11)]) == (100 / 11, 0.0)


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------
def test_self_time_with_nested_and_back_to_back_children():
    # A [0, 10] has back-to-back children B [1, 3] and C [3, 6]; B has a
    # nested child D [1.5, 2.5]; E [12, 13] is a second root.
    start = np.array([0.0, 1.0, 3.0, 1.5, 12.0])
    end = np.array([10.0, 3.0, 6.0, 2.5, 13.0])
    parent = np.array([-1, 0, 0, 1, -1])
    assert tracing.self_times(start, end, parent).tolist() == [5.0, 1.0, 3.0, 1.0, 1.0]


def test_tracer_records_parents_and_task_ids():
    tracer = tracing.Tracer()
    outer, inner = tracer.intern("outer"), tracer.intern("inner")
    tracer.task_id = 7
    a = tracer.open(outer)
    b = tracer.open(inner)
    tracer.close(b)
    c = tracer.open(inner)
    tracer.close(c)
    tracer.close(a)
    cols = tracer.arrays()
    assert cols["parent"].tolist() == [-1, a, a]
    assert cols["task"].tolist() == [7, 7, 7]
    own = tracing.self_times(cols["start"], cols["end"], cols["parent"])
    assert own[a] == pytest.approx(
        (cols["end"][a] - cols["start"][a]) - (own[b] + own[c])
    )


# ---------------------------------------------------------------------------
# Seeded generation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(inputs.MAKERS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    make = inputs.MAKERS[workload]
    for index in range(6):
        first = inputs.input_digest(make(5, index))
        assert inputs.input_digest(make(5, index)) == first
        other = make(6, index)
        if getattr(other, "kind", None) != "reask":
            assert inputs.input_digest(other) != first


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------
def _owner_state():
    """Every attribute of every module and class the tracer may patch."""
    import sys as _sys

    state = {}
    for name, mod in list(_sys.modules.items()):
        if mod is not None and (name == "repro" or name.startswith("repro.")):
            state[name] = dict(vars(mod))
            for attr, value in vars(mod).items():
                if isinstance(value, type) and value.__module__ == name:
                    state[f"{name}:{attr}"] = dict(vars(value))
    return state


def test_wrappers_record_spans_and_leave_nothing_behind():
    from perfbench import workloads

    bench = workloads.WORKLOADS["runs"](0, ROOT / ".perfbench-tmp" / "selftest")
    task = bench.make(1)  # a faulted run
    untraced = bench.digest(task, bench.run(task))
    before = _owner_state()

    tracer = tracing.Tracer()
    patcher = tracing.Patcher()
    tracing.install(tracer, patcher)
    try:
        assert _owner_state() != before
        traced = bench.digest(task, bench.run(task))
    finally:
        patcher.restore()

    after = _owner_state()
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys(), key
        for attr, value in attrs.items():
            assert after[key][attr] is value, f"{key}.{attr} left patched"
    assert traced == untraced
    names = [tracer.names[i] for i in tracer.arrays()["name_id"]]
    assert names[0] == "simulation.engine.run_simulation"
    assert "core.controller.step" in names


# ---------------------------------------------------------------------------
# The command
# ---------------------------------------------------------------------------
def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_corrupted_expected_digest_fails_the_run():
    proc = _run(ROOT, "--workload", "runs", "--seconds", "0.1", "--expect-digest", "0" * 64)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "result digest" in proc.stderr


def test_checkout_without_the_simulator_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "runs", "--seconds", "1")
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_metric():
    from perfbench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
