"""Span-engine throughput: RLE spans and steady-cycle fast-forward.

Not a paper figure — a performance benchmark of the span-compiled
stepping path.  ``StepKernel.run_trace`` run-length-encodes the demand
trace and bulk-replays steady cycles inside constant-demand spans, so
its payoff scales with the trace's span structure: a fully jittered
trace (every sample its own span) exercises only the leaner per-step
body, while plateau-heavy traces are dominated by bulk replay.  Each
benchmark reports the trace's predicted fast-forward coverage next to
the measured throughput, and the flat-trace benchmark re-checks
bit-identity against the reference controller before timing.
"""

from __future__ import annotations

import numpy as np

from repro.core.strategies import GreedyStrategy
from repro.simulation.datacenter import build_datacenter
from repro.simulation.engine import run_simulation
from repro.workloads.traces import Trace
from repro.workloads.yahoo_trace import generate_yahoo_trace


def _plateau_trace(n: int = 1800) -> Trace:
    """A plateau-heavy trace: idle floors and burst shelves, 12 spans."""
    rng = np.random.default_rng(7)
    parts = []
    for _ in range(6):
        parts.append(np.full(int(rng.integers(100, 200)), float(rng.uniform(0.3, 0.8))))
        parts.append(np.full(int(rng.integers(80, 160)), float(rng.uniform(1.2, 2.8))))
    samples = np.concatenate(parts)[:n]
    return Trace(samples, dt_s=1.0, name="plateaus")


def _throughput_info(benchmark, trace) -> float:
    mean_s = benchmark.stats.stats.mean
    sim_per_wall = len(trace) * trace.dt_s / mean_s
    stats = trace.span_stats()
    benchmark.extra_info["simulated_seconds_per_wall_second"] = sim_per_wall
    benchmark.extra_info["n_spans"] = stats.n_spans
    benchmark.extra_info["predicted_ff_coverage"] = stats.predicted_ff_coverage
    return sim_per_wall


def bench_span_flat_run(benchmark):
    """A 30-minute constant sub-capacity trace: one span, k=1 replay.

    The steady-cycle fast-forward collapses nearly the whole run into one
    bulk ``extend_cycle`` append, so this is the span engine's best case.
    Bit-identity against the reference controller is asserted on the
    same trace before timing.
    """
    trace = Trace(np.full(1800, 0.6), dt_s=1.0, name="flat-30min")
    dc = build_datacenter()
    fast = run_simulation(dc, trace, GreedyStrategy(), use_kernel=True)
    ref = run_simulation(dc, trace, GreedyStrategy(), use_kernel=False)
    assert fast.steps == ref.steps
    assert fast.time_in_phase_s == ref.time_in_phase_s
    result = benchmark.pedantic(
        lambda: run_simulation(dc, trace, GreedyStrategy()),
        rounds=3,
        iterations=1,
    )
    sim_per_wall = _throughput_info(benchmark, trace)
    print(f"flat-trace span engine: {sim_per_wall:,.0f} simulated "
          f"seconds per wall-clock second")
    # Bulk replay should clear the jittered path by an order of magnitude.
    assert sim_per_wall > 200_000
    assert result.average_performance > 0.0


def bench_span_plateau_run(benchmark):
    """A 12-span plateau trace: burst shelves alternate with idle floors."""
    trace = _plateau_trace()
    dc = build_datacenter()
    result = benchmark.pedantic(
        lambda: run_simulation(dc, trace, GreedyStrategy()),
        rounds=3,
        iterations=1,
    )
    sim_per_wall = _throughput_info(benchmark, trace)
    print(f"plateau-trace span engine: {sim_per_wall:,.0f} simulated "
          f"seconds per wall-clock second "
          f"({trace.span_stats().n_spans} spans)")
    assert sim_per_wall > 50_000
    assert result.average_performance > 0.0


def bench_span_yahoo_run(benchmark):
    """The synthetic Yahoo burst trace (jittered: per-step body speed)."""
    trace = generate_yahoo_trace(burst_degree=3.0, burst_duration_min=10)
    dc = build_datacenter()
    benchmark.pedantic(
        lambda: run_simulation(dc, trace, GreedyStrategy()),
        rounds=3,
        iterations=1,
    )
    sim_per_wall = _throughput_info(benchmark, trace)
    print(f"yahoo-trace span engine: {sim_per_wall:,.0f} simulated "
          f"seconds per wall-clock second")
    assert sim_per_wall > 50_000
