"""Engine throughput: how fast the simulator itself runs.

Not a paper figure — a performance benchmark of the reproduction: a single
controller step, one full 30-minute facility run (fault-free and with a
late telemetry gap), an MPC run, and an Oracle search.  These numbers
guard against performance regressions (the Fig. 9/10 sweeps run hundreds
of full simulations).
"""

from __future__ import annotations

import math
import time

from repro.core.strategies import (
    FixedUpperBoundStrategy,
    GreedyStrategy,
    MPCStrategy,
)
from repro.errors import ReproError
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import build_datacenter
from repro.simulation.engine import (
    DEFAULT_ORACLE_GRID,
    build_upper_bound_table,
    oracle_for_trace,
    run_simulation,
    simulate_strategy,
)
from repro.simulation.faults import FaultPlan
from repro.workloads.ms_trace import default_ms_trace
from repro.workloads.yahoo_trace import generate_yahoo_trace

#: Throughput of the pre-kernel engine on this benchmark and machine
#: class (simulated seconds per wall-clock second), kept so the
#: before/after ratio lands in BENCH_engine.json next to the live number.
PRE_KERNEL_STEPS_PER_SECOND = 8_439.0


def _reference_search_seconds(trace, candidates, fault_plan=None) -> float:
    """Wall time of the pre-fork reference Oracle: one full simulation per
    candidate (NaN on failure), exactly what PR 3 shipped."""
    start = time.perf_counter()
    best = -math.inf
    for bound in candidates:
        try:
            result = simulate_strategy(
                trace,
                FixedUpperBoundStrategy(float(bound)),
                fault_plan=fault_plan,
            )
        except ReproError:
            continue
        best = max(best, result.average_performance)
    assert best > -math.inf
    return time.perf_counter() - start


def bench_single_controller_step(benchmark):
    """One control period on the full-size facility."""
    dc = build_datacenter()
    controller = dc.controller(GreedyStrategy())
    clock = {"t": 0.0}

    def step():
        controller.step(2.0, clock["t"])
        clock["t"] += 1.0

    benchmark(step)
    assert controller.history


def bench_full_ms_run(benchmark):
    """A complete 30-minute MS-trace run (1800 steps)."""
    trace = default_ms_trace()
    dc = build_datacenter()
    result = benchmark.pedantic(
        lambda: run_simulation(dc, trace, GreedyStrategy()),
        rounds=3,
        iterations=1,
    )
    # The run must stay fast enough that the strategy sweeps are cheap.
    # The precomputed step kernel holds well above 20k simulated seconds
    # per wall-clock second (the pre-kernel floor was 5k); a regression
    # below this floor means the fast path has rotted.
    mean_s = benchmark.stats.stats.mean
    steps_per_second = len(trace) / mean_s
    benchmark.extra_info["simulated_seconds_per_wall_second"] = (
        steps_per_second
    )
    benchmark.extra_info["pre_kernel_simulated_seconds_per_wall_second"] = (
        PRE_KERNEL_STEPS_PER_SECOND
    )
    benchmark.extra_info["speedup_vs_pre_kernel"] = (
        steps_per_second / PRE_KERNEL_STEPS_PER_SECOND
    )
    print(f"engine throughput: {steps_per_second:,.0f} simulated "
          f"seconds per wall-clock second")
    assert steps_per_second > 20_000
    assert result.average_performance > 1.0


def bench_faulted_ms_run(benchmark):
    """The full MS-trace run with a late, benign telemetry gap.

    The gap at 1700 s changes no physics before it.  The injector acts
    once per fault boundary, but the faulted driver steps every sample
    through ``SprintingController.step`` (a one-sample span-compiled
    window), so the run costs about twice the fault-free run.
    """
    trace = default_ms_trace()
    dc = build_datacenter()
    plan = FaultPlan.from_specs(["gap@1700s"])
    result = benchmark.pedantic(
        lambda: run_simulation(dc, trace, GreedyStrategy(), fault_plan=plan),
        rounds=3,
        iterations=1,
    )
    mean_s = benchmark.stats.stats.mean
    benchmark.extra_info["simulated_seconds_per_wall_second"] = (
        len(trace) / mean_s
    )
    assert len(result.steps) == len(trace)
    assert result.aborted_at_s is None


def bench_mpc_run(benchmark):
    """One online-MPC run: two-PDU facility, five candidate bounds, a
    120 s re-plan cadence, on the Yahoo 3.2x / 15-minute burst."""
    trace = generate_yahoo_trace(burst_degree=3.2, burst_duration_min=15)
    config = DataCenterConfig(n_pdus=2, servers_per_pdu=50)
    dc = build_datacenter(config)

    def run():
        strategy = MPCStrategy(
            candidate_bounds=(2.0, 2.5, 3.0, 3.5, 4.0),
            replan_interval_s=120.0,
        )
        return run_simulation(dc, trace, strategy), strategy

    result, strategy = benchmark.pedantic(run, rounds=3, iterations=1)
    assert strategy.plan_log
    assert result.average_performance > 1.0


def bench_oracle_search(benchmark):
    """A five-candidate Oracle search over the MS trace."""
    trace = default_ms_trace()
    oracle = benchmark.pedantic(
        lambda: oracle_for_trace(
            trace, candidates=(2.0, 2.5, 3.0, 3.5, 4.0)
        ),
        rounds=1,
        iterations=1,
    )
    assert oracle.achieved_performance > 1.5


def bench_oracle_search_13_candidates(benchmark):
    """Cold 13-candidate Oracle search (the default grid) on a Yahoo trace.

    This was the shared-prefix search's headline case: one instrumented
    baseline run plus per-candidate suffixes instead of 13 full runs.
    The span-compiled engine has since made each full run ~3x faster, and
    the fork engine now resumes its suffixes as span-compiled windows
    too; the guard is that the fork engine never falls meaningfully
    *behind* the naive sweep.  The reference path is timed in the same
    process and the ratio recorded in ``extra_info``.
    """
    trace = generate_yahoo_trace(burst_degree=3.2, burst_duration_min=10)
    oracle = benchmark.pedantic(
        lambda: oracle_for_trace(trace, candidates=DEFAULT_ORACLE_GRID),
        rounds=1,
        iterations=1,
    )
    reference_s = _reference_search_seconds(trace, DEFAULT_ORACLE_GRID)
    fast_s = benchmark.stats.stats.mean
    benchmark.extra_info["reference_seconds"] = reference_s
    benchmark.extra_info["speedup_vs_reference"] = reference_s / fast_s
    print(f"13-candidate search: {fast_s:.2f}s fork-engine vs "
          f"{reference_s:.2f}s reference "
          f"({reference_s / fast_s:.2f}x)")
    assert oracle.achieved_performance > 1.0
    assert reference_s / fast_s >= 0.7


def bench_upper_bound_table_cold(benchmark):
    """Cold 4x6 upper-bound table build (the Section V-A planning grid).

    24 grid points x 13 candidates; the default runner packs the whole
    table into vector-kernel batches (``packed_point_searches``, one
    lockstep run per trace length) instead of 13 scalar runs per point.
    The reference cost is the summed per-candidate timing over the same
    grid traces, measured in-process.
    """
    durations = (1.0, 5.0, 10.0, 15.0)
    degrees = (2.6, 2.8, 3.0, 3.2, 3.4, 3.6)
    table = benchmark.pedantic(
        lambda: build_upper_bound_table(
            burst_durations_min=durations, burst_degrees=degrees
        ),
        rounds=1,
        iterations=1,
    )
    reference_s = sum(
        _reference_search_seconds(
            generate_yahoo_trace(burst_degree=deg, burst_duration_min=dur),
            DEFAULT_ORACLE_GRID,
        )
        for dur in durations
        for deg in degrees
    )
    fast_s = benchmark.stats.stats.mean
    benchmark.extra_info["reference_seconds"] = reference_s
    benchmark.extra_info["speedup_vs_reference"] = reference_s / fast_s
    print(f"4x6 table build: {fast_s:.1f}s packed vs "
          f"{reference_s:.1f}s reference "
          f"({reference_s / fast_s:.2f}x)")
    assert len(table) == len(durations) * len(degrees)
    assert reference_s / fast_s >= 2.0
