"""Vector-packed sweep grid vs the scalar sweep engine.

Not a paper figure — the performance benchmark of the batched sweep
tier: a cold 4x6 upper-bound table build (24 grid points x 13 Oracle
candidates) through :class:`SweepRunner`, with the packed tier fusing
every point x candidate into few wide kernel batches.  The reference is
the same build with every vector path off — no packing
(``SweepRunner(vector_pack=False)``) and the per-point vector Oracle
tier declined, so each point runs the shared-prefix fork engine (one
span-compiled window per stretch), the cold-table path recorded as
``bench_upper_bound_table_cold`` — timed in the same process.

The floor is measured, not aspired to.  Against the windowed fork
engine the packed build measured 0.88-1.73x over 14 runs on a 2-core
box (median 1.44x; the 0.88x run hit a slow phase of the machine during
the single packed round), so the gate asserts >= 0.8x: packing must
never fall meaningfully behind the scalar engine.  The table equality
assertion pins that the packed tier changes no result bit, as does the
backend-identity suite (``tests/simulation/test_backends.py``).
"""

from __future__ import annotations

import time

import repro.simulation.batch as batch
from repro.simulation.batch import SweepRunner
from repro.simulation.engine import DEFAULT_ORACLE_GRID

DURATIONS = (1.0, 5.0, 10.0, 15.0)
DEGREES = (2.6, 2.8, 3.0, 3.2, 3.4, 3.6)


def _build_table(vector_pack=True):
    """One cold cache-less table build on the serial in-process runner."""
    runner = SweepRunner(max_workers=1, cache_dir=None, vector_pack=vector_pack)
    return runner.build_upper_bound_table(
        burst_durations_min=DURATIONS,
        burst_degrees=DEGREES,
        candidates=DEFAULT_ORACLE_GRID,
    )


def _build_scalar_table():
    """The same build on the scalar sweep engine: no packing, and the
    per-point vector Oracle tier replaced by a double that declines, the
    way ``_oracle_point_search`` treats a trace outside its envelope."""
    vector_tier = batch.vector_oracle_search
    batch.vector_oracle_search = lambda *args, **kwargs: None
    try:
        return _build_table(vector_pack=False)
    finally:
        batch.vector_oracle_search = vector_tier


def bench_sweep_grid_packed(benchmark):
    """Cold 4x6 table grid, vector-packed, vs the scalar sweep engine."""
    table = benchmark.pedantic(_build_table, rounds=1, iterations=1)

    start = time.perf_counter()
    reference_table = _build_scalar_table()
    reference_s = time.perf_counter() - start

    fast_s = benchmark.stats.stats.mean
    benchmark.extra_info["reference_seconds"] = reference_s
    benchmark.extra_info["speedup_vs_scalar_sweep"] = reference_s / fast_s
    benchmark.extra_info["grid_points"] = len(DURATIONS) * len(DEGREES)
    benchmark.extra_info["candidates"] = len(DEFAULT_ORACLE_GRID)
    print(f"4x6 packed sweep grid: {fast_s:.2f}s packed vs "
          f"{reference_s:.2f}s scalar sweep "
          f"({reference_s / fast_s:.2f}x)")
    assert len(table) == len(DURATIONS) * len(DEGREES)
    # The speedup must not buy a single different table cell.
    assert table.entries() == reference_table.entries()
    assert reference_s / fast_s >= 0.8
