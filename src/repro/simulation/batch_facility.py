"""Many-facility batch runs on the vectorized step kernel.

:func:`run_vector_batch` fronts :class:`~repro.core.vector_kernel.VectorStepKernel`
for the simulation layer: it builds one fresh facility substrate for the
config and advances a whole grid of fixed upper bounds over a demand
series in lockstep — the workload of the Oracle grid search and
:meth:`SweepRunner.build_upper_bound_table` — instead of one full scalar
run per bound.

Each batch element is bit-identical to the scalar reference run of the
same fixed bound (the vector kernel's contract), so the Oracle argmax over
the batch (:func:`best_fixed_bound`) reproduces the per-candidate
reference search exactly: the same performances, the same strict
first-wins tie-break and the same exclusion of failed candidates.

:func:`vector_oracle_search` is the engine-facing entry point.  It is the
middle tier of the Oracle resolution order (shared-prefix -> vector ->
per-candidate reference, see :mod:`repro.simulation.batch`); its validity
envelope is wider than the shared-prefix one (no coast-safety or
candidate >= 1.0 requirements) because the batch advances every candidate
with real physics — nothing is fast-forwarded.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.strategies import FixedUpperBoundStrategy, strict_argmax
from repro.core.vector_kernel import VectorStepKernel
from repro.errors import ConfigurationError, SimulationError
from repro.simulation.config import DEFAULT_CONFIG, DataCenterConfig
from repro.simulation.datacenter import build_datacenter
from repro.simulation.metrics import average_performance_improvement
from repro.workloads.traces import Trace


def run_vector_batch(
    config: DataCenterConfig,
    demand: np.ndarray,
    dt_s: float,
    bounds: Sequence[float],
    telemetry_fields: Optional[Sequence[str]] = None,
) -> Tuple[np.ndarray, VectorStepKernel]:
    """Advance one batch of fixed bounds in lockstep on a fresh facility.

    ``demand`` is either one shared series (1-D, every element sees the
    same sample each step) or a ``(n_steps, len(bounds))`` matrix whose
    column ``j`` drives element ``j``.  The matrix form is how the packed
    sweep tier fuses grid points over *different* traces (same length,
    same sampling period) into one kernel run: every kernel operation is
    elementwise over the batch axis, so each column evolves exactly as it
    would in a batch fed only its own trace.

    ``dt_s`` is the demand sampling period, validated against the
    controller step and used for the step timestamps (``i * dt_s``,
    matching the scalar engine).  ``telemetry_fields`` selects the
    kernel's recorded columns (``None`` records none).  Returns
    ``(served, kernel)``: the ``(n_steps, len(bounds))`` served matrix
    (0.0 from an element's failing step onward) and the kernel, whose
    per-element aggregates and telemetry columns the caller reduces.
    """
    if abs(dt_s - config.dt_s) > 1e-9:
        raise ConfigurationError(
            f"demand sampling period ({dt_s:g} s) does not match "
            f"the controller step ({config.dt_s:g} s); resample "
            "the demand or set the config's dt_s accordingly"
        )
    demand_arr = np.asarray(demand, dtype=np.float64)
    bound_arr = np.asarray(bounds, dtype=np.float64)
    if demand_arr.ndim == 2 and demand_arr.shape[1] != bound_arr.size:
        raise ConfigurationError(
            f"demand must have shape (n_steps, {bound_arr.size}), "
            f"got {demand_arr.shape!r}"
        )
    datacenter = build_datacenter(config)
    datacenter.reset()
    controller = datacenter.controller(FixedUpperBoundStrategy(1.0))
    controller.strategy.reset()
    kernel = VectorStepKernel(
        datacenter.cluster,
        datacenter.topology,
        datacenter.cooling,
        controller,
        bound_arr,
        telemetry_fields=telemetry_fields,
    )
    served = np.empty((demand_arr.shape[0], kernel.n), dtype=np.float64)
    if demand_arr.ndim == 1:
        # A scalar demand per step keeps the kernel on its broadcast path.
        for i, sample in enumerate(demand_arr):
            served[i] = kernel.step(float(sample), i * dt_s)
    else:
        for i in range(demand_arr.shape[0]):
            served[i] = kernel.step(demand_arr[i], i * dt_s)
    return served, kernel


def best_fixed_bound(
    served: np.ndarray,
    failed: np.ndarray,
    trace: Trace,
    candidates: Sequence[float],
    first: int = 0,
) -> Optional[Tuple[float, float]]:
    """One grid point's Oracle reduction over its batch elements.

    Element ``first + c`` ran ``candidates[c]`` over ``trace``.  A failed
    element scores NaN and the strict first-wins argmax skips it, exactly
    like the per-candidate reference search.  Returns
    ``(best_bound, best_performance)``, or ``None`` when every element
    failed.
    """
    performances = [
        math.nan
        if bool(failed[first + c])
        else average_performance_improvement(served[:, first + c], trace)
        for c in range(len(candidates))
    ]
    best = strict_argmax(performances)
    if best is None:
        return None
    return float(candidates[best]), performances[best]


def vector_oracle_search(
    trace: Trace,
    candidates: Sequence[float],
    config: DataCenterConfig = DEFAULT_CONFIG,
) -> Optional[Tuple[float, float]]:
    """Oracle search on the vector batch path, ``None`` outside its envelope.

    The envelope is narrow by construction: no fault plan (the caller
    gates on that — fault injection mutates the scalar substrate
    mid-run) and matching sampling periods (the reference path raises the
    descriptive error for that case).
    Failure of *every* candidate raises ``SimulationError`` exactly like
    the reference argmax, so callers treat both paths uniformly.
    """
    if not candidates:
        return None
    if abs(trace.dt_s - config.dt_s) > 1e-9:
        return None  # reference path raises the descriptive ConfigurationError
    served, kernel = run_vector_batch(config, trace.samples, trace.dt_s, candidates)
    found = best_fixed_bound(served, kernel.failed, trace, candidates)
    if found is None:
        raise SimulationError(
            "oracle search failed: every candidate upper bound's run "
            f"failed on trace {trace.name!r}"
        )
    return found
