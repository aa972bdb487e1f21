"""Many-facility batch runs on the vectorized step kernel.

:class:`BatchFacility` fronts :class:`~repro.core.vector_kernel.VectorStepKernel`
for the simulation layer: one facility substrate is built per config, and
:meth:`BatchFacility.run_fixed_bounds` advances a whole grid of candidate
upper bounds over a trace in lockstep — the workload of the Oracle grid
search and :meth:`SweepRunner.build_upper_bound_table` — instead of one
full scalar run per candidate.

Each batch element is bit-identical to the scalar reference run of the
same fixed bound (the vector kernel's contract), so the Oracle argmax over
the batch reproduces the per-candidate reference search exactly: the same
performances, the same strict first-wins tie-break, the same exclusion of
failed candidates, and the same :class:`~repro.errors.SimulationError`
when every candidate fails.

:func:`vector_oracle_search` is the engine-facing entry point.  It is the
middle tier of the Oracle resolution order (shared-prefix -> vector ->
per-candidate reference, see :mod:`repro.simulation.batch`); its validity
envelope is wider than the shared-prefix one (no coast-safety or
candidate >= 1.0 requirements) because the batch advances every candidate
with real physics — nothing is fast-forwarded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.strategies import FixedUpperBoundStrategy, strict_argmax
from repro.core.vector_kernel import VectorStepKernel
from repro.errors import ConfigurationError, SimulationError
from repro.simulation.config import DEFAULT_CONFIG, DataCenterConfig
from repro.simulation.datacenter import DataCenter, build_datacenter
from repro.simulation.metrics import average_performance_improvement
from repro.workloads.traces import Trace

@dataclass(frozen=True)
class BatchRunResult:
    """SoA telemetry of one fixed-bound batch run.

    ``served`` is a ``(len(trace), n)`` matrix: column ``j`` is bound
    ``bounds[j]``'s served series, 0.0 from its failing step onward.
    ``performances[j]`` is the burst-window average performance
    improvement, NaN when the element failed — mirroring how the sweep
    maps a failed run to NaN rather than a measured 0.0.
    """

    bounds: np.ndarray
    served: np.ndarray
    failed: np.ndarray
    failed_kind: np.ndarray
    failed_step: np.ndarray
    performances: np.ndarray
    kernel: VectorStepKernel


class BatchFacility:
    """One facility substrate, advanced as a batch of candidate bounds."""

    def __init__(self, config: DataCenterConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        self._datacenter: DataCenter = build_datacenter(config)

    @property
    def datacenter(self) -> DataCenter:
        return self._datacenter

    def run_fixed_bounds(
        self,
        trace: Trace,
        bounds: Sequence[float],
        telemetry_fields: Optional[Sequence[str]] = None,
    ) -> BatchRunResult:
        """Run every bound over ``trace`` in one vectorized lockstep pass.

        ``telemetry_fields`` selects the kernel's recorded columns
        (``None`` records none, ``TELEMETRY_FIELDS`` all of them).
        """
        if abs(trace.dt_s - self.config.dt_s) > 1e-9:
            raise ConfigurationError(
                f"trace sampling period ({trace.dt_s:g} s) does not match "
                f"the controller step ({self.config.dt_s:g} s); resample "
                "the trace or set the config's dt_s accordingly"
            )
        datacenter = self._datacenter
        datacenter.reset()
        controller = datacenter.controller(FixedUpperBoundStrategy(1.0))
        controller.strategy.reset()
        kernel = VectorStepKernel(
            datacenter.cluster,
            datacenter.topology,
            datacenter.cooling,
            controller,
            np.asarray(bounds, dtype=np.float64),
            telemetry_fields=telemetry_fields,
        )
        dt = trace.dt_s
        served = np.empty((len(trace), kernel.n), dtype=np.float64)
        for i, sample in enumerate(trace.samples):
            served[i] = kernel.step(float(sample), i * dt)
        performances = np.full(kernel.n, math.nan)
        for j in range(kernel.n):
            if not kernel.failed[j]:
                performances[j] = average_performance_improvement(
                    served[:, j], trace
                )
        return BatchRunResult(
            bounds=kernel.bounds,
            served=served,
            failed=kernel.failed,
            failed_kind=kernel.failed_kind,
            failed_step=kernel.failed_step,
            performances=performances,
            kernel=kernel,
        )

    def run_demand_matrix(
        self,
        demand: np.ndarray,
        dt_s: float,
        bounds: Sequence[float],
        telemetry_fields: Optional[Sequence[str]] = None,
    ) -> Tuple[np.ndarray, VectorStepKernel]:
        """Advance a batch where every element has its *own* demand series.

        ``demand`` is a ``(n_steps, len(bounds))`` matrix — column ``j``
        drives element ``j``, whose fixed upper bound is ``bounds[j]``.
        This is how the packed sweep tier fuses grid points over
        *different* traces (same length, same sampling period) into one
        lockstep kernel run: every kernel operation is elementwise over
        the batch axis, so each column evolves exactly as it would in a
        batch fed only its own trace.

        ``dt_s`` is the demand sampling period, validated against the
        controller step exactly like :meth:`run_fixed_bounds` and used for
        the step timestamps (``i * dt_s``, matching the scalar engine).
        Returns ``(served, kernel)``: the served matrix (0.0 from an
        element's failing step onward) and the kernel, whose per-element
        aggregates and selected telemetry columns the caller reduces.
        """
        if abs(dt_s - self.config.dt_s) > 1e-9:
            raise ConfigurationError(
                f"demand sampling period ({dt_s:g} s) does not match "
                f"the controller step ({self.config.dt_s:g} s); resample "
                "the demand or set the config's dt_s accordingly"
            )
        demand_matrix = np.asarray(demand, dtype=np.float64)
        bound_arr = np.asarray(bounds, dtype=np.float64)
        if (
            demand_matrix.ndim != 2
            or demand_matrix.shape[1] != bound_arr.size
        ):
            raise ConfigurationError(
                f"demand must have shape (n_steps, {bound_arr.size}), "
                f"got {demand_matrix.shape!r}"
            )
        datacenter = self._datacenter
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
        served = np.empty_like(demand_matrix)
        for i in range(demand_matrix.shape[0]):
            served[i] = kernel.step(demand_matrix[i], i * dt_s)
        return served, kernel


#: Per-process BatchFacility cache, mirroring the worker facility cache in
#: :mod:`repro.simulation.batch`: every run resets the substrate, so only
#: construction cost is amortised, never state.
_FACILITY_CACHE: Dict[str, BatchFacility] = {}


def _batch_facility_for(config: DataCenterConfig) -> BatchFacility:
    """This process's cached batch facility for ``config``."""
    key = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    facility = _FACILITY_CACHE.get(key)
    if facility is None:
        facility = BatchFacility(config)
        _FACILITY_CACHE[key] = facility
    return facility


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
    result = _batch_facility_for(config).run_fixed_bounds(
        trace, [float(c) for c in candidates]
    )
    best = strict_argmax(result.performances.tolist())
    if best is None:
        raise SimulationError(
            "oracle search failed: every candidate upper bound's run "
            f"failed on trace {trace.name!r}"
        )
    return float(candidates[best]), float(result.performances[best])
