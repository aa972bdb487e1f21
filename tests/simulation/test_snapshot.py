"""Round-trip tests for the snapshot/fork engine.

:class:`~repro.simulation.snapshot.FacilityState` promises a bit-for-bit
round trip: capture a running facility, keep stepping, restore, and the
re-stepped run must reproduce the original continuation exactly — every
field of every :class:`ControlStep`, not approximately.  That contract is
what makes the shared-prefix Oracle search sound, so these tests compare
with ``==`` (NaN-aware where needed) and never with ``approx``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.strategies import FixedUpperBoundStrategy
from repro.errors import ConfigurationError
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import build_datacenter
from repro.simulation.engine import _run_faulted
from repro.simulation.faults import FaultEvent, FaultInjector, FaultPlan
from repro.simulation.snapshot import FacilityState, capture, restore
from repro.workloads.traces import Trace

SMALL = DataCenterConfig(n_pdus=2, servers_per_pdu=50)


def burst_trace(level=2.6, burst_s=240, total_s=480) -> Trace:
    values = [0.8] * 60 + [level] * burst_s
    values += [0.8] * (total_s - len(values))
    return Trace(np.asarray(values), 1.0, "burst")


def assert_steps_identical(a, b) -> None:
    """Field-by-field exact equality across two ControlStep sequences."""
    assert len(a) == len(b)
    for step_a, step_b in zip(a, b):
        for field in dataclasses.fields(step_a):
            va = getattr(step_a, field.name)
            vb = getattr(step_b, field.name)
            if isinstance(va, float):
                assert va == vb or (
                    math.isnan(va) and math.isnan(vb)
                ), field.name
            else:
                assert va == vb, field.name


class TestRoundTrip:
    def test_capture_is_deterministic(self):
        """Two captures with no step in between compare equal (NaN-aware:
        ``tripped_at_s`` starts as NaN)."""
        dc = build_datacenter(SMALL)
        controller = dc.controller(FixedUpperBoundStrategy(3.0))
        first = FacilityState.capture(dc, controller)
        second = FacilityState.capture(dc, controller)
        assert first == second

    def test_restore_round_trips_state(self):
        """capture → step onwards → restore → capture compares equal."""
        trace = burst_trace()
        dc = build_datacenter(SMALL)
        controller = dc.controller(FixedUpperBoundStrategy(3.0))
        for i, demand in enumerate(trace):
            if i == 120:
                break
            controller.step(demand, float(i))
        state = capture(dc, controller)
        for i in range(120, 200):
            controller.step(float(trace.samples[i]), float(i))
        assert FacilityState.capture(dc, controller) != state
        restore(state, dc, controller)
        assert FacilityState.capture(dc, controller) == state

    def test_forked_continuation_is_bit_identical(self):
        """The core contract: a restored run re-steps exactly the steps the
        uninterrupted run produced, mid-burst, onto a *fresh* controller."""
        trace = burst_trace()
        dc = build_datacenter(SMALL)
        controller = dc.controller(FixedUpperBoundStrategy(2.5))
        fork_at = 150  # mid-burst: breakers hot, battery draining
        for i in range(fork_at):
            controller.step(float(trace.samples[i]), float(i))
        state = FacilityState.capture(dc, controller)
        original = [
            controller.step(float(trace.samples[i]), float(i))
            for i in range(fork_at, len(trace.samples))
        ]
        forked_controller = dc.controller(FixedUpperBoundStrategy(2.5))
        forked_controller.strategy.reset()
        state.restore(dc, forked_controller)
        forked = [
            forked_controller.step(float(trace.samples[i]), float(i))
            for i in range(fork_at, len(trace.samples))
        ]
        assert_steps_identical(original, forked)

    def test_fork_with_fault_injector(self):
        """Snapshots carry injector state: pending events, armed expiries
        and rating mutations all resume exactly on the restored run."""
        trace = burst_trace(level=2.8, burst_s=300, total_s=540)
        plan = FaultPlan((
            FaultEvent.parse("chiller@100s:fraction=0.5,duration=120"),
            FaultEvent.parse("ups@260s:fraction=0.3"),
        ))
        dc = build_datacenter(SMALL)
        controller = dc.controller(FixedUpperBoundStrategy(3.0))
        injector = FaultInjector(plan, dc)
        fork_at = 180  # chiller outage active, UPS failure still pending
        samples, times, n = trace.samples, trace.times_s(), len(trace)
        try:
            _run_faulted(controller, injector, samples, times, 0, fork_at)
            state = FacilityState.capture(dc, controller, injector)
            _run_faulted(controller, injector, samples, times, fork_at, n)
            original = controller.history[fork_at:]
            forked_controller = dc.controller(FixedUpperBoundStrategy(3.0))
            forked_controller.strategy.reset()
            state.restore(dc, forked_controller, injector)
            _run_faulted(forked_controller, injector, samples, times, fork_at, n)
            forked = list(forked_controller.history)
        finally:
            injector.restore_substrate()
        assert_steps_identical(original, forked)


class TestGuards:
    def test_capture_rejects_foreign_controller(self):
        dc_a = build_datacenter(SMALL)
        dc_b = build_datacenter(SMALL)
        foreign = dc_b.controller(FixedUpperBoundStrategy(3.0))
        with pytest.raises(ConfigurationError, match="substrate"):
            FacilityState.capture(dc_a, foreign)

    def test_restore_requires_matching_injector_presence(self):
        dc = build_datacenter(SMALL)
        controller = dc.controller(FixedUpperBoundStrategy(3.0))
        injector = FaultInjector(FaultPlan(), dc)
        state = FacilityState.capture(dc, controller, injector)
        with pytest.raises(ConfigurationError, match="injector"):
            state.restore(dc, controller)
        bare = FacilityState.capture(dc, controller)
        with pytest.raises(ConfigurationError, match="injector"):
            bare.restore(dc, controller, injector)
