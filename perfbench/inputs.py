"""Seeded input generation for the benchmark workloads.

Every input the program sees is built here from ``(seed, workload,
index)``: task ``i`` of a workload depends only on those three values, so
the same seed gives byte-identical inputs however many tasks a run gets
through, and a run can be re-checked on a seed nobody tuned against.

The inputs are plain data (numpy sample arrays and small frozen records);
:mod:`perfbench.workloads` turns them into program objects.

Run-to-run steadiness comes from how the parameters are drawn.  Which kind
of task sits at index ``i`` follows short fixed cycles of co-prime lengths,
and each cost-driving parameter (burst degree and length, bound, fault
time, MPC horizon, ...) is ``u = (offset + i * alpha) mod 1`` for an
irrational ``alpha`` per parameter and an ``offset`` drawn from the seed
(:class:`Draw`).  Any prefix of the stream therefore covers every
parameter's range evenly, whatever the seed, so the cost mix of a run, and
with it its timings, barely depends on the seed.  Per-sample noise comes
from an ordinary seeded generator.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, TypeVar

import numpy as np

#: Stable ids of the input streams (part of every task's RNG seed).  The
#: ``runs`` workload interleaves the ``simulate``, ``faulted`` and ``mpc``
#: streams.
WORKLOAD_IDS = {"simulate": 1, "faulted": 2, "mpc": 3, "sweep": 4, "runs": 5}

#: Demand samples are 1 s apart, the default facility's control period.
DT_S = 1.0

#: One irrational step per parameter dimension: fractional parts of the
#: square roots of the first primes.
_ALPHAS = tuple(
    math.sqrt(p) % 1.0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
)

T = TypeVar("T")


def rng_for(seed: int, workload: str, index: int, salt: int = 0) -> np.random.Generator:
    """An ordinary seeded generator for task ``index`` (``salt`` > 0 for
    the benchmark's own sampling, 0 for input noise)."""
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], index, salt])


class Draw:
    """The parameters of task ``index``: dimension ``dim`` reads
    ``(offset[dim] + index * alpha[dim]) mod 1``."""

    def __init__(self, seed: int, workload: str, index: int) -> None:
        self.index = index
        self.offsets = np.random.default_rng(
            [seed, WORKLOAD_IDS[workload]]
        ).random(len(_ALPHAS))
        #: Per-sample noise of this task.
        self.rng = rng_for(seed, workload, index)

    def u(self, dim: int) -> float:
        return float((self.offsets[dim] + self.index * _ALPHAS[dim]) % 1.0)

    def uniform(self, dim: int, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.u(dim)

    def pick(self, dim: int, options: Sequence[T]) -> T:
        return options[int(self.u(dim) * len(options))]


# ---------------------------------------------------------------------------
# Demand traces
# ---------------------------------------------------------------------------
def _smooth(levels: np.ndarray, window: int = 15) -> np.ndarray:
    """Moving-average ramps between segments, as aggregate traffic has."""
    pad = np.concatenate(
        [np.full(window, levels[0]), levels, np.full(window, levels[-1])]
    )
    out = np.convolve(pad, np.ones(window) / window, mode="same")
    return out[window : window + len(levels)]


def ms_like(d: Draw, n: int, dim: int) -> np.ndarray:
    """A jittered MS-style trace: three burst clusters with oscillation.

    Every sample carries fresh multiplicative noise, so the trace is one
    span per sample, like the packaged MS trace.  Uses dimensions
    ``dim .. dim + 2``.
    """
    rng = d.rng
    levels = np.full(n, rng.uniform(0.55, 0.8))
    t = np.arange(n) * DT_S
    total = d.uniform(dim, 0.15, 0.4) * n
    degree = d.uniform(dim + 1, 1.8, 3.2)
    starts = np.sort(rng.uniform(0.05, 0.75, 3)) * n
    shares = rng.dirichlet(np.ones(3))
    for start, share in zip(starts, shares):
        mask = (t >= start) & (t < start + share * total)
        levels[mask] = degree * rng.uniform(0.85, 1.15)
    period = d.uniform(dim + 2, 60.0, 120.0)
    burst = levels > 1.0
    levels[burst] *= 1.0 + 0.15 * np.sin(2.0 * np.pi * t[burst] / period)
    samples = _smooth(np.minimum(levels, 3.45)) * rng.normal(1.0, 0.04, n)
    return np.clip(samples, 0.0, None)


def yahoo_like(
    rng: np.random.Generator,
    n: int,
    degree: float,
    duration_s: float,
    start_s: float,
) -> np.ndarray:
    """A jittered Yahoo-style trace: a smooth arc plus one injected burst."""
    t = np.arange(n) * DT_S
    arc = 0.775 + 0.225 * np.sin(2.0 * np.pi * (t / n * 0.5 - 0.08))
    base = np.clip(arc + rng.normal(0.0, 0.02, n), 0.0, None)
    base /= base.max()
    i0 = int(start_s / DT_S)
    i1 = min(n, i0 + int(duration_s / DT_S))
    base[i0:i1] = degree * base[i0:i1] * rng.normal(1.0, 0.05, i1 - i0)
    return np.clip(base, 0.0, None)


def random_yahoo(d: Draw, n: int, dim: int) -> np.ndarray:
    """A Yahoo-style trace with drawn burst degree, length and start
    (dimensions ``dim .. dim + 2``)."""
    return yahoo_like(
        d.rng,
        n,
        d.uniform(dim, 2.4, 3.6),
        d.uniform(dim + 1, 0.15, 0.45) * n,
        d.uniform(dim + 2, 0.1, 0.3) * n,
    )


def plateau(d: Draw, n: int, dim: int) -> np.ndarray:
    """Held demand levels, as metered demand reports them.

    Segments of 60-300 s alternate between sub-capacity and burst levels
    quantised to 0.05, so long constant spans give the span engine's
    steady-cycle fast-forward something to replay.  The burst level is
    dimension ``dim``.
    """
    rng = d.rng
    burst_level = d.uniform(dim, 1.5, 3.0)
    out = np.empty(n)
    i = 0
    burst = bool(rng.integers(0, 2))
    while i < n:
        length = int(rng.integers(60, 301))
        if burst:
            level = burst_level * rng.uniform(0.9, 1.1)
        else:
            level = rng.uniform(0.4, 0.95)
        out[i : i + length] = round(level * 20.0) / 20.0
        i += length
        burst = not burst
    return out


#: Trace families of the fault-free and faulted workloads, cycled by index:
#: half jittered (one span per sample), half plateau.
RUN_FAMILIES = ("ms", "plateau", "yahoo", "plateau")


def family_trace(d: Draw, family: str, n: int, dim: int) -> np.ndarray:
    if family == "ms":
        return ms_like(d, n, dim)
    if family == "yahoo":
        return random_yahoo(d, n, dim)
    return plateau(d, n, dim)


# ---------------------------------------------------------------------------
# Task inputs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StrategyInput:
    """``kind`` is greedy | fixed | heuristic | mpc; the rest per kind."""

    kind: str
    value: float = 0.0
    replan_s: Optional[float] = None
    horizon_s: float = 0.0
    forecast: str = "perfect"
    predicted_s: Optional[float] = None


@dataclass(frozen=True)
class RunInput:
    """One simulation run: trace, strategy, fault plan or utility events."""

    family: str
    samples: np.ndarray
    strategy: StrategyInput
    faults: Tuple[str, ...] = ()
    #: ``(kind, start_s, duration_s, magnitude)`` utility disturbances; a
    #: non-empty tuple selects ``run_with_utility_events``.
    utility: Tuple[Tuple[str, float, float, float], ...] = ()


@dataclass(frozen=True)
class SweepInput:
    """One user request against the sweep runner.

    ``kind`` is table | oracle | headroom | pue | reask.  ``traces`` holds
    the request's demand traces (one per table point, else one); ``grid``
    holds a table's ``(duration_min, degree)`` points and ``values`` a
    sensitivity sweep's headroom or PUE values; ``repeat_of`` names the
    request a re-ask repeats.
    """

    kind: str
    traces: Tuple[np.ndarray, ...] = ()
    grid: Tuple[Tuple[float, float], ...] = ()
    values: Tuple[float, ...] = ()
    candidates: Tuple[float, ...] = ()
    strategy: Optional[StrategyInput] = None
    faults: Tuple[str, ...] = ()
    repeat_of: Optional[int] = None


_STRATEGY_CYCLE = ("greedy", "fixed", "heuristic")
_FAULT_CYCLE = ("gap", "chiller", "breaker", "derate", "ups", "tes")


def _strategy(d: Draw, kind: str, dim: int) -> StrategyInput:
    if kind == "fixed":
        return StrategyInput("fixed", round(d.uniform(dim, 1.5, 4.0), 2))
    if kind == "heuristic":
        return StrategyInput("heuristic", round(d.uniform(dim, 2.0, 3.6), 2))
    return StrategyInput("greedy")


def fault_spec(d: Draw, kind: str, n: int, dim: int) -> str:
    """One ``repro`` fault spec of ``kind`` (dimensions ``dim``, ``dim + 1``)."""
    if kind == "gap":
        # A late telemetry gap: benign, it only holds the last sample.
        at = int(d.uniform(dim, 0.85, 0.95) * n)
        return f"gap@{at}s:duration={int(d.uniform(dim + 1, 20, 90))}"
    at = int(d.uniform(dim, 0.15, 0.7) * n)
    lo, hi = {
        "breaker": (0.2, 0.6),
        "derate": (0.1, 0.4),
        "ups": (0.3, 0.8),
        "tes": (0.5, 1.0),
        "chiller": (0.5, 1.0),
    }[kind]
    return f"{kind}@{at}s:fraction={d.uniform(dim + 1, lo, hi):.2f}"


def simulate_input(seed: int, index: int) -> RunInput:
    """Fault-free one-hour run: strategy cycles by 3, trace family by 4."""
    d = Draw(seed, "simulate", index)
    family = RUN_FAMILIES[index % 4]
    strategy = _strategy(d, _STRATEGY_CYCLE[index % 3], 0)
    return RunInput(family, family_trace(d, family, 3600, 1), strategy)


def faulted_input(seed: int, index: int) -> RunInput:
    """Half-hour faulted run: one in five is a utility-event run, the rest
    carry a fault plan whose first event kind cycles by 6; every third
    plan adds a late telemetry gap."""
    d = Draw(seed, "faulted", index)
    n = 1800
    family = RUN_FAMILIES[index % 4]
    strategy = _strategy(d, _STRATEGY_CYCLE[index % 3], 0)
    samples = family_trace(d, family, n, 1)
    if index % 5 == 4:
        kind = d.pick(4, ("spike", "sag", "outage"))
        magnitude = {"spike": 1.1, "sag": 0.7, "outage": 1.0}[kind]
        start = float(int(d.uniform(5, 0.1, 0.7) * n))
        event = (kind, start, float(int(d.uniform(6, 30, 180))), magnitude)
        return RunInput(family, samples, strategy, utility=(event,))
    faults = [fault_spec(d, _FAULT_CYCLE[index % 6], n, 7)]
    if index % 3 == 1:
        faults.append(fault_spec(d, "gap", n, 9))
    return RunInput(family, samples, strategy, faults=tuple(faults))


#: MPC candidate grid of the two-PDU matrix benchmark.
MPC_CANDIDATES = (2.0, 2.5, 3.0, 3.5, 4.0)
#: Re-plan cadences by slot: plan-once in two of five, then 120, 90, 60 s.
_REPLAN_CYCLE = (None, 120.0, None, 90.0, 60.0)
_FORECAST_CYCLE = ("perfect", "predicted", "perfect")


def mpc_input(seed: int, index: int) -> RunInput:
    """MPC run on a 900 s Yahoo burst: re-plan cadence cycles by 5,
    forecast by 3, and one run in seven is under a fault plan."""
    d = Draw(seed, "mpc", index)
    n = 900
    duration = d.uniform(0, 90.0, 180.0)
    samples = yahoo_like(d.rng, n, d.uniform(1, 2.6, 3.6), duration, d.uniform(2, 120.0, 240.0))
    forecast = _FORECAST_CYCLE[index % 3]
    strategy = StrategyInput(
        "mpc",
        replan_s=_REPLAN_CYCLE[index % 5],
        horizon_s=d.pick(3, (60.0, 90.0, 120.0, 150.0)),
        forecast=forecast,
        predicted_s=round(duration * d.uniform(4, 0.75, 1.25)) if forecast == "predicted" else None,
    )
    faults: Tuple[str, ...] = ()
    if index % 7 == 3:
        faults = (fault_spec(d, d.pick(5, _FAULT_CYCLE[1:]), n, 6),)
    return RunInput("yahoo", samples, strategy, faults=faults)


#: Request kinds of the sweep stream, cycled by index; two in ten re-ask
#: an earlier request.  Ordered by cost the kinds are re-ask, sensitivity,
#: Oracle search, table, so the median lands among the sensitivity sweeps
#: and Oracle searches and the tail percentile (about p97) among the tables.
SWEEP_CYCLE = (
    "table", "oracle", "headroom", "reask", "oracle",
    "pue", "table", "reask", "oracle", "oracle",
)
#: The cycle slot whose Oracle search also asks for a bound below the
#: normal degree, which the shared-prefix tier declines: that search falls
#: through to the vector tier, or to per-candidate runs when faulted.
_SUB_NORMAL_SLOT = 8
SWEEP_TRACE_S = 900
_SWEEP_CANDIDATES = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
_HEADROOMS = (0.0, 0.05, 0.10, 0.15, 0.20)
_PUES = (1.2, 1.4, 1.53, 1.7, 1.9)


def sweep_input(seed: int, index: int) -> SweepInput:
    """One sweep request.  About a third of Oracle searches and
    sensitivity sweeps are faulted; a re-ask repeats a drawn earlier
    request."""
    d = Draw(seed, "sweep", index)
    slot = index % len(SWEEP_CYCLE)
    kind = SWEEP_CYCLE[slot]
    n = SWEEP_TRACE_S
    if kind == "reask":
        earlier = [i for i in range(index) if SWEEP_CYCLE[i % len(SWEEP_CYCLE)] != "reask"]
        return SweepInput("reask", repeat_of=d.pick(0, earlier))
    if kind == "table":
        durations = sorted(d.rng.choice([2.0, 4.0, 6.0, 8.0], 2, replace=False))
        degrees = sorted(d.rng.choice([2.6, 2.8, 3.0, 3.2, 3.4, 3.6], 2, replace=False))
        grid = tuple((float(t), float(g)) for t in durations for g in degrees)
        traces = tuple(
            yahoo_like(d.rng, n, degree, duration * 60.0, 120.0) for duration, degree in grid
        )
        return SweepInput("table", traces=traces, grid=grid, candidates=_candidates(d, 1))
    faults: Tuple[str, ...] = ()
    if (index // len(SWEEP_CYCLE) + index) % 3 == 0:
        faults = (fault_spec(d, d.pick(2, _FAULT_CYCLE), n, 3),)
    if kind == "oracle":
        candidates = _candidates(d, 1)
        if slot == _SUB_NORMAL_SLOT:
            candidates = (0.75,) + candidates[1:]
        return SweepInput(
            "oracle", traces=(random_yahoo(d, n, 5),), candidates=candidates, faults=faults
        )
    choices = _HEADROOMS if kind == "headroom" else _PUES
    values = tuple(sorted(float(v) for v in d.rng.choice(choices, 3, replace=False)))
    strategy = _strategy(d, ("greedy", "heuristic")[(index // len(SWEEP_CYCLE)) % 2], 8)
    return SweepInput(
        kind, traces=(ms_like(d, n, 5),), values=values, strategy=strategy, faults=faults
    )


def _candidates(d: Draw, dim: int) -> Tuple[float, ...]:
    """Four or five ascending candidate bounds from the sweep grid."""
    k = d.pick(dim, (4, 5))
    return tuple(sorted(float(c) for c in d.rng.choice(_SWEEP_CANDIDATES, k, replace=False)))


#: Run kinds of the ``runs`` workload, cycled by index: four fault-free
#: runs, four faulted ones and two MPC runs in every ten.  The MPC runs are
#: the dearest, so the tail percentile (about p98.5) lands among them.
RUNS_CYCLE = (
    "simulate", "faulted", "simulate", "faulted", "mpc",
    "simulate", "faulted", "simulate", "faulted", "mpc",
)
_STREAMS = {"simulate": simulate_input, "faulted": faulted_input, "mpc": mpc_input}


def runs_input(seed: int, index: int) -> RunInput:
    """Task ``index`` of the ``runs`` workload: the next input of the
    stream its cycle slot names, so each stream keeps its own cycles."""
    cycle, slot = divmod(index, len(RUNS_CYCLE))
    kind = RUNS_CYCLE[slot]
    per_cycle = RUNS_CYCLE.count(kind)
    sub_index = cycle * per_cycle + RUNS_CYCLE[:slot].count(kind)
    return _STREAMS[kind](seed, sub_index)


MAKERS = {"runs": runs_input, "sweep": sweep_input}


def input_digest(item: object) -> bytes:
    """SHA-256 over the canonical bytes of one generated input."""
    h = hashlib.sha256()
    for name, value in sorted(vars(item).items()):
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(value.tobytes())
        elif isinstance(value, tuple) and value and isinstance(value[0], np.ndarray):
            for arr in value:
                h.update(arr.tobytes())
        else:
            h.update(repr(value).encode())
    return h.digest()
