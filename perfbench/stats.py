"""Summary statistics of per-task times."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

#: Samples the tail percentile must leave beyond it.
TAIL_MIN_BEYOND = 10


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, value)`` of the highest nearest-rank percentile that
    leaves at least :data:`TAIL_MIN_BEYOND` samples beyond it: the 11th
    largest sample, at percentile ``100 * (n - 10) / n``.  ``None`` when
    there are too few samples to leave ten beyond."""
    n = len(values)
    if n <= TAIL_MIN_BEYOND:
        return None
    return 100.0 * (n - TAIL_MIN_BEYOND) / n, sorted(values)[n - TAIL_MIN_BEYOND - 1]
