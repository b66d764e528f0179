"""Summary statistics and the timed-loop helper shared by the workloads."""

from __future__ import annotations

import statistics
import time
from typing import Callable, Optional

# Candidate tail percentiles, highest first, in tenths of a percent so the
# rank arithmetic stays exact.
_TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)


def tail_percentile(samples: list[float]) -> Optional[tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it.

    Uses the nearest-rank definition: the p-th percentile of n sorted
    samples is the k-th smallest with k = ceil(p * n / 100), and n - k
    samples lie beyond it. Returns (p, value), or None when fewer than 20
    samples leave even the median without ten beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for permille in _TAIL_PERMILLE:
        k = -(-permille * n // 1000)
        if k >= 1 and n - k >= 10:
            return permille / 10, ordered[k - 1]
    return None


def describe(samples: list[float], unit: str, scale: float = 1.0) -> str:
    """'median X unit, pP Y unit, n=N' for a human-readable report line."""
    scaled = [s * scale for s in samples]
    text = f"median {statistics.median(scaled):.6g} {unit}"
    tail = tail_percentile(scaled)
    if tail is not None and tail[0] > 50:
        text += f", p{tail[0]:g} {tail[1]:.6g} {unit}"
    return text + f", n={len(samples)}"


def run_for(seconds: float, op: Callable[[], float], min_ops: int = 1,
            max_ops: Optional[int] = None) -> list[float]:
    """Call `op` (which returns its own wall time) until the next call is
    expected to end after `seconds`, at least `min_ops` and at most
    `max_ops` times. Returns the per-call walls."""
    walls: list[float] = []
    start = time.perf_counter()
    while max_ops is None or len(walls) < max_ops:
        if len(walls) >= min_ops:
            expected = statistics.fmean(walls)
            if time.perf_counter() - start + expected > seconds:
                break
        walls.append(op())
    return walls
