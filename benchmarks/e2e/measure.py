"""Measurement arithmetic of the end-to-end benchmark: pure functions.

Everything here is checked by ``selftest.py`` against hand-computed cases —
the percentile-eligibility rule, median-of-segments aggregation, open-loop
pacing from due times (against a fake clock), span self-time, and the
leak counters.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-th percentile; a
    percentile is trusted only where at least ten do."""
    return int(count * (100.0 - q) / 100.0 + 1e-9)


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def split_segments(count: int, segments: int) -> List[Tuple[int, int]]:
    """``segments`` contiguous index ranges covering ``range(count)`` whose
    sizes differ by at most one (earlier ranges take the remainder)."""
    if segments < 1 or count < segments:
        raise ValueError(f"cannot cut {count} samples into {segments} segments")
    base, extra = divmod(count, segments)
    bounds, lo = [], 0
    for index in range(segments):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def median_of_segments(values: Sequence[float]) -> Dict[str, float]:
    """The reported value of a metric: the median of its per-segment values,
    with the segment quartiles beside it.  One slow segment (a noisy
    neighbour's burst) moves a quartile, not the median."""
    values = [float(value) for value in values]
    if len(values) == 1:
        return {"value": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the run-to-run
    noise figure a metric's bound is compared with."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ---------------------------------------------------------------------------
# open loop
def poisson_schedule(rng: np.random.Generator, count: int, start_s: float,
                     duration_s: float) -> np.ndarray:
    """Due times of exactly ``count`` Poisson arrivals in ``[start_s,
    start_s + duration_s)``.

    Conditioned on their number, Poisson arrival times are sorted uniforms.
    Fixing the number per window keeps the offered rate of every segment
    identical across segments and seeds — what varies is the gaps, which
    stay exponential — so an open loop's per-segment rates measure the
    program, not the draw."""
    return start_s + np.sort(rng.uniform(0.0, duration_s, size=count))


def run_open_loop(due: Sequence[float], send: Callable[[int], None], *,
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep):
    """Call ``send(i)`` at ``start + due[i]`` for every ``i``, in order.

    The generator never skips or re-times a request: a send that runs late
    is sent at once and the ones behind it follow at their own due times,
    so a stall shows as lateness (and in every rtt, which is measured from
    the *due* time) instead of silently lowering the offered rate.
    Returns ``(start, send_started, send_ended)`` on the ``clock`` axis.
    """
    start = clock()
    started, ended = [], []
    for index, offset in enumerate(due):
        delay = start + offset - clock()
        if delay > 0:
            sleep(delay)
        started.append(clock())
        send(index)
        ended.append(clock())
    return start, started, ended


# ---------------------------------------------------------------------------
# spans
def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_time(start: float, end: float,
              children: Sequence[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover
    (children are clipped to the span; overlapping children count once)."""
    clipped = [(max(lo, start), min(hi, end)) for lo, hi in children
               if hi > start and lo < end]
    return (end - start) - union_length(clipped)


# ---------------------------------------------------------------------------
# leaks
def leak_snapshot() -> Dict[str, int]:
    """Live threads, open file descriptors and ``/dev/shm`` entries."""
    try:
        shm = len(os.listdir("/dev/shm"))
    except OSError:
        shm = 0
    return {"threads": threading.active_count(),
            "fds": len(os.listdir("/proc/self/fd")),
            "shm_segments": shm}


def leaks_since(before: Dict[str, int], settle_s: float = 2.0) -> Dict[str, int]:
    """What is still there that was not before set-up.  A handler thread
    that has answered but not yet exited is not a leak, so a non-zero count
    is re-read for up to ``settle_s`` before it is believed."""
    give_up = time.monotonic() + settle_s
    while True:
        now = leak_snapshot()
        delta = {key: now[key] - before[key] for key in before}
        if not any(delta.values()) or time.monotonic() >= give_up:
            return delta
        time.sleep(0.01)
