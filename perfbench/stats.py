"""The benchmark's own arithmetic: percentiles, open-loop timing, failure
shares and span self time.

Everything here is pure (no clock, no I/O) so the unit tests in
``perfbench/tests`` pin it exactly.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles the report considers for a timing's tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is only claimed when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks (the "inclusive" definition: p0 is the minimum, p100 the
    maximum)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_tail(count: int, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest percentile of :data:`TAIL_LADDER` with at least
    ``min_beyond`` of ``count`` samples beyond it, or ``None``."""
    for q in TAIL_LADDER:
        # Round before comparing: 1000 * (1 - 0.99) is 9.999... in floats.
        if round(count * (100.0 - q) / 100.0, 9) >= min_beyond:
            return q
    return None


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def open_loop(
    due: Sequence[float], started: Sequence[float], done: Sequence[float]
) -> Tuple[List[float], List[float]]:
    """Latency from each request's *due* time and how late it was issued.

    Timing from the due time (not from when the generator got round to
    issuing the request) charges a stall to every request it delays.
    """
    if not len(due) == len(started) == len(done):
        raise ValueError("due, started and done must have one entry per request")
    latency = [d - t for t, d in zip(due, done)]
    late = [max(0.0, s - t) for t, s in zip(due, started)]
    return latency, late


def ok_share(attempted: int, failed: int) -> float:
    """Share of attempted operations that succeeded (1 - failed share)."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed ({failed}) must be within [0, attempted={attempted}]")
    return 1.0 - failed / attempted


class Tally:
    """Counts attempted and failed operations, oracle checks included.

    An operation fails if it raised, was shed or rejected, or failed its
    oracle check; each oracle check is itself an attempted operation.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if reason:
                self.reasons.append(reason)

    @property
    def ok_share(self) -> float:
        return ok_share(self.attempted, self.failed)


# ------------------------------------------------------------------ spans

#: One recorded span: name, start, end, parent index (-1 for a root) and
#: the recording thread's identifier.
Span = Tuple[str, float, float, int, int]


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _thread in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_name, start, end, _parent, _thread) in enumerate(spans):
        inside = [
            (max(start, s), min(end, e))
            for s, e in children.get(index, ())
            if min(end, e) > max(start, s)
        ]
        result.append((end - start) - union_length(inside))
    return result


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per span name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


def coverage(spans: Sequence[Span], op_name: str) -> float:
    """Share of the ``op_name`` spans' wall time spent inside child spans.

    The remainder is the operation's own self time: façade code between
    calls into the named layers, or waiting outside any of them.
    """
    own = self_times(spans)
    wall = covered = 0.0
    for span, self_time in zip(spans, own):
        if span[0] == op_name:
            duration = span[2] - span[1]
            wall += duration
            covered += duration - self_time
    return covered / wall if wall > 0 else 0.0


def has_ancestor(spans: Sequence[Span], index: int, name: str) -> bool:
    """Whether span ``index`` runs (transitively) inside a span ``name``."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
