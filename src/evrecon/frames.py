"""Accumulate events into per-interval frames of log-intensity change.

Each frame k holds C * (signed event count) per pixel over interval k:
the discrete estimate of the log-intensity increment across that bin.
Intervals are half-open [start, end); the final interval also includes
its right edge, so the bins tile the stream window exactly. Signed counts
are kept alongside the scaled frames so conservation checks stay exact.

`refine_bins` bisects every interval at the median event time, which
doubles the temporal resolution while balancing the event count between
children. This is the coarse-to-fine ladder the trainer climbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyStream
from .events import EventStream, require_nonempty


@dataclass
class EventFrameStack:
    """T accumulated frames with interval metadata.

    frames[k] == threshold_C * counts[k]; counts holds exact signed event
    counts per pixel (stored as float64 integers).
    """

    counts: np.ndarray  # (T, H, W) signed event counts
    intervals: np.ndarray  # (T, 2) seconds
    threshold_C: float

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.float64)
        self.intervals = np.asarray(self.intervals, dtype=np.float64)
        if self.counts.ndim != 3 or self.intervals.shape != (len(self.counts), 2):
            raise ValueError("counts must be (T,H,W) with matching (T,2) intervals")
        if len(self.counts) < 1:
            raise ValueError("need at least one frame")
        if self.threshold_C <= 0:
            raise ValueError("threshold_C must be positive")
        durs = self.intervals[:, 1] - self.intervals[:, 0]
        if np.any(durs <= 0):
            raise ValueError("every interval needs positive duration")
        if np.any(self.intervals[1:, 0] != self.intervals[:-1, 1]):
            raise ValueError("intervals must tile without gaps or overlaps")

    @property
    def num_frames(self) -> int:
        return len(self.counts)

    @property
    def frames(self) -> np.ndarray:
        """(T, H, W) log-intensity change per bin: C * signed counts."""
        return self.counts * self.threshold_C

    @property
    def midpoints(self) -> np.ndarray:
        return (self.intervals[:, 0] + self.intervals[:, 1]) / 2.0

    @property
    def durations(self) -> np.ndarray:
        return self.intervals[:, 1] - self.intervals[:, 0]

    @property
    def t_start(self) -> float:
        return float(self.intervals[0, 0])

    @property
    def t_end(self) -> float:
        return float(self.intervals[-1, 1])

    def pixel_sums(self) -> np.ndarray:
        """Per-pixel sum of ΔL over all bins (the conserved quantity)."""
        return self.counts.sum(axis=0) * self.threshold_C


def _bin_edges_to_slices(stream: EventStream, edges: np.ndarray) -> list[slice]:
    """Event index ranges per interval; events on an edge go to the later
    interval, the final interval keeps its right endpoint."""
    idx = np.searchsorted(stream.t, edges, side="left")
    idx[-1] = np.searchsorted(stream.t, edges[-1], side="right")
    return [slice(int(idx[k]), int(idx[k + 1])) for k in range(len(edges) - 1)]


def _accumulate(stream: EventStream, edges: np.ndarray) -> np.ndarray:
    """(T, H, W) signed event counts for intervals defined by edges."""
    T = len(edges) - 1
    h, w = stream.height, stream.width
    counts = np.zeros((T, h, w), dtype=np.float64)
    flat = stream.y * w + stream.x
    for k, sl in enumerate(_bin_edges_to_slices(stream, edges)):
        if sl.stop > sl.start:
            counts[k] = np.bincount(
                flat[sl], weights=stream.polarity[sl].astype(np.float64), minlength=h * w
            ).reshape(h, w)
    return counts


def stack_uniform(stream: EventStream, bin_duration: float, C: float) -> EventFrameStack:
    """Stack events into T = ceil(window / bin_duration) uniform bins.

    The last bin absorbs the remainder, so it may be shorter. Requires a
    non-empty stream and positive bin duration.
    """
    require_nonempty(stream)
    if bin_duration <= 0:
        raise ValueError("bin_duration must be positive")
    if C <= 0:
        raise ValueError("C must be positive")
    span = stream.duration
    if span <= 0:
        raise EmptyStream("stream window has zero duration; nothing to bin")
    T = max(1, math.ceil(span / bin_duration))
    edges = stream.t_start + bin_duration * np.arange(T + 1, dtype=np.float64)
    edges[-1] = stream.t_end
    if edges[-1] <= edges[-2]:  # span an exact multiple, up to float rounding
        T -= 1
        edges = edges[:-1]
        edges[-1] = stream.t_end
    intervals = np.stack([edges[:-1], edges[1:]], axis=1)
    return EventFrameStack(_accumulate(stream, edges), intervals, threshold_C=C)


def _split_time(times: np.ndarray, lo: float, hi: float) -> float:
    """Bisection point for one interval: midpoint of the two middle event
    times, interval midpoint when fewer than 2 events or when the median
    collapses onto an edge."""
    mid = 0.5 * (lo + hi)
    m = len(times)
    if m < 2:
        return mid
    split = 0.5 * (times[(m - 1) // 2] + times[m // 2])
    if not (lo < split < hi):
        return mid
    return split


def refine_bins(stack: EventFrameStack, stream: EventStream) -> EventFrameStack:
    """Bisect every interval at its median event time, doubling T.

    Children of each interval hold event counts differing by at most one
    (exact ties in timestamps can skew this, since the boundary is a single
    time). Per-pixel ΔL sums are preserved exactly: children partition the
    parent's events.
    """
    old_edges = np.concatenate([stack.intervals[:, 0], stack.intervals[-1, 1:]])
    slices = _bin_edges_to_slices(stream, old_edges)
    new_edges = [old_edges[0]]
    for k, sl in enumerate(slices):
        lo, hi = stack.intervals[k]
        new_edges.append(_split_time(stream.t[sl], lo, hi))
        new_edges.append(hi)
    edges = np.asarray(new_edges, dtype=np.float64)
    intervals = np.stack([edges[:-1], edges[1:]], axis=1)
    return EventFrameStack(_accumulate(stream, edges), intervals, stack.threshold_C)

