"""Accumulate events into per-bin frames of log-intensity change.

Bins are given by one increasing vector of T+1 edges. Each frame k holds
C * (signed event count) per pixel over bin k = [edges[k], edges[k+1]);
the final bin also includes its right edge, so the bins tile the window
[edges[0], edges[-1]] exactly. Signed counts are kept alongside the scaled
frames so conservation checks stay exact.

`refine_bins` bisects every bin at the median event time, which doubles
the temporal resolution while balancing the event count between
children. This is the coarse-to-fine ladder the trainer climbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyStream, NonPositiveThreshold, ShapeMismatch, ZeroWidthBin
from .events import EventStream, require_nonempty


@dataclass
class EventFrameStack:
    """T accumulated frames over the bins between T+1 edges.

    frames[k] == threshold_C * counts[k]; counts holds exact signed event
    counts per pixel (stored as float64 integers) over [edges[k], edges[k+1]).
    """

    counts: np.ndarray  # (T, H, W) signed event counts
    edges: np.ndarray  # (T+1,) seconds, strictly increasing
    threshold_C: float

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.float64)
        self.edges = np.asarray(self.edges, dtype=np.float64)
        if self.counts.ndim != 3 or self.edges.shape != (len(self.counts) + 1,):
            raise ShapeMismatch("counts must be (T,H,W) with matching (T+1,) edges")
        if len(self.counts) < 1:
            raise ShapeMismatch("need at least one frame")
        if self.threshold_C <= 0:
            raise NonPositiveThreshold("threshold_C must be positive")
        bad = np.flatnonzero(~(np.diff(self.edges) > 0))  # also catches NaN edges
        if len(bad):
            k = int(bad[0])
            raise ZeroWidthBin(f"bin {k} of {self.num_frames} spans [{float(self.edges[k])!r}, "
                               f"{float(self.edges[k + 1])!r}]: every bin needs positive width")

    @property
    def num_frames(self) -> int:
        return len(self.counts)

    @property
    def frames(self) -> np.ndarray:
        """(T, H, W) log-intensity change per bin: C * signed counts."""
        return self.frames_as(np.float64)

    def frames_as(self, dtype) -> np.ndarray:
        """`frames` computed in float64 and rounded once to dtype, element
        by element, with no whole-stack float64 temporary."""
        return np.multiply(self.counts, self.threshold_C, out=np.empty(self.counts.shape, dtype))

    @property
    def midpoints(self) -> np.ndarray:
        return (self.edges[:-1] + self.edges[1:]) / 2.0

    @property
    def durations(self) -> np.ndarray:
        return self.edges[1:] - self.edges[:-1]

    def pixel_sums(self) -> np.ndarray:
        """Per-pixel sum of ΔL over all bins (the conserved quantity)."""
        return self.counts.sum(axis=0) * self.threshold_C


def _first_events(t: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """(T+1,) event indices: bin k holds events first[k]:first[k+1]. An
    event on an edge goes to the later bin; the final bin keeps its right
    endpoint."""
    first = np.searchsorted(t, edges, side="left")
    first[-1] = np.searchsorted(t, edges[-1], side="right")
    return first


def _accumulate(stream: EventStream, edges: np.ndarray) -> np.ndarray:
    """(T, H, W) signed event counts for the bins between edges, in one
    bincount over (bin, pixel) keys."""
    first = _first_events(stream.t, edges)
    T = len(edges) - 1
    h, w = stream.height, stream.width
    sl = slice(first[0], first[-1])
    bins = np.repeat(np.arange(T), np.diff(first))
    keys = bins * (h * w) + stream.y[sl] * w + stream.x[sl]
    counts = np.bincount(keys, weights=stream.polarity[sl].astype(np.float64),
                         minlength=T * h * w)
    return counts.reshape(T, h, w)


def stack_uniform(stream: EventStream, bin_duration: float, C: float) -> EventFrameStack:
    """Stack events into T = ceil(window / bin_duration) uniform bins.

    The last bin absorbs the remainder, so it may be shorter. Requires a
    non-empty stream and positive bin duration.
    """
    require_nonempty(stream)
    if bin_duration <= 0:
        raise ZeroWidthBin("bin_duration must be positive")
    if C <= 0:
        raise NonPositiveThreshold("C must be positive")
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
    return EventFrameStack(_accumulate(stream, edges), edges, threshold_C=C)


def refine_bins(stack: EventFrameStack, stream: EventStream) -> EventFrameStack:
    """Bisect every bin at its median event time, doubling T.

    A bin with m >= 2 events splits at the midpoint of its two middle
    event times; a bin with fewer events, or whose split would not lie
    strictly inside it, splits at its own midpoint. Children hold event
    counts differing by at most one (exact ties in timestamps can skew
    this, since the boundary is a single time). Per-pixel ΔL sums are
    preserved exactly: children partition the parent's events.
    """
    lo, hi = stack.edges[:-1], stack.edges[1:]
    mid = 0.5 * (lo + hi)
    first = _first_events(stream.t, stack.edges)
    m = np.diff(first)
    k = np.flatnonzero(m >= 2)
    split = mid.copy()
    split[k] = 0.5 * (stream.t[first[k] + (m[k] - 1) // 2] + stream.t[first[k] + m[k] // 2])
    split = np.where((lo < split) & (split < hi), split, mid)
    edges = np.empty(2 * stack.num_frames + 1)
    edges[0::2] = stack.edges
    edges[1::2] = split
    return EventFrameStack(_accumulate(stream, edges), edges, stack.threshold_C)
