"""Accumulate events into per-bin frames of log-intensity change.

Bins are given by one increasing vector of T+1 edges. Each frame k holds
C * (signed event count) per pixel over bin k = [edges[k], edges[k+1]);
the final bin also includes its right edge, so the bins tile the window
[edges[0], edges[-1]] exactly. The stack stores the signed counts, as
int32, and scales them on demand (`frames_as`, whole or a few rows at a
time), so conservation checks stay exact.

`refine_bins` bisects every bin at its midpoint, doubling the temporal
resolution: the coarse-to-fine ladder the trainer climbs. No event time
places an edge, so each child is half its parent however many events
share a timestamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DtypeMismatch,
    EmptyStream,
    InvalidCounts,
    NonPositiveThreshold,
    ShapeMismatch,
    ZeroWidthBin,
    check_settings,
)
from .events import EventStream, first_not_increasing
from .metrics import blocks

_COUNT_RANGE = np.iinfo(np.int32)


def _as_counts(values) -> np.ndarray:
    """`values` as an int32 array; InvalidCounts when one is not a whole
    number within int32's range (NaN and infinities included)."""
    counts = np.asarray(values)
    if counts.dtype == np.int32:
        return counts
    if counts.size and not (counts.min() >= _COUNT_RANGE.min and counts.max() <= _COUNT_RANGE.max):
        raise InvalidCounts(f"event counts must lie in [{_COUNT_RANGE.min}, {_COUNT_RANGE.max}], "
                            f"got [{counts.min()}, {counts.max()}]")
    whole = counts.astype(np.int32)
    if not np.array_equal(whole, counts):
        raise InvalidCounts("event counts must be whole numbers")
    return whole


@dataclass
class EventFrameStack:
    """T accumulated frames over the bins between T+1 edges.

    Frame k, threshold_C * counts[k], is the log-intensity change over
    [edges[k], edges[k+1]); counts holds the exact signed event counts per
    pixel as int32, and any other whole numbers in int32's range are
    converted (InvalidCounts otherwise).
    """

    counts: np.ndarray  # (T, H, W) signed event counts, int32
    edges: np.ndarray  # (T+1,) seconds, strictly increasing
    threshold_C: float

    def __post_init__(self):
        self.counts = _as_counts(self.counts)
        self.edges = np.asarray(self.edges, dtype=np.float64)
        if self.counts.ndim != 3 or self.edges.shape != (len(self.counts) + 1,):
            raise ShapeMismatch("counts must be (T,H,W) with matching (T+1,) edges")
        if len(self.counts) < 1:
            raise ShapeMismatch("need at least one frame")
        check_settings(NonPositiveThreshold, threshold_C=self.threshold_C)
        k = first_not_increasing(self.edges)  # the right edge of the first bad bin
        if k is not None:
            raise ZeroWidthBin(f"bin {k - 1} of {self.num_frames} spans "
                               f"[{float(self.edges[k - 1])!r}, {float(self.edges[k])!r}]: "
                               "every bin needs positive width")

    @property
    def num_frames(self) -> int:
        return len(self.counts)

    def frames_as(self, dtype, rows=None, out: np.ndarray | None = None) -> np.ndarray:
        """(T, H, W) log-intensity change per bin, C * signed counts,
        computed in float64 and rounded once to dtype, element by element,
        with no float64 temporary. With `rows`, any index into the bins,
        only those frames: the bits of frames_as(dtype)[rows]. They are
        written into `out` when given, which must have their shape
        (ShapeMismatch) and dtype (DtypeMismatch); training fills one block
        of its scratch this way, so no whole-stack copy is made."""
        counts = self.counts if rows is None else self.counts[rows]
        if out is None:
            out = np.empty(counts.shape, dtype)
        elif out.shape != counts.shape:
            raise ShapeMismatch(f"out must have shape {counts.shape}, got {out.shape}")
        elif out.dtype != dtype:
            raise DtypeMismatch(f"out must be {np.dtype(dtype)}, got {out.dtype}")
        return np.multiply(counts, float(self.threshold_C), out=out)

    @property
    def midpoints(self) -> np.ndarray:
        return (self.edges[:-1] + self.edges[1:]) / 2.0

    @property
    def durations(self) -> np.ndarray:
        return self.edges[1:] - self.edges[:-1]

    def pixel_sums(self) -> np.ndarray:
        """Per-pixel sum of ΔL over all bins (the conserved quantity)."""
        return self.counts.sum(axis=0, dtype=np.float64) * self.threshold_C


def _accumulate(stream: EventStream, edges: np.ndarray) -> np.ndarray:
    """(T, H, W) int32 signed event counts for the bins between edges:
    one bincount over (bin, pixel) keys per `metrics.blocks` chunk of
    bins, written straight into the stack. Bin k holds events
    first[k]:first[k+1]; an event on an edge goes to the later bin, and
    the final bin keeps its right endpoint."""
    first = np.searchsorted(stream.t, edges, side="left")
    first[-1] = np.searchsorted(stream.t, edges[-1], side="right")
    T = len(edges) - 1
    h, w = stream.height, stream.width
    counts = np.empty((T, h, w), dtype=np.int32)
    for chunk in blocks(T, h * w):
        k, m = chunk.start, chunk.stop - chunk.start
        sl = slice(first[k], first[k + m])
        bins = np.repeat(np.arange(m), np.diff(first[k:k + m + 1]))
        keys = bins * (h * w) + stream.y[sl] * w + stream.x[sl]
        # sums of +-1.0: exact whole numbers
        counts[k:k + m] = np.bincount(keys, weights=stream.polarity[sl].astype(np.float64),
                                      minlength=m * h * w).reshape(m, h, w)
    return counts


def stack_uniform(stream: EventStream, bin_duration: float, C: float) -> EventFrameStack:
    """Stack events into T = max(1, ceil(window / bin_duration - 1e-9))
    uniform bins, the last ending at the window's end: it is shorter than
    the others, or longer by the sliver under 1e-9 bins that rounding can
    leave. A stream without events gives zero-count bins over its window:
    time without events is time the video covers, with nothing changing.
    Requires a window of positive duration and a finite positive bin
    duration; the stack checks C.
    """
    check_settings(ZeroWidthBin, bin_duration=bin_duration)
    span = stream.duration
    if span <= 0:
        raise EmptyStream("stream window has zero duration; nothing to bin")
    T = max(1, math.ceil(span / bin_duration - 1e-9))
    edges = stream.t_start + bin_duration * np.arange(T + 1, dtype=np.float64)
    edges[-1] = stream.t_end
    return EventFrameStack(_accumulate(stream, edges), edges, threshold_C=C)


def refine_bins(stack: EventFrameStack, stream: EventStream) -> EventFrameStack:
    """Bisect every bin at its midpoint, doubling T, and count the
    stream's events into the new bins. Per-pixel ΔL sums are preserved
    exactly: children partition the parent's events.
    """
    edges = np.empty(2 * stack.num_frames + 1)
    edges[0::2] = stack.edges
    edges[1::2] = stack.midpoints
    return EventFrameStack(_accumulate(stream, edges), edges, stack.threshold_C)
