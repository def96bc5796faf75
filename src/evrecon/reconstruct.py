"""Sample trained networks into videos: stitching, offset anchoring, tone
mapping, and derivative-based event enhancement.

The training objective is invariant to a constant added to every output,
so each partition's network carries an arbitrary global offset. Stitching
removes the per-partition disagreement by chaining pairwise corrections
measured over the shared overlap windows (after which the per-pair
"subtract each mean, add the pair average" alignment is the identity),
and `anchor_offset` pins the one remaining global constant: it subtracts
the run's anchor, the median of partition 0's frames on its anchor grid
of ANCHOR_SAMPLES evenly spaced times over its span. The anchor depends on
the run alone, so the frame at a time does not depend on which other
times were requested. A time inside the overlap of two neighboring spans
crossfades their networks; any other time takes the last partition whose
span starts at or before it.

Sample times must be strictly increasing. Sampling computes the anchor
first, then writes each network's output straight into the one (N, H, W)
float64 array of the `LogVideo`, which `anchor_offset` shifts in place.
Tone mapping and the enhancement display mapping work one block of whole
frames at a time, so besides that array and the uint8 output only
batch-, grid- and block-sized temporaries are made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteFrames,
    NonPositiveSetting,
    ShapeMismatch,
    TimeOutOfRange,
    check_settings,
)
from .events import check_increasing, check_times
from .metrics import frame_blocks, quantize
from .siren import all_finite

_OVERLAP_MEAN_SAMPLES = 9
ANCHOR_SAMPLES = 64  # evenly spaced times over a partition's span: its anchor grid


@dataclass
class LogVideo:
    """Reconstructed log-intensity frames at strictly increasing times,
    and the log level `anchor_offset` subtracts from them: the run's
    anchor for a video sampled from a run, else 0.0."""

    frames: np.ndarray  # (N, H, W)
    times: np.ndarray  # (N,)
    anchor: float = 0.0

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.frames.ndim != 3 or len(self.frames) != len(self.times):
            raise ShapeMismatch(f"frames {self.frames.shape} must be (N, H, W) "
                                f"matching {len(self.times)} times")
        check_increasing(self.times)
        if not all_finite(self.frames):
            raise NonFiniteFrames("log video must be finite")


def check_in_span(times: np.ndarray, t0: float, t1: float) -> None:
    """Raise TimeOutOfRange naming the first of `times` outside the
    trained span [t0, t1]; NaN is outside too."""
    outside = ~((times >= t0) & (times <= t1))
    if np.any(outside):
        raise TimeOutOfRange(f"time {times[outside][0]} outside trained span [{t0}, {t1}]")


def _batched_forward(partition, times: np.ndarray, tangent: bool, out=None):
    """One network's frames, or per-second time derivatives, at `times` in
    one batch; written into `out`, a C-contiguous (K, H, W) float64 array,
    which derivatives need. Frames without `out` come in the network's
    dtype."""
    model = partition.model
    t_norm = model.normalize_time(times)
    rows = None if out is None else out.reshape(len(times), -1)
    if tangent:
        return model.time_derivative(t_norm, rows)
    return model.forward(t_norm, out=rows)


def _chained_offsets(partitions, lo, hi) -> np.ndarray:
    """Per-partition additive corrections making adjacent mean levels agree
    over each shared overlap window [lo[i], hi[i]] of partitions i and i+1
    (measured on a fixed time grid)."""
    offsets = np.zeros(len(partitions))
    for i in range(len(lo)):
        if hi[i] <= lo[i]:
            continue  # zero overlap: nothing measurable, keep offsets
        grid = np.linspace(lo[i], hi[i], _OVERLAP_MEAN_SAMPLES)
        mean_a = float(np.mean(_batched_forward(partitions[i], grid, False), dtype=np.float64))
        mean_b = float(np.mean(_batched_forward(partitions[i + 1], grid, False), dtype=np.float64))
        offsets[i + 1] = offsets[i] + (mean_a - mean_b)
    return offsets


def _sample(partitions, times, tangent: bool) -> np.ndarray:
    """Evaluate the stitched ensemble at strictly increasing times.

    tangent=False samples offset-corrected log frames; tangent=True samples
    per-second time derivatives (offsets drop out of derivatives). A time
    inside the overlap of partitions i and i+1 (the first such pair) blends
    the two with weight u toward i+1; any other time takes the last
    partition whose span starts at or before it.

    Spans start in strictly increasing and end in non-decreasing index
    order (`cli.load_partitions`' chain), so two binary searches route a
    time t: `alone`, the last partition starting at or before t, and
    `pair`, the first overlap ending at or after t. The overlaps holding t
    are pair .. alone - 1. So t blends overlap pair's two partitions when
    pair < alone and that overlap has positive width; when it has zero
    width, t is its one point and every later overlap starts after t.

    The times one source takes (a partition alone, or an overlap pair)
    form one run. Each run is evaluated in one batch straight into its
    slice of the output, and a pair's run blends in place with one
    run-sized temporary.
    """
    partitions = sorted(partitions, key=lambda p: p.index)
    h, w = partitions[0].model.height, partitions[0].model.width
    t0, t1 = partitions[0].span[0], partitions[-1].span[1]
    times = np.asarray(times, dtype=np.float64)
    check_in_span(times, t0, t1)
    times = check_times(times)
    lo = np.array([p.span[0] for p in partitions[1:]])  # overlap i: [lo[i], hi[i]],
    hi = np.array([p.span[1] for p in partitions[:-1]])  # empty at zero overlap
    alone = np.searchsorted(lo, times, side="right")
    pair = np.searchsorted(hi, times, side="left")
    blend = (pair < alone) & np.append(hi > lo, False)[pair]
    offsets = np.zeros(len(partitions)) if tangent else _chained_offsets(partitions, lo, hi)
    out = np.empty((len(times), h, w), dtype=np.float64)

    # A time's source: its partition i alone, or len(partitions) + its pair i.
    source = np.where(blend, len(partitions) + pair, alone)
    starts = np.flatnonzero(np.diff(source, prepend=-1))
    for a, b in zip(starts, np.append(starts[1:], len(times))):
        run, ts = out[a:b], times[a:b]
        i = pair[a] if blend[a] else alone[a]
        _batched_forward(partitions[i], ts, tangent, out=run)
        run += offsets[i]
        if blend[a]:
            u = ((ts - lo[i]) / (hi[i] - lo[i]))[:, None, None]
            fb = _batched_forward(partitions[i + 1], ts, tangent, out=np.empty_like(run))
            fb += offsets[i + 1]
            run *= 1.0 - u
            fb *= u
            run += fb
            del fb  # before the next run's batch is made
    return out


def _grid(partition) -> np.ndarray:
    """The partition's anchor grid: ANCHOR_SAMPLES evenly spaced times
    over its span."""
    return np.linspace(partition.span[0], partition.span[1], ANCHOR_SAMPLES)


def sample_video(partitions, times) -> LogVideo:
    """Stitched log-intensity video at the requested times, with the run's
    anchor: the median of partition 0's frames on its anchor grid.

    Times outside every overlap take the network of the last span starting
    at or before them; times inside an overlap crossfade linearly between
    the two offset-aligned neighbors. The anchor's (ANCHOR_SAMPLES, H * W)
    frames are freed before the video is made. An anchor past the float64
    range is infinite, and `anchor_offset` reports it.
    """
    first = min(partitions, key=lambda p: p.index)
    with np.errstate(over="ignore"):  # an infinite anchor fails in anchor_offset
        anchor = float(np.median(_batched_forward(first, _grid(first), False)))
    return LogVideo(_sample(partitions, times, tangent=False), times, anchor)


def anchor_offset(video: LogVideo) -> LogVideo:
    """Fix the free global constant: subtract `video.anchor` from every
    frame, so the run's median log level sits at exp(0) = 1, the tone
    mapper's mid-tone, and set the anchor to 0.

    Shifts `video` in place and returns it; anchoring twice shifts once.
    NonFiniteFrames when the subtraction overflows, which leaves `video`
    shifted as far as it got.
    """
    anchor, video.anchor = video.anchor, 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        video.frames -= anchor
    if not all_finite(video.frames):
        raise NonFiniteFrames(f"shifting the log video by its anchor {anchor!r} overflows")
    return video


def tone_map(video: LogVideo, gamma: float = 0.6) -> np.ndarray:
    """(N, H, W) uint8 frames: Reinhard-compressed intensity.

    I = exp(L); value = (I / (I + 1))**gamma, quantized to 8 bits; gamma
    must be positive and sets the display contrast. Strictly
    monotone in L before quantization; an L whose exp overflows maps to
    255. Works one block of whole frames at a time (`frame_blocks`), so
    its temporaries stay a few blocks in size.
    """
    check_settings(NonPositiveSetting, gamma=gamma)
    out = np.empty(video.frames.shape, dtype=np.uint8)
    for s in frame_blocks(video.frames):
        with np.errstate(over="ignore"):  # exp(L) = inf, which reinhard takes
            block = np.exp(video.frames[s])
        reinhard(block, gamma, out=block)
        block *= 255.0
        quantize(block, out[s])
    return out


def reinhard(intensity, gamma: float, out=None) -> np.ndarray:
    """(I / (I + 1))**gamma in [0, 1]; accepts any non-negative intensity,
    and an infinite one gives 1.0. Written into `out`, which may be
    `intensity` itself, when given."""
    # The largest float maps to exactly 1.0, as does every finite I >= 2**53.
    i = np.minimum(intensity, np.finfo(np.float64).max, out=out)
    i /= i + 1.0
    return np.power(i, gamma, out=i)


def enhance_events(partitions, times, window_dt: float) -> np.ndarray:
    """Denoised event-frame proxies: per-second derivative times window_dt.

    Output is (N, H, W) signed log-intensity change over a window_dt
    window, exactly linear in window_dt. Overlaps crossfade the two
    neighbors' derivatives.
    """
    check_settings(NonPositiveSetting, window_dt=window_dt)
    grids = _sample(partitions, times, tangent=True)
    grids *= window_dt
    return grids


def enhancement_scale(partitions, window_dt: float) -> float:
    """enhance's default display scale: window_dt times the largest
    |per-second derivative| on every partition's anchor grid, or 1.0 where
    all of them are zero. It depends on the run alone."""
    check_settings(NonPositiveSetting, window_dt=window_dt)
    most = 0.0
    for p in partitions:
        rates = np.empty((ANCHOR_SAMPLES, p.model.height, p.model.width))
        _batched_forward(p, _grid(p), True, out=rates)
        most = max(most, float(rates.max()), -float(rates.min()))
    return window_dt * most or 1.0


def enhancement_to_bytes(grids: np.ndarray, scale: float) -> np.ndarray:
    """Signed-to-gray display mapping of (N, H, W) grids:
    byte = clamp(128 + 128 * value/scale); zero change lands on mid-gray
    128. Works one block of whole frames at a time, like tone_map.
    """
    g = np.asarray(grids, dtype=np.float64)
    out = np.empty(g.shape, dtype=np.uint8)
    for s in frame_blocks(g):
        block = np.multiply(g[s], 128.0)
        block /= scale
        block += 128.0
        quantize(block, out[s])
    return out
