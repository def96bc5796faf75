"""Sample trained networks into videos: stitching, offset anchoring, tone
mapping, and derivative-based event enhancement.

The training objective is invariant to a constant added to every output,
so each partition's network carries an arbitrary global offset. Stitching
removes the per-partition disagreement by chaining pairwise corrections
measured over the shared overlap windows (after which the per-pair
"subtract each mean, add the pair average" alignment is the identity),
and `anchor_offset` pins the one remaining global constant by driving the
whole video's median log intensity to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TimeOutOfRange
from .events import FrameTimestamps

_OVERLAP_MEAN_SAMPLES = 9


@dataclass
class LogVideo:
    """Reconstructed log-intensity frames at strictly increasing times."""

    frames: np.ndarray  # (N, H, W)
    times: np.ndarray  # (N,)

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.frames.ndim != 3 or len(self.frames) != len(self.times):
            raise ValueError("frames must be (N,H,W) matching times")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("log video must be finite")


@dataclass
class ToneMapConfig:
    """Display mapping contrast; gamma compresses the Reinhard output."""

    gamma: float = 0.6

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


def _as_times(times) -> np.ndarray:
    if isinstance(times, FrameTimestamps):
        return times.times
    return np.asarray(times, dtype=np.float64).reshape(-1)


def check_in_span(times: np.ndarray, t0: float, t1: float) -> None:
    """Raise TimeOutOfRange naming the first of `times` outside the
    trained span [t0, t1]; NaN is outside too."""
    outside = ~((times >= t0) & (times <= t1))
    if np.any(outside):
        raise TimeOutOfRange(f"time {times[outside][0]} outside trained span [{t0}, {t1}]")


def _batched_forward(partition, times: np.ndarray, tangent: bool):
    model = partition.model
    t_norm = model.normalize_time(times)
    if tangent:
        _, tan = model.forward_with_tangent(t_norm)
        return tan * model.time_slope
    return model.forward(t_norm)


def _chained_offsets(partitions, lo, hi) -> np.ndarray:
    """Per-partition additive corrections making adjacent mean levels agree
    over each shared overlap window [lo[i], hi[i]] of partitions i and i+1
    (measured on a fixed time grid)."""
    offsets = np.zeros(len(partitions))
    for i in range(len(lo)):
        if hi[i] <= lo[i]:
            continue  # zero overlap: nothing measurable, keep offsets
        grid = np.linspace(lo[i], hi[i], _OVERLAP_MEAN_SAMPLES)
        mean_a = float(np.mean(_batched_forward(partitions[i], grid, False)))
        mean_b = float(np.mean(_batched_forward(partitions[i + 1], grid, False)))
        offsets[i + 1] = offsets[i] + (mean_a - mean_b)
    return offsets


def _sample(partitions, times: np.ndarray, tangent: bool) -> np.ndarray:
    """Evaluate the stitched ensemble at the given times.

    tangent=False samples offset-corrected log frames; tangent=True samples
    per-second time derivatives (offsets drop out of derivatives). A time
    inside the overlap of partitions i and i+1 (the first such pair) blends
    the two with weight u toward i+1; any other time takes the partition
    whose core span holds it, the later one on a core edge. Each partition
    and each pair evaluates its times in one batch, in the given order.
    """
    partitions = sorted(partitions, key=lambda p: p.index)
    h, w = partitions[0].model.height, partitions[0].model.width
    t0, t1 = partitions[0].span[0], partitions[-1].span[1]
    check_in_span(times, t0, t1)
    lo = np.array([p.span[0] for p in partitions[1:]])  # overlap i: [lo[i], hi[i]],
    hi = np.array([p.span[1] for p in partitions[:-1]])  # empty at zero overlap
    in_overlap = (times[:, None] >= lo) & (times[:, None] <= hi) & (hi > lo)
    # argmax finds the first overlap holding each time; the extra column
    # of True makes it len(lo) for times in no overlap.
    pair = np.column_stack([in_overlap, np.ones(len(times), dtype=bool)]).argmax(axis=1)
    blend = pair < len(lo)
    edges = np.array([p.core_span[0] for p in partitions[1:]])
    core = np.searchsorted(edges, times, side="right")
    offsets = np.zeros(len(partitions)) if tangent else _chained_offsets(partitions, lo, hi)
    out = np.empty((len(times), h, w), dtype=np.float64)

    for i, p in enumerate(partitions):
        sel = ~blend & (core == i)
        if np.any(sel):
            out[sel] = _batched_forward(p, times[sel], tangent) + offsets[i]
    for i in np.unique(pair[blend]):
        sel = pair == i
        u = ((times[sel] - lo[i]) / (hi[i] - lo[i]))[:, None, None]
        fa = _batched_forward(partitions[i], times[sel], tangent) + offsets[i]
        fb = _batched_forward(partitions[i + 1], times[sel], tangent) + offsets[i + 1]
        out[sel] = (1.0 - u) * fa + u * fb
    return out


def sample_video(partitions, times) -> LogVideo:
    """Stitched log-intensity video at the requested times.

    Times in exactly one core span take that network's output; times inside
    an overlap crossfade linearly between the two offset-aligned neighbors.
    """
    ts = _as_times(times)
    return LogVideo(_sample(partitions, ts, tangent=False), ts)


def anchor_offset(video: LogVideo) -> LogVideo:
    """Fix the free global constant: shift so the video-wide median log
    intensity is zero (exp(0) = 1 sits at the tone mapper's mid-tone)."""
    return LogVideo(video.frames - np.median(video.frames), video.times)


def tone_map(video: LogVideo, cfg: ToneMapConfig = ToneMapConfig()) -> np.ndarray:
    """(N, H, W) uint8 frames: Reinhard-compressed intensity.

    I = exp(L); value = (I / (I + 1))**gamma, quantized to 8 bits. Strictly
    monotone in L before quantization.
    """
    compressed = reinhard(np.exp(video.frames), cfg.gamma)
    return np.clip(np.round(compressed * 255.0), 0, 255).astype(np.uint8)


def reinhard(intensity: np.ndarray, gamma: float) -> np.ndarray:
    """(I / (I + 1))**gamma in [0, 1); accepts any non-negative intensity."""
    i = np.asarray(intensity, dtype=np.float64)
    return np.power(i / (i + 1.0), gamma)


def enhance_events(partitions, times, window_dt: float) -> np.ndarray:
    """Denoised event-frame proxies: per-second derivative times window_dt.

    Output is (N, H, W) signed log-intensity change over a window_dt
    window, exactly linear in window_dt. Overlaps crossfade the two
    neighbors' derivatives.
    """
    if window_dt <= 0:
        raise ValueError("window_dt must be positive")
    ts = _as_times(times)
    return _sample(partitions, ts, tangent=True) * window_dt


def enhancement_to_bytes(grids: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Signed-to-gray display mapping: byte = clamp(128 + 128 * value/scale).

    scale defaults to the largest |value| so the full range is used; zero
    change lands on mid-gray 128.
    """
    g = np.asarray(grids, dtype=np.float64)
    if scale is None:
        scale = float(np.abs(g).max()) or 1.0
    return np.clip(np.round(128.0 + 128.0 * g / scale), 0, 255).astype(np.uint8)
