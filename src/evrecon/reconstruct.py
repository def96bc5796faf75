"""Sample trained networks into videos: stitching, offset anchoring, tone
mapping, and derivative-based event enhancement.

The training objective is invariant to a constant added to every output,
so each partition's network carries an arbitrary global offset. Stitching
removes the per-partition disagreement by chaining pairwise corrections
measured over the shared overlap windows (after which the per-pair
"subtract each mean, add the pair average" alignment is the identity),
and `anchor_offset` pins the one remaining global constant by driving the
whole video's median log intensity to zero.

Sample times must be strictly increasing. Sampling writes each network's
output straight into the one (N, H, W) float64 array of the `LogVideo`,
and tone mapping and the enhancement display mapping work one block of
whole frames at a time, so besides that array and the uint8 output only
batch- and block-sized temporaries are made (`anchor_offset` adds a
second video-sized array for its result and its median's copy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteFrames, NonPositiveSetting, ShapeMismatch, TimeOutOfRange
from .events import FrameTimestamps, check_increasing
from .metrics import frame_blocks
from .siren import all_finite

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
            raise ShapeMismatch(f"frames {self.frames.shape} must be (N, H, W) "
                                f"matching {len(self.times)} times")
        check_increasing(self.times)
        if not all_finite(self.frames):
            raise NonFiniteFrames("log video must be finite")


@dataclass
class ToneMapConfig:
    """Display mapping contrast; gamma compresses the Reinhard output."""

    gamma: float = 0.6

    def __post_init__(self):
        if not self.gamma > 0:
            raise NonPositiveSetting(f"gamma must be positive, got {self.gamma}")


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


def _batched_forward(partition, times: np.ndarray, tangent: bool, out=None):
    """One network's frames, or per-second time derivatives, at `times` in
    one batch; written into `out`, a C-contiguous (K, H, W) float64 array,
    when given."""
    model = partition.model
    t_norm = model.normalize_time(times)
    if tangent:
        _, tan = model.forward_with_tangent(t_norm)
        return np.multiply(tan, model.time_slope, out=out)
    return model.forward(t_norm, out=None if out is None else out.reshape(len(times), -1))


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
    """Evaluate the stitched ensemble at strictly increasing times.

    tangent=False samples offset-corrected log frames; tangent=True samples
    per-second time derivatives (offsets drop out of derivatives). A time
    inside the overlap of partitions i and i+1 (the first such pair) blends
    the two with weight u toward i+1; any other time takes the partition
    whose core span holds it, the later one on a core edge.

    The times one source takes (a partition's core, or an overlap pair)
    form one run, for partitions laid out as `build_partitions` lays them
    out. Each run is evaluated in one batch straight into its slice of the
    output, and a pair's run blends in place with one run-sized temporary.
    """
    partitions = sorted(partitions, key=lambda p: p.index)
    h, w = partitions[0].model.height, partitions[0].model.width
    t0, t1 = partitions[0].span[0], partitions[-1].span[1]
    check_in_span(times, t0, t1)
    check_increasing(times)
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

    # A time's source: its core partition i, or len(partitions) + its pair i.
    source = np.where(blend, len(partitions) + pair, core)
    starts = np.flatnonzero(np.diff(source, prepend=-1))
    for a, b in zip(starts, np.append(starts[1:], len(times))):
        run, ts = out[a:b], times[a:b]
        i = pair[a] if blend[a] else core[a]
        _batched_forward(partitions[i], ts, tangent, out=run)
        run += offsets[i]
        if blend[a]:
            u = ((ts - lo[i]) / (hi[i] - lo[i]))[:, None, None]
            fb = _batched_forward(partitions[i + 1], ts, tangent)
            fb += offsets[i + 1]
            run *= 1.0 - u
            fb *= u
            run += fb
            del fb  # before the next run's batch is made
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
    monotone in L before quantization; an L whose exp overflows maps to
    255. Works one block of whole frames at a time (`frame_blocks`), so
    its temporaries stay a few blocks in size.
    """
    out = np.empty(video.frames.shape, dtype=np.uint8)
    for s in frame_blocks(video.frames):
        with np.errstate(over="ignore"):  # exp(L) = inf, which reinhard takes
            block = np.exp(video.frames[s])
        reinhard(block, cfg.gamma, out=block)
        block *= 255.0
        _quantize(block, out[s])
    return out


def reinhard(intensity, gamma: float, out=None) -> np.ndarray:
    """(I / (I + 1))**gamma in [0, 1]; accepts any non-negative intensity,
    and an infinite one gives 1.0. Written into `out`, which may be
    `intensity` itself, when given."""
    # The largest float maps to exactly 1.0, as does every finite I >= 2**53.
    i = np.minimum(intensity, np.finfo(np.float64).max, out=out)
    i /= i + 1.0
    return np.power(i, gamma, out=i)


def _quantize(values: np.ndarray, out: np.ndarray) -> None:
    """Round, clamp to 0-255 and store as bytes in `out`; rounds and
    clamps `values` in place."""
    np.round(values, out=values)
    np.clip(values, 0, 255, out=values)
    np.copyto(out, values, casting="unsafe")


def enhance_events(partitions, times, window_dt: float) -> np.ndarray:
    """Denoised event-frame proxies: per-second derivative times window_dt.

    Output is (N, H, W) signed log-intensity change over a window_dt
    window, exactly linear in window_dt. Overlaps crossfade the two
    neighbors' derivatives.
    """
    if not window_dt > 0:
        raise NonPositiveSetting(f"window_dt must be positive, got {window_dt}")
    grids = _sample(partitions, _as_times(times), tangent=True)
    grids *= window_dt
    return grids


def enhancement_to_bytes(grids: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Signed-to-gray display mapping of (N, H, W) grids:
    byte = clamp(128 + 128 * value/scale).

    scale defaults to the largest |value| so the full range is used; zero
    change lands on mid-gray 128. Works one block of whole frames at a
    time, like tone_map.
    """
    g = np.asarray(grids, dtype=np.float64)
    if scale is None:
        scale = float(max(g.max(), -g.min())) or 1.0
    out = np.empty(g.shape, dtype=np.uint8)
    for s in frame_blocks(g):
        block = np.multiply(g[s], 128.0)
        block /= scale
        block += 128.0
        _quantize(block, out[s])
    return out
