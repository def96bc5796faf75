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
`anchor_offset` finds the median by counting passes over blocks and
shifts that array in place, and tone mapping and the enhancement display
mapping work one block of whole frames at a time, so besides that array
and the uint8 output only batch- and block-sized temporaries are made.
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
from .metrics import BLOCK_PIXELS, frame_blocks
from .siren import all_finite

_OVERLAP_MEAN_SAMPLES = 9
# The median search resolves this many bits of the order key per counting
# pass, and gathers the keys of the median's bin once it holds this few.
_KEY_BITS = 16
_GATHER_MAX = BLOCK_PIXELS
_SIGN = np.int64(-(2**63))
_MAGNITUDE = np.int64(2**63 - 1)


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


def check_in_span(times: np.ndarray, t0: float, t1: float) -> None:
    """Raise TimeOutOfRange naming the first of `times` outside the
    trained span [t0, t1]; NaN is outside too."""
    outside = ~((times >= t0) & (times <= t1))
    if np.any(outside):
        raise TimeOutOfRange(f"time {times[outside][0]} outside trained span [{t0}, {t1}]")


def _batched_forward(partition, times: np.ndarray, tangent: bool, out=None):
    """One network's frames, or per-second time derivatives, at `times` in
    one batch; written into `out`, a C-contiguous (K, H, W) float64 array,
    when given, and else in the network's dtype."""
    model = partition.model
    t_norm = model.normalize_time(times)
    if tangent:
        _, tan, _ = model.forward_with_tangent(t_norm)
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
        mean_a = float(np.mean(_batched_forward(partitions[i], grid, False), dtype=np.float64))
        mean_b = float(np.mean(_batched_forward(partitions[i + 1], grid, False), dtype=np.float64))
        offsets[i + 1] = offsets[i] + (mean_a - mean_b)
    return offsets


def _sample(partitions, times, tangent: bool) -> np.ndarray:
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
    times = np.asarray(times, dtype=np.float64)
    check_in_span(times, t0, t1)
    times = check_times(times)
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
            fb = _batched_forward(partitions[i + 1], ts, tangent, out=np.empty_like(run))
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
    return LogVideo(_sample(partitions, times, tangent=False), times)


def anchor_offset(video: LogVideo) -> LogVideo:
    """Fix the free global constant: shift so the video-wide median log
    intensity is zero (exp(0) = 1 sits at the tone mapper's mid-tone).

    Shifts `video` in place and returns it. The shift is np.median of the
    frames (see `_median`); NonFiniteFrames when subtracting it overflows,
    which leaves `video` shifted as far as it got. An empty video has no
    median and is returned as it is.
    """
    if not video.frames.size:
        return video
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        median = _median(video.frames)
        video.frames -= median
    if not all_finite(video.frames):
        raise NonFiniteFrames(f"shifting the log video by its median {median!r} overflows")
    return video


def _flip(bits: np.ndarray) -> np.ndarray:
    """float64 bit patterns, as int64, mapped to int64 that order like the
    floats (-0.0 just below +0.0): a negative value's magnitude bits are
    inverted. Applied twice it gives the bits back."""
    flipped = bits >> 63
    flipped &= _MAGNITUDE
    flipped ^= bits
    return flipped


def _order_keys(values: np.ndarray) -> np.ndarray:
    """Flat uint64 keys of float64 values that order like the values."""
    keys = _flip(values.view(np.int64))
    keys ^= _SIGN
    return keys.view(np.uint64).reshape(-1)


def _key_value(key) -> float:
    """The float64 value whose order key is `key`."""
    bits = np.array([key], dtype=np.uint64).view(np.int64) ^ _SIGN
    return float(_flip(bits).view(np.float64)[0])


def _median(frames: np.ndarray) -> float:
    """np.median(frames) of a finite float64 array, without a copy of it.

    A radix select on the order keys. Each counting pass takes one block
    of frames at a time and counts the next _KEY_BITS bits of the keys
    that share the lower middle value's known leading bits, until that
    value's bin holds at most _GATHER_MAX keys, which a last pass gathers
    and sorts, or a single value; a small input takes no counting pass.
    The upper middle value of an even count is the next key in that bin,
    or else the least key above it, which the last pass also finds. As in np.median, the result is the middle value
    of an odd count and (a + b) / 2 of the two middle values of an even
    one. Only a zero median may differ from np.median's, in its sign,
    which np.median's partition order decides.
    """
    n = frames.size
    blocks = [frames[s] for s in frame_blocks(frames)]
    rank, below = (n - 1) // 2, 0  # below: how many keys lie under the bin
    prefix, shift, count = 0, 64, n  # the bin: keys k with k >> shift == prefix
    while shift and count > _GATHER_MAX:
        shift -= _KEY_BITS
        hist = np.zeros(1 << _KEY_BITS, dtype=np.int64)
        for keys in map(_order_keys, blocks):
            if shift + _KEY_BITS < 64:
                keys = keys[keys >> (shift + _KEY_BITS) == prefix]
            keys >>= shift
            keys &= (1 << _KEY_BITS) - 1
            hist += np.bincount(keys.view(np.int64), minlength=1 << _KEY_BITS)
        ends = np.cumsum(hist)
        digit = int(np.searchsorted(ends, rank - below, side="right"))
        below += int(ends[digit - 1]) if digit else 0
        count = int(hist[digit])
        prefix = (prefix << _KEY_BITS) | digit

    gather = shift > 0  # else every key in the bin is `prefix`
    above_bin = n % 2 == 0 and rank + 1 == below + count
    in_bin, above = [], []
    if gather or above_bin:
        for keys in map(_order_keys, blocks):
            top = keys >> shift
            if gather:
                in_bin.append(keys[top == prefix])
            if above_bin and np.any(top > prefix):
                above.append(keys[top > prefix].min())
    in_bin = np.sort(np.concatenate(in_bin)) if gather else None

    def in_bin_key(r):  # the key of rank r, which the bin holds
        return in_bin[r - below] if gather else prefix

    low = _key_value(in_bin_key(rank))
    if n % 2:
        return low
    high = _key_value(min(above) if above_bin else in_bin_key(rank + 1))
    return (low + high) / 2.0


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
    check_settings(NonPositiveSetting, window_dt=window_dt)
    grids = _sample(partitions, times, tangent=True)
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
