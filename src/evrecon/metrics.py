"""Image quality metrics and evaluation preprocessing.

SSIM is the standard single-scale index: 11x11 Gaussian window with
sigma 1.5, K1 = 0.01, K2 = 0.03, dynamic range 1.0, weighted (biased)
local moments, averaged over valid windows only. CLAHE clips each tile's
histogram, redistributes the excess uniformly, equalizes against the
clipped CDF, and blends neighboring tile mappings bilinearly. Both
prediction and reference are CLAHE'd before scoring unless disabled,
since reconstruction only determines intensity up to contrast. Both work
on `blocks` of whole frames, CLAHE's bounded in histogram and LUT entries
too (`CLAHE_ENTRIES`): frames are independent, so a frame's bytes and
scores do not depend on the stack around it, and the working set does
not grow with the number of frames.

Scoring policy: `evaluate_frames` scores its blocks on
`parallel.fork_map`, over every CPU the process may use, up to one worker
per block. Since no frame's scores depend on the frames around it, each
block's MSE and SSIM arrays carry the bits a one-process loop gives, and
they are joined in frame order. Scoring makes no BLAS call, so its
helpers fork from a single-threaded process. On a 2-vCPU VM, scoring
the 480 128x128 frames of the benchmark's hires128 workload after
training took 0.63-0.65 s on two workers against 1.17-1.18 s on one
(medians of two sets of 12 runs).

SSIM's five window means are one separable Gaussian filter in numpy
(`_valid_correlate`), first down each column, then along each row, in
float64. It computes only the fully valid windows, the only ones scored,
and each in the order of `scipy.ndimage.correlate1d`'s loop for
symmetric taps: the centre tap first, then each pair of mirrored pixels
summed before its tap weights it, outermost pair first. So the scores
are the bytes the scipy filter gave, and the package needs numpy alone:
with scipy.ndimage, `import evrecon.cli` loaded 87 scipy modules and
took 54.9 MB of peak RSS and 0.57 s, against 28.8 MB and 0.17 s without
(2 vCPUs, scipy 1.17.1), in every process, scoring or not. A matrix
product, `np.convolve` or a sum over `sliding_window_view` rounds
differently.

CLAHE is not idempotent while the clip limit binds: the clip bounds how
far one pass stretches a low-contrast frame, so running it again
stretches that frame further. The bilinear LUT blend can also ripple a
monotone ramp by a level or two, as in Zuiderveld's algorithm (Graphics
Gems IV, 1994). Frames whose tiles have flat histograms are fixed
points; a uniform frame moves by at most one level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotEightBit, ShapeMismatch, TooSmall
from .parallel import fork_map, usable_cpus

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03

# Elements per cache-sized pass (six float32 slices of it fit in L2): the
# default budget of `blocks`, which sizes the frames training, tone mapping
# and scoring work on, the bins events are counted in, and Adam's chunks.
BLOCK_PIXELS = 1 << 15
# Histogram entries (frames x tiles x 256) and pixels per `clahe` chunk:
# four 32x32 frames under 8x8 tiles, whose LUT arrays take 0.5 MB each.
# Equalizing 1,440 such frames in chunks of 4 to 32 frames took within 10%
# of the same time, and chunks of 1 or 2 took 14-60% longer (2 vCPUs).
CLAHE_ENTRIES = 2 * BLOCK_PIXELS


@dataclass
class MetricReport:
    """Per-frame and aggregate scores for one pred/ref frame pairing."""

    mse_per_frame: list = field(default_factory=list)
    ssim_per_frame: list = field(default_factory=list)

    @property
    def num_frames(self) -> int:
        return len(self.mse_per_frame)

    @property
    def mean_mse(self) -> float:
        return float(np.mean(self.mse_per_frame))

    @property
    def mean_ssim(self) -> float:
        return float(np.mean(self.ssim_per_frame))


def mse(pred: np.ndarray, ref: np.ndarray) -> float:
    """Mean squared difference; frames must have equal shape."""
    a = np.asarray(pred, dtype=np.float64)
    b = np.asarray(ref, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shape {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def blocks(count: int, cost: int, budget: int = BLOCK_PIXELS) -> list:
    """Slices, with stops clipped to `count`, that cut `count` items of
    `cost` each in order into blocks costing at most `budget` and holding
    at least one item each; every block but the last is full."""
    step = max(1, budget // max(1, cost))
    return [slice(k, min(k + step, count)) for k in range(0, count, step)]


def frame_blocks(frames: np.ndarray) -> list:
    """`blocks` of whole frames of an (N, H, W) stack, each holding at
    most BLOCK_PIXELS pixels."""
    n, h, w = frames.shape
    return blocks(n, h * w)


def _frame_means(stack: np.ndarray) -> np.ndarray:
    """Per-frame mean of an (N, H, W) stack, each summed over one
    contiguous run of H*W values exactly as np.mean sums a single frame."""
    return np.mean(stack.reshape(len(stack), -1), axis=1)


def _gaussian_taps(radius: int, sigma: float) -> np.ndarray:
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    w = np.exp(-0.5 * (x / sigma) ** 2)
    return w / w.sum()


def _window_mean(stack: np.ndarray, taps: np.ndarray, radius: int) -> np.ndarray:
    """Separable Gaussian filter of each frame, restricted to fully valid
    windows: along axis 1, then along axis 2."""
    return _valid_correlate(_valid_correlate(stack, taps, radius, 1), taps, radius, 2)


def _valid_correlate(x: np.ndarray, taps: np.ndarray, radius: int, axis: int) -> np.ndarray:
    """Correlation of `x` with symmetric `taps` along `axis`, at the
    positions whose window lies inside `x`, in the order of scipy's
    symmetric-filter loop: x[i] * w[0], then for j = radius down to 1,
    plus (x[i - j] + x[i + j]) * w[j], where w[j] = taps[radius - j]."""
    n = x.shape[axis]

    def shifted(j):
        index = [slice(None)] * x.ndim
        index[axis] = slice(radius + j, n - radius + j)
        return x[tuple(index)]

    out = shifted(0) * taps[radius]
    pair = np.empty_like(out)
    for j in range(radius, 0, -1):
        np.add(shifted(-j), shifted(j), out=pair)
        pair *= taps[radius - j]
        out += pair
    return out


def ssim(pred: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """(N,) per-frame structural similarity of two (N, H, W) stacks of
    frames with values in [0, 1]."""
    a = np.asarray(pred, dtype=np.float64)
    b = np.asarray(ref, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shape {a.shape} vs {b.shape}")
    if a.ndim != 3:
        raise ShapeMismatch(f"ssim expects (N, H, W) frame stacks, got shape {a.shape}")
    if not len(a):
        raise ShapeMismatch("ssim: need at least one frame")
    if min(a.shape[1:]) < SSIM_WINDOW:
        raise TooSmall(f"frames must be at least {SSIM_WINDOW} pixels on a side")

    radius = SSIM_WINDOW // 2
    taps = _gaussian_taps(radius, SSIM_SIGMA)
    c1 = SSIM_K1**2
    c2 = SSIM_K2**2

    mu_a = _window_mean(a, taps, radius)
    mu_b = _window_mean(b, taps, radius)
    var_a = _window_mean(a * a, taps, radius) - mu_a**2
    var_b = _window_mean(b * b, taps, radius) - mu_b**2
    cov = _window_mean(a * b, taps, radius) - mu_a * mu_b

    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return _frame_means(num / den)


def _tile_luts(hist: np.ndarray, clip_count: float) -> np.ndarray:
    """Flat float64 equalization LUTs of M tiles' histograms (M, 256),
    256 entries per tile, from which `clahe`'s blend gathers.

    Uses the midpoint CDF (each bin maps to the center of its own mass) of
    the clipped histogram, stretched from the first to the last occupied
    bin onto [0, 255] and clipped there: a flat histogram maps to the
    identity ramp exactly, so a uniform tile stays put to within
    quantization. Only tiles whose histogram exceeds the clip are clipped,
    and a tile with fewer than two occupied levels maps each level to
    itself exactly.
    """
    h = hist.astype(np.float64)
    work = np.subtract(h, clip_count)
    excess = np.sum(np.maximum(work, 0.0, out=work), axis=1, keepdims=True)
    clipped = np.minimum(h, clip_count, out=work)
    clipped += excess / 256
    np.copyto(h, clipped, where=excess > 0)
    occupied = h != 0
    luts = np.cumsum(h, axis=1, out=work)
    h *= 0.5
    luts -= h  # the midpoint CDF
    first = np.argmax(occupied, axis=1)[:, None]
    last = 255 - np.argmax(occupied[:, ::-1], axis=1)[:, None]
    lo = np.take_along_axis(luts, first, axis=1)
    hi = np.take_along_axis(luts, last, axis=1)
    identity = ~occupied.any(axis=1) | (hi <= lo)[:, 0]
    luts -= lo
    luts *= 255.0 / np.where(identity[:, None], 1.0, hi - lo)
    np.clip(luts, 0.0, 255.0, out=luts)
    luts[identity] = np.arange(256, dtype=np.float64)
    return luts.reshape(-1)


def clahe(
    frames: np.ndarray,
    tiles: tuple = (8, 8),
    clip_limit: float = 2.0,
) -> np.ndarray:
    """Contrast-limited adaptive histogram equalization of each frame of
    an 8-bit (N, H, W) stack.

    The image is edge-extended to a multiple of the tile grid; each tile's
    256-bin histogram is clipped at clip_limit times the flat level and the
    excess spread uniformly; pixels are remapped by bilinear interpolation
    between the four surrounding tile mappings. Frames are equalized in
    `blocks` of whole frames holding at most CLAHE_ENTRIES histogram
    entries (frames x tiles x 256) and pixels, and at least one frame
    each: every tile histogram of a chunk comes from one bincount over
    (frame, tile, level) keys, all its LUTs are finished at once
    (`_tile_luts`), each pixel's four mappings are flat gathers into them,
    and each chunk's bytes go straight into the output. So the working set
    stays a few chunks in size whatever N is, and each frame gets the
    bytes it would get alone.

    A second pass is not idempotent while the clip binds, since each pass
    stretches a low-contrast frame further, and the blend can ripple a
    monotone ramp by a level or two. Frames whose tiles have flat
    histograms are returned unchanged and a uniform frame moves by at most
    one level. With one tile and a clip that cannot bind this is plain
    histogram equalization, which is idempotent.
    """
    img = np.asarray(frames)
    if img.dtype != np.uint8:
        if np.issubdtype(img.dtype, np.integer) and img.min() >= 0 and img.max() <= 255:
            img = img.astype(np.uint8)
        else:
            raise NotEightBit("clahe expects 8-bit frames")
    if img.ndim != 3:
        raise ShapeMismatch(f"clahe expects an (N, H, W) frame stack, got shape {img.shape}")
    n, h, w = img.shape
    ty, tx = tiles
    out = np.empty(img.shape, dtype=np.uint8)
    for chunk in blocks(n, max(ty * tx * 256, h * w), CLAHE_ENTRIES):
        _clahe_chunk(img[chunk], tiles, clip_limit, out[chunk])
    return out


def _clahe_chunk(img: np.ndarray, tiles: tuple, clip_limit: float, out: np.ndarray) -> None:
    """`clahe` of one chunk of frames, written into `out`."""
    n, h, w = img.shape
    ty, tx = tiles
    tile_h = -(-h // ty)  # ceil division
    tile_w = -(-w // tx)
    padded = np.pad(img, ((0, 0), (0, tile_h * ty - h), (0, tile_w * tx - w)), mode="edge")

    # key of each padded pixel: ((frame * ty + tile row) * tx + tile column) * 256 + level
    tile_of = (np.arange(tile_h * ty) // tile_h)[:, None] * tx + np.arange(tile_w * tx) // tile_w
    frame_base = np.arange(n)[:, None, None] * (ty * tx)
    keys = (frame_base + tile_of) * 256 + padded
    hist = np.bincount(keys.reshape(-1), minlength=n * ty * tx * 256)

    luts = _tile_luts(hist.reshape(-1, 256), clip_limit * (tile_h * tile_w) / 256.0)

    # bilinear blend of tile mappings, indexed by distance to tile centers
    gy = (np.arange(h, dtype=np.float64) - (tile_h - 1) / 2.0) / tile_h
    gx = (np.arange(w, dtype=np.float64) - (tile_w - 1) / 2.0) / tile_w
    y0 = np.clip(np.floor(gy).astype(np.int64), 0, ty - 1)
    x0 = np.clip(np.floor(gx).astype(np.int64), 0, tx - 1)
    y1 = np.minimum(y0 + 1, ty - 1)
    x1 = np.minimum(x0 + 1, tx - 1)
    wy = np.clip(gy - y0, 0.0, 1.0)[:, None]
    wx = np.clip(gx - x0, 0.0, 1.0)[None, :]

    levels = frame_base * 256 + img  # each pixel's entry in its frame's first LUT

    def mapped(rows, cols):
        """Each pixel through the LUT of tile (rows[y], cols[x]) of its frame."""
        return luts.take(levels + (rows[:, None] * tx + cols[None, :]) * 256)

    top = _lerp(mapped(y0, x0), mapped(y0, x1), wx)
    bot = _lerp(mapped(y1, x0), mapped(y1, x1), wx)
    quantize(_lerp(top, bot, wy), out)


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """a * (1 - t) + b * t, written into `a`; scales `b` in place."""
    a *= 1.0 - t
    b *= t
    a += b
    return a


def quantize(values: np.ndarray, out: np.ndarray) -> None:
    """Round, clamp to 0-255 and store as bytes in `out`; rounds and
    clamps `values` in place."""
    np.round(values, out=values)
    np.clip(values, 0, 255, out=values)
    np.copyto(out, values, casting="unsafe")


def evaluate_frames(
    pred: np.ndarray,
    ref: np.ndarray,
    apply_clahe: bool = True,
) -> MetricReport:
    """Score stacks of 8-bit frames (N, H, W): CLAHE both sides (unless
    disabled), then per-frame MSE/SSIM on [0, 1] values, one block of
    frames (`frame_blocks`) per job of `parallel.fork_map`, over
    min(usable CPUs, blocks) workers. Scores are joined in frame order, and
    a frame's scores do not depend on the frames around it, so the report
    is the same at any worker count. Shapes are checked before any fork."""
    p = np.asarray(pred)
    r = np.asarray(ref)
    if p.shape != r.shape:
        raise ShapeMismatch(f"prediction {p.shape} vs reference {r.shape}")
    if p.ndim != 3:
        raise ShapeMismatch("expected (N, H, W) frame stacks")
    if not len(p):
        raise ShapeMismatch("need at least one frame to score")

    def score(block: slice):
        a, b = p[block], r[block]
        if apply_clahe:
            a = clahe(a)
            b = clahe(b)
        af = a.astype(np.float64) / 255.0
        bf = b.astype(np.float64) / 255.0
        return _frame_means((af - bf) ** 2), ssim(af, bf)

    jobs = frame_blocks(p)
    scores = fork_map(score, jobs, min(usable_cpus(), len(jobs)))
    return MetricReport(np.concatenate([m for m, _ in scores]).tolist(),
                        np.concatenate([s for _, s in scores]).tolist())
