"""Image quality metrics and evaluation preprocessing.

SSIM is the standard single-scale index: 11x11 Gaussian window with
sigma 1.5, K1 = 0.01, K2 = 0.03, dynamic range 1.0, weighted (biased)
local moments, averaged over valid windows only. CLAHE clips each tile's
histogram, redistributes the excess uniformly, equalizes against the
clipped CDF, and blends neighboring tile mappings bilinearly. Both
prediction and reference are CLAHE'd before scoring unless disabled,
since reconstruction only determines intensity up to contrast.

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
from scipy.ndimage import correlate1d

from .errors import NotEightBit, ShapeMismatch, TooSmall

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03

# Elements per cache-sized pass (six float32 slices of it fit in L2): the
# blocks of whole frames that training, tone mapping and scoring work on
# (`frame_blocks`), and the chunks Adam updates the parameters in.
BLOCK_PIXELS = 1 << 15


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


def frame_blocks(frames: np.ndarray) -> list:
    """Slices, with stops clipped to N, that cut an (N, H, W) stack in
    order into blocks of whole frames holding at most BLOCK_PIXELS pixels,
    and at least one frame each; every block but the last is full."""
    n, h, w = frames.shape
    step = max(1, BLOCK_PIXELS // max(1, h * w))
    return [slice(k, min(k + step, n)) for k in range(0, n, step)]


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
    windows."""
    out = correlate1d(stack, taps, axis=1, mode="constant")
    out = correlate1d(out, taps, axis=2, mode="constant")
    return out[:, radius:-radius, radius:-radius]


def ssim(pred: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """(N,) per-frame structural similarity of two (N, H, W) stacks of
    frames with values in [0, 1]."""
    a = np.asarray(pred, dtype=np.float64)
    b = np.asarray(ref, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shape {a.shape} vs {b.shape}")
    if a.ndim != 3:
        raise ShapeMismatch(f"ssim expects (N, H, W) frame stacks, got shape {a.shape}")
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


def _tile_luts(hist: np.ndarray, clip_count: float):
    """Equalization LUTs of M tiles' clipped histograms (M, 256), as
    (mid, lo, scale): entry level of tile m is
    clip((mid[m * 256 + level] - lo[m]) * scale[m], 0, 255), which `clahe`
    computes for small tiles only at the entries its blend gathers.

    Uses the midpoint CDF (each bin maps to the center of its own mass)
    normalized between the first and last occupied bins: a flat histogram
    maps to the identity ramp exactly, so a uniform tile stays put to
    within quantization. Only tiles whose histogram exceeds the clip are
    clipped, and a tile with fewer than two occupied levels maps to the
    identity: its mid row is the levels, lo 0 and scale 1, which gives
    each level back exactly.
    """
    h = hist.astype(np.float64)
    excess = np.sum(np.maximum(h - clip_count, 0.0), axis=1, keepdims=True)
    h = np.where(excess > 0, np.minimum(h, clip_count) + excess / 256, h)
    mid = np.cumsum(h, axis=1)
    mid -= 0.5 * h
    occupied = h != 0
    first = np.argmax(occupied, axis=1)[:, None]
    last = 255 - np.argmax(occupied[:, ::-1], axis=1)[:, None]
    lo = np.take_along_axis(mid, first, axis=1)[:, 0]
    hi = np.take_along_axis(mid, last, axis=1)[:, 0]
    identity = ~occupied.any(axis=1) | (hi <= lo)
    scale = 255.0 / np.where(identity, 1.0, hi - lo)
    mid[identity] = np.arange(256, dtype=np.float64)
    lo[identity] = 0.0
    scale[identity] = 1.0
    return mid.reshape(-1), lo, scale


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
    between the four surrounding tile mappings. Every tile histogram of
    the stack comes from one bincount over (frame, tile, level) keys, and
    each pixel's four mappings from flat gathers into the stack's LUTs.

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
    tile_h = -(-h // ty)  # ceil division
    tile_w = -(-w // tx)
    padded = np.pad(img, ((0, 0), (0, tile_h * ty - h), (0, tile_w * tx - w)), mode="edge")

    # key of each padded pixel: ((frame * ty + tile row) * tx + tile column) * 256 + level
    tile_of = (np.arange(tile_h * ty) // tile_h)[:, None] * tx + np.arange(tile_w * tx) // tile_w
    frame_base = np.arange(n)[:, None, None] * (ty * tx)
    keys = (frame_base + tile_of) * 256 + padded
    hist = np.bincount(keys.reshape(-1), minlength=n * ty * tx * 256)

    area = tile_h * tile_w
    clip_count = clip_limit * area / 256.0
    mid, lo, scale = _tile_luts(hist.reshape(-1, 256), clip_count)
    # The blend reads four LUT entries per pixel. Tiles of more than 64
    # pixels hold fewer entries than that, so their LUTs are finished
    # whole, once; smaller tiles finish only the entries read.
    whole = 4 * area > 256
    if whole:
        luts = mid.reshape(-1, 256)
        luts -= lo[:, None]
        luts *= scale[:, None]
        np.clip(luts, 0.0, 255.0, out=luts)

    # bilinear blend of tile mappings, indexed by distance to tile centers
    yy = np.arange(h, dtype=np.float64)
    xx = np.arange(w, dtype=np.float64)
    gy = (yy - (tile_h - 1) / 2.0) / tile_h
    gx = (xx - (tile_w - 1) / 2.0) / tile_w
    y0 = np.clip(np.floor(gy).astype(np.int64), 0, ty - 1)
    x0 = np.clip(np.floor(gx).astype(np.int64), 0, tx - 1)
    y1 = np.minimum(y0 + 1, ty - 1)
    x1 = np.minimum(x0 + 1, tx - 1)
    wy = np.clip(gy - y0, 0.0, 1.0)[:, None]
    wx = np.clip(gx - x0, 0.0, 1.0)[None, :]

    levels = frame_base * 256 + img  # each pixel's entry in its frame's first LUT

    def mapped(rows, cols):
        """Each pixel through the LUT of tile (rows[y], cols[x]) of its frame."""
        pattern = rows[:, None] * tx + cols[None, :]
        lut = mid.take(levels + pattern * 256)
        if not whole:
            tile = frame_base + pattern
            lut -= lo.take(tile)
            lut *= scale.take(tile)
            np.clip(lut, 0.0, 255.0, out=lut)
        return lut

    top = mapped(y0, x0) * (1.0 - wx) + mapped(y0, x1) * wx
    bot = mapped(y1, x0) * (1.0 - wx) + mapped(y1, x1) * wx
    out = top * (1.0 - wy) + bot * wy
    return np.clip(np.round(out), 0, 255).astype(np.uint8)


def evaluate_frames(
    pred: np.ndarray,
    ref: np.ndarray,
    apply_clahe: bool = True,
) -> MetricReport:
    """Score stacks of 8-bit frames (N, H, W): CLAHE both sides (unless
    disabled), then per-frame MSE/SSIM on [0, 1] values, one block of
    frames (`frame_blocks`) at a time."""
    p = np.asarray(pred)
    r = np.asarray(ref)
    if p.shape != r.shape:
        raise ShapeMismatch(f"prediction {p.shape} vs reference {r.shape}")
    if p.ndim != 3:
        raise ShapeMismatch("expected (N, H, W) frame stacks")
    report = MetricReport()
    for block in frame_blocks(p):
        a, b = p[block], r[block]
        if apply_clahe:
            a = clahe(a)
            b = clahe(b)
        af = a.astype(np.float64) / 255.0
        bf = b.astype(np.float64) / 255.0
        report.mse_per_frame.extend(_frame_means((af - bf) ** 2).tolist())
        report.ssim_per_frame.extend(ssim(af, bf).tolist())
    return report
