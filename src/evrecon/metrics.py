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

from .errors import ShapeMismatch, TooSmall

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


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


def _gaussian_taps(radius: int, sigma: float) -> np.ndarray:
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    w = np.exp(-0.5 * (x / sigma) ** 2)
    return w / w.sum()


def _window_mean(img: np.ndarray, taps: np.ndarray, radius: int) -> np.ndarray:
    """Separable Gaussian filter restricted to fully valid windows."""
    out = correlate1d(img, taps, axis=0, mode="constant")
    out = correlate1d(out, taps, axis=1, mode="constant")
    return out[radius:-radius, radius:-radius]


def ssim(pred: np.ndarray, ref: np.ndarray) -> float:
    """Structural similarity on frames with values in [0, 1]."""
    a = np.asarray(pred, dtype=np.float64)
    b = np.asarray(ref, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shape {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ShapeMismatch("ssim expects 2-D frames")
    if min(a.shape) < SSIM_WINDOW:
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
    return float(np.mean(num / den))


def _tile_lut(hist: np.ndarray, clip_count: float) -> np.ndarray:
    """Equalization LUT from one tile's clipped histogram.

    Uses the midpoint CDF (each bin maps to the center of its own mass)
    normalized between the first and last occupied bins: a flat histogram
    maps to the identity ramp exactly, so a uniform tile stays put to
    within quantization.
    """
    h = hist.astype(np.float64)
    excess = np.sum(np.maximum(h - clip_count, 0.0))
    if excess > 0:
        h = np.minimum(h, clip_count)
        h += excess / len(h)
    mid = np.cumsum(h) - 0.5 * h
    occupied = np.nonzero(h)[0]
    if len(occupied) == 0:
        return np.arange(256, dtype=np.float64)
    lo, hi = mid[occupied[0]], mid[occupied[-1]]
    if hi <= lo:
        return np.arange(256, dtype=np.float64)
    return np.clip((mid - lo) * (255.0 / (hi - lo)), 0.0, 255.0)


def clahe(
    frame: np.ndarray,
    tiles: tuple = (8, 8),
    clip_limit: float = 2.0,
) -> np.ndarray:
    """Contrast-limited adaptive histogram equalization of an 8-bit frame.

    The image is edge-extended to a multiple of the tile grid; each tile's
    256-bin histogram is clipped at clip_limit times the flat level and the
    excess spread uniformly; pixels are remapped by bilinear interpolation
    between the four surrounding tile mappings.

    A second pass is not idempotent while the clip binds, since each pass
    stretches a low-contrast frame further, and the blend can ripple a
    monotone ramp by a level or two. Frames whose tiles have flat
    histograms are returned unchanged and a uniform frame moves by at most
    one level. With one tile and a clip that cannot bind this is plain
    histogram equalization, which is idempotent.
    """
    img = np.asarray(frame)
    if img.dtype != np.uint8:
        if np.issubdtype(img.dtype, np.integer) and img.min() >= 0 and img.max() <= 255:
            img = img.astype(np.uint8)
        else:
            raise ValueError("clahe expects an 8-bit frame")
    if img.ndim != 2:
        raise ValueError("clahe expects a 2-D frame")
    h, w = img.shape
    ty, tx = tiles
    tile_h = -(-h // ty)  # ceil division
    tile_w = -(-w // tx)
    pad_y = tile_h * ty - h
    pad_x = tile_w * tx - w
    padded = np.pad(img, ((0, pad_y), (0, pad_x)), mode="edge")

    area = tile_h * tile_w
    clip_count = clip_limit * area / 256.0
    luts = np.empty((ty, tx, 256), dtype=np.float64)
    for r in range(ty):
        for c in range(tx):
            tile = padded[r * tile_h : (r + 1) * tile_h, c * tile_w : (c + 1) * tile_w]
            hist = np.bincount(tile.reshape(-1), minlength=256)
            luts[r, c] = _tile_lut(hist, clip_count)

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

    vals = img.astype(np.int64)
    m00 = luts[y0[:, None], x0[None, :], vals]
    m01 = luts[y0[:, None], x1[None, :], vals]
    m10 = luts[y1[:, None], x0[None, :], vals]
    m11 = luts[y1[:, None], x1[None, :], vals]
    top = m00 * (1.0 - wx) + m01 * wx
    bot = m10 * (1.0 - wx) + m11 * wx
    out = top * (1.0 - wy) + bot * wy
    return np.clip(np.round(out), 0, 255).astype(np.uint8)


def evaluate_frames(
    pred: np.ndarray,
    ref: np.ndarray,
    apply_clahe: bool = True,
) -> MetricReport:
    """Score stacks of 8-bit frames (N, H, W): CLAHE both sides (unless
    disabled), then per-frame MSE/SSIM on [0, 1] values."""
    p = np.asarray(pred)
    r = np.asarray(ref)
    if p.shape != r.shape:
        raise ShapeMismatch(f"prediction {p.shape} vs reference {r.shape}")
    if p.ndim != 3:
        raise ShapeMismatch("expected (N, H, W) frame stacks")
    report = MetricReport()
    for k in range(len(p)):
        a, b = p[k], r[k]
        if apply_clahe:
            a = clahe(a)
            b = clahe(b)
        af = a.astype(np.float64) / 255.0
        bf = b.astype(np.float64) / 255.0
        report.mse_per_frame.append(mse(af, bf))
        report.ssim_per_frame.append(ssim(af, bf))
    return report
