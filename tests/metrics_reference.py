"""Per-frame CLAHE, SSIM and evaluation loop, kept as a bit-exact oracle.

This is the frame-at-a-time implementation `evrecon.metrics` used before
it scored frames in blocks: one Python loop over the tiles of each frame,
ten `correlate1d` calls per SSIM, and one CLAHE, MSE and SSIM call per
frame pair. The block implementation must reproduce it bit for bit, since
it performs the same floating-point operations in the same order. Only the
tests use it.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import correlate1d

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _gaussian_taps(radius: int, sigma: float) -> np.ndarray:
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    w = np.exp(-0.5 * (x / sigma) ** 2)
    return w / w.sum()


def _window_mean(img: np.ndarray, taps: np.ndarray, radius: int) -> np.ndarray:
    out = correlate1d(img, taps, axis=0, mode="constant")
    out = correlate1d(out, taps, axis=1, mode="constant")
    return out[radius:-radius, radius:-radius]


def ssim_frame(pred: np.ndarray, ref: np.ndarray) -> float:
    """SSIM of one pair of 2-D frames with values in [0, 1]."""
    a = np.asarray(pred, dtype=np.float64)
    b = np.asarray(ref, dtype=np.float64)
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


def clahe_frame(frame: np.ndarray, tiles: tuple = (8, 8), clip_limit: float = 2.0) -> np.ndarray:
    """CLAHE of one 2-D uint8 frame, one tile at a time."""
    img = np.asarray(frame)
    h, w = img.shape
    ty, tx = tiles
    tile_h = -(-h // ty)
    tile_w = -(-w // tx)
    padded = np.pad(img, ((0, tile_h * ty - h), (0, tile_w * tx - w)), mode="edge")

    area = tile_h * tile_w
    clip_count = clip_limit * area / 256.0
    luts = np.empty((ty, tx, 256), dtype=np.float64)
    for r in range(ty):
        for c in range(tx):
            tile = padded[r * tile_h : (r + 1) * tile_h, c * tile_w : (c + 1) * tile_w]
            luts[r, c] = _tile_lut(np.bincount(tile.reshape(-1), minlength=256), clip_count)

    gy = (np.arange(h, dtype=np.float64) - (tile_h - 1) / 2.0) / tile_h
    gx = (np.arange(w, dtype=np.float64) - (tile_w - 1) / 2.0) / tile_w
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


def evaluate_frame_by_frame(pred: np.ndarray, ref: np.ndarray, apply_clahe: bool = True):
    """(per-frame MSE list, per-frame SSIM list), one frame pair at a time."""
    mses, ssims = [], []
    for a, b in zip(pred, ref):
        if apply_clahe:
            a, b = clahe_frame(a), clahe_frame(b)
        af = a.astype(np.float64) / 255.0
        bf = b.astype(np.float64) / 255.0
        mses.append(float(np.mean((af - bf) ** 2)))
        ssims.append(ssim_frame(af, bf))
    return mses, ssims
