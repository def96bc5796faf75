"""Whole-array temporal loss, spatial regularizer and objective, kept as a
bit-exact oracle.

This is the implementation `evrecon.training` used before it did the
frame-space work in cache-sized blocks of whole frames: each step of the
temporal residual and of the regularizer is one numpy call over every
selected frame, and every call allocates fresh seed and output-row arrays.
The blocked implementation must reproduce its seeds and gradients bit for
bit, since each element sees the same floating-point operations in the
same order. Only the float64 loss sums regroup by block. Only the tests
use it.
"""

from __future__ import annotations

import numpy as np

from evrecon.errors import DegenerateFrame, IndexOutOfRange


def temporal_loss(model, stack, frame_indices, target=None):
    """Mean squared temporal residual; aux["seeds"][1] holds the gradient
    with respect to the per-second tangents, aux["seeds"][0] is scratch."""
    idx = np.asarray(frame_indices, dtype=np.int64)
    if idx.ndim != 1 or len(idx) == 0:
        raise IndexOutOfRange("need at least one frame index")
    if idx.min() < 0 or idx.max() >= stack.num_frames:
        raise IndexOutOfRange(
            f"indices outside [0, {stack.num_frames}): {idx.min()}..{idx.max()}"
        )
    t_norm = model.normalize_time(stack.midpoints[idx])
    frames, tangents, cache = model.forward_with_tangent(t_norm)
    durs = stack.durations[idx].astype(frames.dtype)[:, None, None]
    seeds = np.empty((2, *frames.shape), dtype=frames.dtype)
    scratch, resid = seeds
    np.multiply(tangents, model.time_slope, out=resid)
    resid *= durs  # predicted ΔL
    scratch[...] = (stack.frames_as(np.float64) if target is None
                    else target)[idx]  # target ΔL, rounded here
    np.subtract(scratch, resid, out=resid)  # residual
    n = resid.size
    loss = float(np.sum(np.multiply(resid, resid, out=scratch), dtype=np.float64) / n)
    resid *= -2.0 / n
    resid *= durs  # d loss / d per-second tangent
    aux = {"frames": frames, "cache": cache, "seeds": seeds}
    return loss, aux


def spatial_reg_loss(frames: np.ndarray, out: np.ndarray | None = None):
    """Mean squared forward differences Dx^2 + Dy^2 and their gradient."""
    f = np.asarray(frames)
    if not np.issubdtype(f.dtype, np.floating):
        f = f.astype(np.float64)
    if f.ndim not in (2, 3) or f.shape[-2] < 2 or f.shape[-1] < 2:
        raise DegenerateFrame(f"need at least 2x2 frames, got shape {f.shape}")
    frames = f if f.ndim == 3 else f[None]
    k, h, w = frames.shape
    grad = (np.empty_like(f) if out is None else out).reshape(frames.shape)
    nx = k * h * (w - 1)
    ny = k * (h - 1) * w
    diff_buf = np.empty(max(nx, ny), dtype=f.dtype)
    square_buf = np.empty_like(diff_buf)
    dx = np.subtract(frames[:, :, 1:], frames[:, :, :-1], out=diff_buf[:nx].reshape(k, h, w - 1))
    sum_x = np.sum(np.multiply(dx, dx, out=square_buf[:nx].reshape(dx.shape)), dtype=np.float64)
    dx *= 2.0 / nx
    grad[...] = 0.0
    grad[:, :, 1:] += dx
    grad[:, :, :-1] -= dx
    dy = np.subtract(frames[:, 1:, :], frames[:, :-1, :], out=diff_buf[:ny].reshape(k, h - 1, w))
    sum_y = np.sum(np.multiply(dy, dy, out=square_buf[:ny].reshape(dy.shape)), dtype=np.float64)
    dy *= 2.0 / ny
    grad[:, 1:, :] += dy
    grad[:, :-1, :] -= dy
    loss = float(sum_x / nx + sum_y / ny)
    return loss, grad if f.ndim == 3 else grad[0]


def objective(model, stack, frame_indices, lambda_reg: float, target=None):
    """(l_temp, l_reg, aux) with aux["seeds"] ready for model.backward."""
    l_temp, aux = temporal_loss(model, stack, frame_indices, target)
    seeds = aux["seeds"]
    seeds[1] *= model.time_slope  # per second -> per t_norm
    if lambda_reg > 0:
        l_reg, _ = spatial_reg_loss(aux["frames"], out=seeds[0])
        seeds[0] *= lambda_reg
    else:
        l_reg = 0.0
        seeds[0] = 0.0
    return l_temp, l_reg, aux
