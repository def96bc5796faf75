"""Whole-array sampling, tone mapping and enhancement bytes, kept as a
bit-exact oracle.

This is the output path `evrecon.reconstruct` used before it streamed:
each partition's and each overlap pair's frames come back from the network
as new arrays, are offset and blended out of place and scattered into the
video through a boolean mask, and the byte mappings run over the whole
video at once. `forward` is `SirenModel.forward` as it was, with the
output bias added out of place. The streamed code must reproduce all of it
bit for bit, since every element sees the same floating-point operations
in the same order and every network batch holds the same times. Only the
tests use it.
"""

from __future__ import annotations

import numpy as np

from evrecon.reconstruct import check_in_span

_OVERLAP_MEAN_SAMPLES = 9


def forward(model, t_norm) -> np.ndarray:
    """(K, H, W) frames at a length-K array of normalized times."""
    x = np.asarray(t_norm, dtype=model.params.dtype).reshape(-1, 1)
    *hidden, (w_out, b_out) = model.layers()
    a = x
    for w, b in hidden:
        a = np.sin(model.omega0 * (a @ w.T + b))
    y = a @ w_out.T + b_out
    return y.reshape(-1, model.height, model.width)


def _batched_forward(partition, times: np.ndarray, tangent: bool):
    model = partition.model
    t_norm = model.normalize_time(times)
    if tangent:
        _, tan, _ = model.forward_with_tangent(t_norm)
        return tan * model.time_slope
    return forward(model, t_norm)


def _chained_offsets(partitions, lo, hi) -> np.ndarray:
    offsets = np.zeros(len(partitions))
    for i in range(len(lo)):
        if hi[i] <= lo[i]:
            continue  # zero overlap: nothing measurable, keep offsets
        grid = np.linspace(lo[i], hi[i], _OVERLAP_MEAN_SAMPLES)
        mean_a = float(np.mean(_batched_forward(partitions[i], grid, False)))
        mean_b = float(np.mean(_batched_forward(partitions[i + 1], grid, False)))
        offsets[i + 1] = offsets[i] + (mean_a - mean_b)
    return offsets


def sample(partitions, times: np.ndarray, tangent: bool) -> np.ndarray:
    """Offset-corrected log frames (tangent=False) or per-second time
    derivatives (tangent=True) of the stitched ensemble."""
    partitions = sorted(partitions, key=lambda p: p.index)
    h, w = partitions[0].model.height, partitions[0].model.width
    t0, t1 = partitions[0].span[0], partitions[-1].span[1]
    check_in_span(times, t0, t1)
    lo = np.array([p.span[0] for p in partitions[1:]])
    hi = np.array([p.span[1] for p in partitions[:-1]])
    in_overlap = (times[:, None] >= lo) & (times[:, None] <= hi) & (hi > lo)
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


def enhance_events(partitions, times, window_dt: float) -> np.ndarray:
    return sample(partitions, np.asarray(times, dtype=np.float64), tangent=True) * window_dt


def tone_map(log_frames: np.ndarray, gamma: float = 0.6) -> np.ndarray:
    """Bytes of (N, H, W) log frames whose exp is finite."""
    i = np.exp(log_frames)
    compressed = np.power(i / (i + 1.0), gamma)
    return np.clip(np.round(compressed * 255.0), 0, 255).astype(np.uint8)


def enhancement_to_bytes(grids: np.ndarray, scale: float | None = None) -> np.ndarray:
    g = np.asarray(grids, dtype=np.float64)
    if scale is None:
        scale = float(np.abs(g).max()) or 1.0
    return np.clip(np.round(128.0 + 128.0 * g / scale), 0, 255).astype(np.uint8)
