"""Fit time -> frame networks to event-frame stacks.

The objective per iteration is

    L = L_temp + lambda * L_reg

where L_temp is the mean squared residual between each bin's accumulated
log-intensity change and the network's time derivative at the bin midpoint
times the bin duration, and L_reg penalizes spatial forward differences of
the emitted frames. Both are means over pixels and sampled bins, so the
regularization weight transfers across resolutions. `objective` computes L
and the seeds that SirenModel.backward turns into its gradient, for the
training loop and the selftest's finite-difference oracle alike.

A stage of K bins has two exact forms of the objective, and
`_feature_space` picks one: the feature path when the last hidden width n
is below K, the frame path otherwise. The frame path makes K frame rows
over K tangent rows of P = H*W pixels, takes the residual and the
spatial differences on them, and back-propagates 2K rows of seeds through
the output layer: 6 K n P multiply-adds plus about 23 passes over K * P
values. The network's head is affine, and the feature path computes both
terms from it and the last hidden rows without any output rows. The
temporal residual is linear in the head W, so its square expands into
the target τ (K x P, `_Target`) times W and n x n Gram matrices
(`temporal_loss`). The frames are Ã W̃^T with W̃ = [W | b] and Ã = [A | 1]
the last hidden activations, so the spatial term is a quadratic form in
two (n+1) x (n+1) Gram matrices (`_frame_term`). The whole objective then
costs 2 K n P plus about 4 P (n+1)^2 multiply-adds: the two counts are
equal at n = K. The paths differ by rounding only. A network wider than
its stage's bins (the 512-wide selftest network, at most 256 bins) never
leaves the frame path, so the feature path's rounding never reaches it.

The frame path's frame-space work (residual, squares, forward
differences, the 2/n and duration scalings, the gradient scatter, lambda
and the time slope) runs on blocks of whole frames (`metrics.frame_blocks`)
while a block is in L2 cache, not as a dozen passes over (K, H*W) arrays.
Every element sees the operations of a whole-array pass in the same order,
so seeds, gradients, parameters and frames keep their bits; only the
float64 loss sums regroup by block (about 1e-16 relative). The target, C
times the stack's int32 counts, is made per block, rounded straight into
the block's scratch (`EventFrameStack.frames_as`), so no float copy of the
stack exists. The seeds overwrite the network's output rows they are
computed from, in the `rows` array the caller passes. So training keeps
one (2K, H*W) array per frame-path stage, and a feature stage keeps its
(K, H*W) target, made once (once per iteration with `batch_frames`), and
one (H*W, n+1) array. Each is reused by every iteration of its stage and
freed at the refinement that ends it. No iteration's gradient or forward
cache outlives that iteration: both are dropped after its Adam step,
before the next forward pass makes its own.

Training is coarse-to-fine: the stack starts at the configured uniform bin
width and is bisected at the scheduled iterations, doubling its temporal
resolution each time. Long streams are cut into fixed-length partitions
(one independent network each, trainable in parallel) whose spans overlap
so reconstruction can stitch them seamlessly.

Threading policy: cores go to partitions first, and BLAS gets what is
left. Partitions are independent, so `train_ensemble` trains `workers =
min(threads, partitions)` of them at once on `parallel.fork_map`, the
caller as worker 0 and forked helper processes as the rest; where the
"fork" start method does not exist, one worker trains every partition.
While more than one worker runs, numpy's OpenBLAS is set to `max(1,
previous // workers)` threads before the helpers are forked, and
restored after they have exited: partition workers and BLAS threads
competing for the same cores slow every GEMM. On a 2-vCPU VM (OpenBLAS
0.3.31, float32 passes) the six 32x32 partitions of the benchmark's
multipart32 workload trained in 4.7-5.1 s on two workers with one BLAS
thread each, against 5.1-6.0 s on the two partition threads this
replaced and 7.2-8.2 s on one worker with two BLAS threads (4 runs each).
A single partition keeps all BLAS threads: the one-partition 64x64
selftest fixture trained in 19.7 and 21.3 s on two, against 27.5 and
27.3 s pinned to one. When numpy's OpenBLAS cannot be found through
ctypes, the BLAS thread count is left alone.
"""

from __future__ import annotations

import ctypes
import functools
import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    DegenerateFrame,
    DivergedTraining,
    IndexOutOfRange,
    InvalidConfig,
    InvalidDimensions,
    NonFiniteGradient,
    NonFiniteOutput,
    ShapeMismatch,
    check_settings,
)
from .events import EventStream
from .frames import EventFrameStack, refine_bins, stack_uniform
from .metrics import BLOCK_PIXELS, blocks, frame_blocks
from .parallel import fork_map
from .siren import AdamState, SirenModel, adam_step, all_finite, init_siren

_DIVERGENCE_FACTOR = 1e6


def _whole(name: str, value) -> int:
    """`value` as an int; InvalidConfig naming `name` when it has a
    fractional part. Integral floats, however large, are whole."""
    if isinstance(value, int) or float(value).is_integer():
        return int(value)
    raise InvalidConfig(f"{name} must be a whole number, got {value}")


@dataclass
class TrainConfig:
    """Hyper-parameters of the optimization.

    Defaults: contrast threshold 1.0 (0.25 suits low-threshold sensors),
    1/32 s initial bins refined at iterations 100 and 200 (3 stages), 300
    Adam iterations at lr 1e-4 decayed by 0.95 every 10 steps, spatial
    weight 0.05, 5 s partitions with 0.5 s overlap, full-batch sampling.
    """

    lambda_reg: float = 0.05
    threshold_C: float = 1.0
    initial_bin: float = 1.0 / 32.0
    refine_at_iters: tuple = (100, 200)
    total_iters: int = 300
    lr: float = 1e-4
    lr_decay: float = 0.95
    lr_decay_every: int = 10
    partition_tau: float = 5.0
    overlap: float = 0.5
    batch_frames: int | None = None  # None = all frames every iteration
    seed: int = 0
    hidden_features: int = 512
    hidden_layers: int = 3
    omega0: float = 30.0

    def __post_init__(self):
        check_settings(InvalidConfig, threshold_C=self.threshold_C, initial_bin=self.initial_bin,
                       lr=self.lr, lr_decay=self.lr_decay, partition_tau=self.partition_tau,
                       omega0=self.omega0)
        check_settings(InvalidConfig, 0, lambda_reg=self.lambda_reg, overlap=self.overlap,
                       seed=self.seed)
        check_settings(InvalidConfig, 1, total_iters=self.total_iters,
                       lr_decay_every=self.lr_decay_every, hidden_features=self.hidden_features,
                       hidden_layers=self.hidden_layers)
        if self.batch_frames is not None:
            check_settings(InvalidConfig, 1, batch_frames=self.batch_frames)
        for name in ("total_iters", "lr_decay_every", "seed", "hidden_features", "hidden_layers",
                     "batch_frames"):
            if getattr(self, name) is not None:  # batch_frames may be None
                setattr(self, name, _whole(name, getattr(self, name)))
        self.refine_at_iters = tuple(_whole("refine_at_iters", i) for i in self.refine_at_iters)
        check_settings(InvalidConfig, 0, refine_at_iters=min(self.refine_at_iters, default=0))
        if any(b <= a for a, b in zip(self.refine_at_iters, self.refine_at_iters[1:])):
            raise InvalidConfig("refine_at_iters must be strictly increasing")
        if self.refine_at_iters and self.refine_at_iters[-1] >= self.total_iters:
            raise InvalidConfig(f"refine_at_iters must end before total_iters "
                                f"{self.total_iters}, got {self.refine_at_iters}")
        if not self.overlap < self.partition_tau:
            raise InvalidConfig(f"overlap must keep partition_tau > overlap, got {self.overlap} "
                                f"with partition_tau {self.partition_tau}")

    def layer_sizes(self, num_pixels: int) -> list:
        return [1] + [self.hidden_features] * self.hidden_layers + [num_pixels]


@dataclass
class TrainReport:
    """Loss history and bookkeeping from one partition's training."""

    temporal: list = field(default_factory=list)
    regularization: list = field(default_factory=list)
    total: list = field(default_factory=list)
    stack_sizes: list = field(default_factory=list)
    workers: int = 1  # partitions trained at once
    blas_threads: int | None = None  # BLAS threads while training; None = left as found


@dataclass
class Partition:
    """One sub-sequence: its time span (its network's t_domain, by which
    sampling routes times), event stack, and network.

    stack and events are None for partitions rehydrated from checkpoints.
    events views the arrays of the stream the partitions were cut from,
    read-only, so no partition copies its events.
    """

    index: int
    span: tuple  # trained span including overlap margins
    model: SirenModel  # float32 from build_partitions; training updates it in place
    stack: EventFrameStack | None = None
    events: EventStream | None = None  # the events inside span; refinement re-bins them
    report: TrainReport | None = None


@dataclass
class _Target:
    """A feature stage's target: C * counts of K selected bins as one
    (K, H*W) array of the model's dtype, and its squared sum in float64.
    `fill` makes it with `EventFrameStack.frames_as`, block by block, and
    only when the stack or the bins differ from those it holds, so a stage
    that trains on all its bins makes it once."""

    values: np.ndarray
    stack: EventFrameStack | None = None
    idx: np.ndarray | None = None
    sum_sq: float = 0.0

    def fill(self, stack: EventFrameStack, idx: np.ndarray) -> None:
        if stack is self.stack and np.array_equal(idx, self.idx):
            return
        frames = self.values.reshape(len(idx), *stack.counts.shape[1:])
        self.sum_sq = 0.0
        for b in frame_blocks(frames):
            block = stack.frames_as(frames.dtype, rows=idx[b], out=frames[b])
            self.sum_sq += float(np.sum(np.square(block, dtype=np.float64)))
        self.stack, self.idx = stack, idx.copy()


def temporal_loss(model: SirenModel, stack: EventFrameStack, frame_indices,
                  rows: np.ndarray | None = None, target: _Target | None = None):
    """Mean squared temporal residual over the selected bins.

    For each index k the network's per-second tangent at the bin midpoint
    is scaled by the bin duration to predict that bin's ΔL, the target
    C * counts[k] rounded to the dtype of the model (`stack.frames_as`).

    Frame path (`target` None): the pass makes the frame rows over the
    tangent rows, and the work runs block by block, with the target made
    for one block at a time in the block's scratch (see the module
    docstring). `rows` is a (2K, H*W) array of the model's dtype, made
    when None. The network writes its K frame rows over its K tangent rows
    into it, and the tangent rows are then overwritten with the gradient
    of the loss with respect to the tangents the network emitted (per
    t_norm). Returns (loss, seeds, cache): seeds is `rows` viewed as
    (2, K, H, W), the frames over that gradient, and cache is the forward
    pass's, for SirenModel.backward once `objective` has turned the frames
    into seeds.

    Feature path (`target`, a `_Target` of K rows, which this fills): the
    pass makes no output rows. With the target τ, the head W (P x n), the
    last hidden tangent rows A', the bin durations D, the time slope s and
    N = K * P, the residual τ - s D A' W^T is linear in W, so

        L = (|τ|^2 - 2 s <τ W, D A'> + s^2 <W^T W, A'^T D^2 A'>) / N,

    with gradient (2/N) (s^2 W A'^T D^2 A' - s τ^T D A') for W and (2/N)
    (s^2 D^2 A' W^T W - s D τ W) for A'. That takes 2 K n P multiply-adds
    (τ W and τ^T D A') and n x n products, against the frame path's 3 K n P
    for its tangent rows plus about 9 passes over K * P values. Returns
    (loss, None, cache) with `cache.head` set to the gradient (with a zero
    bias and value-row part, which `_frame_term` adds to) for
    SirenModel.backward. A non-finite τ W raises NonFiniteOutput.
    """
    idx = np.asarray(frame_indices, dtype=np.int64)
    if idx.ndim != 1 or len(idx) == 0:
        raise IndexOutOfRange("need at least one frame index")
    if idx.min() < 0 or idx.max() >= stack.num_frames:
        raise IndexOutOfRange(
            f"indices outside [0, {stack.num_frames}): {idx.min()}..{idx.max()}"
        )
    k = len(idx)
    t_norm = model.normalize_time(stack.midpoints[idx])
    if target is not None:
        return _temporal_in_features(model, stack, idx, t_norm, target)
    if rows is None:
        rows = np.empty((2 * k, model.num_pixels), model.params.dtype)
    _, tangents, cache = model.forward_with_tangent(t_norm, out=rows)
    seeds = rows.reshape(2, *tangents.shape)  # the frame rows over the tangent rows
    durs = stack.durations[idx].astype(tangents.dtype)[:, None, None]
    blocks = frame_blocks(tangents)
    scratch = np.empty((blocks[0].stop, *tangents.shape[1:]), dtype=tangents.dtype)
    slope = model.time_slope
    n = tangents.size
    sum_sq = 0.0
    for b in blocks:
        resid, s, d = seeds[1, b], scratch[:b.stop - b.start], durs[b]
        np.multiply(tangents[b], slope, out=resid)
        resid *= d  # predicted ΔL
        stack.frames_as(tangents.dtype, rows=idx[b], out=s)  # target ΔL
        np.subtract(s, resid, out=resid)  # residual
        sum_sq += np.sum(np.multiply(resid, resid, out=s), dtype=np.float64)
        resid *= -2.0 / n
        resid *= d  # d loss / d per-second tangent
        resid *= slope  # per second -> per t_norm
    return float(sum_sq / n), seeds, cache


def _temporal_in_features(model: SirenModel, stack: EventFrameStack, idx: np.ndarray,
                          t_norm: np.ndarray, target: _Target):
    """temporal_loss's feature path (see its docstring)."""
    k = len(idx)
    slope = model.time_slope
    target.fill(stack, idx)
    _, _, cache = model.forward_with_tangent(t_norm, output=False)
    tau, w = target.values, model.layers()[-1][0]
    tw = tau @ w
    if not all_finite(tw):
        raise NonFiniteOutput("target times head produced NaN/Inf")
    durs = stack.durations[idx].astype(w.dtype)[:, None]
    da = cache.inputs[-1][k:] * durs  # D A'
    ww, dd = w.T @ w, da.T @ da
    n = tau.size
    loss = (target.sum_sq - 2.0 * slope * _dot(tw, da) + slope * slope * _dot(ww, dd)) / n
    grads = np.empty_like(model.params)
    gw, gb = model.layers(grads)[-1]
    c = 2.0 * slope / n
    z, y = np.multiply(da, -c), np.multiply(dd, c * slope)
    for r in _head_blocks(len(gw), k):  # c (s W A'^T D^2 A' - τ^T D A')
        g = np.matmul(tau[:, r].T, z, out=gw[r])
        g += w[r] @ y
    gb[:] = 0.0
    d_in = np.zeros((2 * k, w.shape[1]), w.dtype)  # no value-row part yet
    d_tan = np.matmul(da, ww, out=d_in[k:])  # then c D (s D A' W^T W - τ W)
    d_tan *= slope
    d_tan -= tw
    d_tan *= durs
    d_tan *= c
    cache.head = (grads, d_in)
    return float(loss), None, cache


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) over two small arrays, in float64."""
    return float(np.sum(np.multiply(a, b, dtype=np.float64)))


def _head_blocks(p: int, m: int) -> list:
    """`blocks` of the P rows of a head-sized product whose (P, m) left
    operand is a transposed view. Whole, τ^T D A' touched about 14 MB more of
    OpenBLAS's two-thread buffers than in blocks of 2048 rows, in the same
    time (K = 256, P = 16384, n = 64; 2 vCPUs, OpenBLAS 0.3.31)."""
    return blocks(p, m, 16 * BLOCK_PIXELS)


def spatial_reg_loss(frames: np.ndarray, out: np.ndarray | None = None,
                     grad_scale: float = 1.0):
    """Mean over x-sites of the squared forward difference Dx^2 plus mean
    over y-sites of Dy^2, averaged over the batch, with its exact gradient
    with respect to the frames times `grad_scale`. Takes a (K, H, W) float
    array and computes in its dtype; the gradient has its shape and is
    written into `out` when given, which may be `frames` itself. Sums
    accumulate in float64, block by block (see the module docstring).
    """
    if frames.ndim != 3 or frames.shape[0] < 1 or min(frames.shape[1:]) < 2:
        raise DegenerateFrame(f"need (K, H, W) frames, K >= 1, H, W >= 2, got {frames.shape}")
    k, h, w = frames.shape
    if out is not None and not (out.shape == frames.shape and out.flags.c_contiguous):
        raise ShapeMismatch(f"out must be a C-contiguous array of shape {frames.shape}")
    grad = np.empty(frames.shape, frames.dtype) if out is None else out
    nx = k * h * (w - 1)
    ny = k * (h - 1) * w
    # Each block runs as contiguous 1-D passes over its flattened frames.
    # dx and dy hold Dx and Dy at the pixel each difference starts from,
    # and a zero at pixels with no right (lower) neighbour: the zeros add
    # nothing to the sums, and adding or subtracting them leaves every
    # gradient element the bits of the whole-array pass (no element is
    # -0.0 where a zero is added). Both are taken before the block's
    # gradient is written, so `out` may overwrite the frames.
    blocks = frame_blocks(frames)
    dx = np.empty((blocks[0].stop, h, w), dtype=frames.dtype)
    dy, square = np.empty_like(dx), np.empty_like(dx)
    sum_x = sum_y = 0.0
    for b in blocks:
        m = b.stop - b.start
        fb, g = frames[b].reshape(-1), grad[b].reshape(-1)
        x, y, sq = dx[:m], dy[:m], square[:m]
        xflat, yflat = x.reshape(-1), y.reshape(-1)
        np.subtract(fb[1:], fb[:-1], out=xflat[:-1])
        x[:, :, -1] = 0.0
        np.subtract(fb[w:], fb[:-w], out=yflat[:-w])
        y[:, -1, :] = 0.0
        sum_x += np.sum(np.multiply(x, x, out=sq), dtype=np.float64)
        sum_y += np.sum(np.multiply(y, y, out=sq), dtype=np.float64)
        x *= 2.0 / nx
        y *= 2.0 / ny
        g[0] = 0.0
        np.add(0.0, xflat[:-1], out=g[1:])
        g -= xflat
        g[w:] += yflat[:-w]
        g -= yflat
        g *= grad_scale
    return float(sum_x / nx + sum_y / ny), grad


def _feature_space(model: SirenModel, k: int) -> bool:
    """Whether a stage of K selected bins trains without output rows (see
    the module docstring): when the last hidden width n is below K, where
    the feature path's 2 K n P plus about 4 P (n+1)^2 multiply-adds
    undercut the frame path's 6 K n P plus about 23 passes over K * P
    values."""
    return model.layer_sizes[-2] < k


def _stage_arrays(model: SirenModel, k: int, lambda_reg: float):
    """(rows, lw, target): the arrays one ladder stage of K bins reuses at
    every iteration, `objective`'s last three arguments. The frame path
    has (2K, H*W) rows and no other. A feature stage has no rows: its
    `_Target` holds a (K, H*W) array, and lw is `_frame_term`'s (H*W, n+1)
    array when lambda_reg > 0, made first: with the (K, H*W) array made
    first, glibc's heap left perfbench's `hires128` run 7-12 MB higher in
    peak RSS at two of three seeds (242 and 238 MB against 230 and 232 MB;
    2 vCPUs, glibc malloc)."""
    p, dtype = model.num_pixels, model.params.dtype
    if not _feature_space(model, k):
        return np.empty((2 * k, p), dtype), None, None
    lw = np.empty((p, model.layer_sizes[-2] + 1), dtype) if lambda_reg > 0 else None
    return None, lw, _Target(np.empty((k, p), dtype))


def _laplacian(x: np.ndarray, out: np.ndarray, cx: float, cy: float) -> None:
    """out = cx Dx^T Dx x + cy Dy^T Dy x for (H, W, C) slabs x: the
    gradient of (cx/2) |Dx x|^2 + (cy/2) |Dy x|^2 per channel, where Dx
    and Dy are the forward differences `spatial_reg_loss` takes. Works on
    blocks of image rows in two contiguous scratch arrays, each difference
    taken before it is scaled and scattered, as `spatial_reg_loss` does;
    `out`, which may be a strided view, is written once per block."""
    h, w, c = x.shape
    rows = blocks(h, w * c)
    diff = np.empty((rows[0].stop + 1, w, c), x.dtype)
    acc = np.empty((rows[0].stop, w, c), x.dtype)
    for r in rows:
        lo, hi = r.start, r.stop
        g, d = acc[:hi - lo], diff[:hi - lo]
        np.subtract(x[lo:hi, 1:], x[lo:hi, :-1], out=d[:, :-1])
        d[:, -1] = 0.0
        d *= cx
        np.negative(d[:, 0], out=g[:, 0])
        np.subtract(d[:, :-1], d[:, 1:], out=g[:, 1:])
        # Dy of rows first..last-1: row i gains row i-1's difference and
        # loses its own, and the last image row has none.
        first, last = max(lo - 1, 0), min(hi, h - 1)
        d = diff[:last - first]
        np.subtract(x[first + 1:last + 1], x[first:last], out=d)
        d *= cy
        start = max(lo, 1)
        g[start - lo:] += d[start - 1 - first:hi - 1 - first]
        g[:last - lo] -= d[lo - first:]
        out[lo:hi] = g


def _frame_term(model: SirenModel, cache, lambda_reg: float, lw: np.ndarray | None = None):
    """The spatial term on the frames of the K bins of `cache`, in feature
    space; lambda_reg times its gradients are added to those
    `temporal_loss` put in `cache.head`.

    The frames are Ã W̃^T with W̃ = [W | b] the output layer (P x (n+1))
    and Ã = [A | 1] the last hidden activations, and the term is
    (1/2) sum_k ã_k^T W̃^T Λ W̃ ã_k with Λ = (2/nx) Dx^T Dx + (2/ny) Dy^T Dy,
    the free-boundary Laplacian whose gradient spatial_reg_loss scatters.
    So with M = W̃^T Λ W̃ and G = Ã^T Ã, L_reg = <G, M> / 2, whose
    gradient is Λ W̃ G for W̃ and Ã M for Ã. `lw` receives Λ W̃ (made when
    None). M's bias row and corner are taken from Λ b and b - b[0], so a
    constant added to b changes nothing but the rounding of b itself, as
    on the frame path. Returns L_reg.
    """
    k = len(cache.inputs[0]) // 2
    w, b = model.layers()[-1]
    p, n = w.shape
    h, wd = model.height, model.width
    lw = np.empty((p, n + 1), w.dtype) if lw is None else lw
    cx, cy = 2.0 / (k * h * (wd - 1)), 2.0 / (k * (h - 1) * wd)
    slabs = lw.reshape(h, wd, n + 1)
    _laplacian(w.reshape(h, wd, n), slabs[:, :, :n], cx, cy)
    _laplacian(b.reshape(h, wd, 1), slabs[:, :, n:], cx, cy)
    m = np.empty((n + 1, n + 1), w.dtype)
    np.matmul(w.T, lw, out=m[:n])
    m[n, :n] = m[:n, n]
    m[n, n] = np.dot(b - b[0], lw[:, n])  # 1^T Λ = 0
    a = cache.inputs[-1][:k]
    gram = np.empty_like(m)
    np.matmul(a.T, a, out=gram[:n, :n])
    gram[n, :n] = gram[:n, n] = a.sum(axis=0)
    gram[n, n] = k
    l_reg = 0.5 * _dot(gram, m)
    grads, d_in = cache.head
    gw, gb = model.layers(grads)[-1]
    gram *= lambda_reg
    for r in _head_blocks(p, n + 1):
        gw[r] += lw[r] @ gram[:, :n]
    np.matmul(lw, gram[:, n], out=gb)
    d_val = np.matmul(a, m[:n, :n], out=d_in[:k])
    d_val += m[n, :n]
    d_val *= lambda_reg
    return l_reg


def objective(model: SirenModel, stack: EventFrameStack, frame_indices, lambda_reg: float,
              rows: np.ndarray | None = None, lw: np.ndarray | None = None,
              target: _Target | None = None):
    """The training objective L_temp + lambda_reg * L_reg on the selected
    bins. Returns (l_temp, l_reg, seeds, cache), ready for
    model.backward(seeds, cache). `rows`, `lw` and `target` are a stage's
    arrays (`_stage_arrays`), each made when None and needed.

    Frame path: seeds, in temporal_loss's `rows`, holds the gradient of
    the objective with respect to the frames, written over them, over that
    with respect to the t_norm tangents; L_reg is `spatial_reg_loss` of
    the frames. Feature path (`_feature_space`: more bins K than last
    hidden features n, where 2 K n P plus about 4 P (n+1)^2 multiply-adds
    undercut 6 K n P plus about 23 passes over K * P values): the pass
    makes no output rows and seeds is None. temporal_loss fills `target`
    and puts its gradients in `cache.head`, and when lambda_reg > 0
    `_frame_term` adds those of L_reg, writing into `lw`. At lambda_reg 0
    neither path does spatial work. Both paths give the same loss and
    gradient up to rounding.
    """
    k = np.size(frame_indices)
    if not _feature_space(model, k):
        l_temp, seeds, cache = temporal_loss(model, stack, frame_indices, rows)
        if lambda_reg > 0:
            l_reg, _ = spatial_reg_loss(seeds[0], out=seeds[0], grad_scale=lambda_reg)
        else:
            l_reg = 0.0
            seeds[0] = 0.0
        return l_temp, l_reg, seeds, cache
    if target is None:
        target = _Target(np.empty((k, model.num_pixels), model.params.dtype))
    l_temp, seeds, cache = temporal_loss(model, stack, frame_indices, target=target)
    l_reg = _frame_term(model, cache, lambda_reg, lw) if lambda_reg > 0 else 0.0
    return l_temp, l_reg, seeds, cache


def _sample_indices(num_frames: int, batch_frames, rng) -> np.ndarray:
    if batch_frames is None or batch_frames >= num_frames:
        return np.arange(num_frames)
    return np.sort(rng.choice(num_frames, size=batch_frames, replace=False))


def train_partition(partition: Partition, cfg: TrainConfig) -> TrainReport:
    """Run the full schedule on one partition, training `partition.model`
    in place in its dtype, Adam moments included.

    Each refinement re-bins `partition.events`; the arrays of the stage
    it ends are freed first, and the next stage makes its own on its first
    iteration (`_stage_arrays`): (2K, H*W) frame over tangent rows, or on
    the feature path (`_feature_space`: fewer last hidden features n than
    the stage's K sampled bins) no output rows, but the (K, H*W) target,
    made once per stage (per iteration with `batch_frames`), and, when
    lambda > 0, `_frame_term`'s (H*W, n+1) array. On the frame path the
    target C * counts is rounded to the model's dtype block by block
    inside each iteration (`temporal_loss`). No iteration's gradient or
    cache outlives that iteration. Raises DivergedTraining when the loss
    goes non-finite or explodes, or a pass overflows.
    """
    model = partition.model
    adam = AdamState.for_params(
        model.params, lr=cfg.lr, decay_rate=cfg.lr_decay, decay_every=cfg.lr_decay_every
    )
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, partition.index, 0xB1]))
    refine_at = set(cfg.refine_at_iters)
    report = TrainReport()
    initial_loss = None

    stack = partition.stack
    arrays = None  # this stage's, reused by each of its iterations

    for it in range(cfg.total_iters):
        if it in refine_at:
            arrays = None  # free the finished stage's arrays before the next are made
            stack = partition.stack = refine_bins(stack, partition.events)
        idx = _sample_indices(stack.num_frames, cfg.batch_frames, rng)
        if arrays is None:
            arrays = _stage_arrays(model, len(idx), cfg.lambda_reg)
        # A float32 overflow shows up as a non-finite value, which the
        # checks below turn into DivergedTraining; numpy need not warn first.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                l_temp, l_reg, seeds, cache = objective(model, stack, idx, cfg.lambda_reg,
                                                        *arrays)
                total = l_temp + cfg.lambda_reg * l_reg

                if not math.isfinite(total):
                    raise DivergedTraining(it, "non-finite loss", partition=partition.index)
                if initial_loss is None:
                    initial_loss = total
                elif initial_loss > 0 and total > _DIVERGENCE_FACTOR * initial_loss:
                    raise DivergedTraining(
                        it, f"loss {total:.3e} exceeds 1e6 x initial {initial_loss:.3e}",
                        partition=partition.index,
                    )

                grads = model.backward(seeds, cache)
            except (NonFiniteOutput, NonFiniteGradient) as exc:  # a float32 pass overflowed
                raise DivergedTraining(it, str(exc), partition=partition.index) from None
        adam_step(adam, model.params, grads)
        del seeds, cache, grads  # before the next iteration makes its own

        report.temporal.append(l_temp)
        report.regularization.append(l_reg)
        report.total.append(total)
        report.stack_sizes.append(stack.num_frames)

    partition.report = report
    return report


def build_partitions(stream: EventStream, cfg: TrainConfig) -> list:
    """Cut the stream into N = ceil(duration / tau) partitions with fresh
    stacks and float32 networks. Adam steps (about lr, 1e-4 decaying to
    2e-5) are 4-5 orders of magnitude above the float32 spacing of weights
    near 4e-3, so training needs no float64 master copy.

    Core edges t_start + i * tau cut the stream window into N pieces;
    each trained span reaches half the overlap past each interior edge,
    clamped to the window, so adjacent partitions share exactly `overlap`
    seconds where the window does not clamp them. Only the spans are kept.
    Streams shorter than tau yield N = 1. With lambda_reg > 0 a sensor
    narrower than 2 pixels either way raises InvalidDimensions, since the
    spatial term has no difference to take.
    """
    if stream.duration <= 0:
        raise InvalidConfig("stream window must have positive duration")
    if cfg.lambda_reg > 0 and min(stream.width, stream.height) < 2:
        raise InvalidDimensions(f"sensor {stream.width}x{stream.height} is too small: the spatial "
                                f"term (lambda_reg {cfg.lambda_reg}) needs at least 2x2 pixels")
    n = max(1, math.ceil(stream.duration / cfg.partition_tau))
    half = cfg.overlap / 2.0
    seeds = np.random.SeedSequence(cfg.seed).spawn(n)
    partitions = []
    for i in range(n):
        core_lo = stream.t_start + i * cfg.partition_tau
        core_hi = min(stream.t_start + (i + 1) * cfg.partition_tau, stream.t_end)
        span_lo = core_lo - half if i > 0 else core_lo
        span_hi = core_hi + half if i < n - 1 else core_hi
        span_lo = max(span_lo, stream.t_start)
        span_hi = min(span_hi, stream.t_end)
        piece = stream.slice_time(span_lo, span_hi, include_hi=(i == n - 1))
        stack = stack_uniform(piece, cfg.initial_bin, cfg.threshold_C)
        model = init_siren(cfg.layer_sizes(stream.height * stream.width), omega0=cfg.omega0,
                           seed=seeds[i], height=stream.height, width=stream.width,
                           t_domain=(span_lo, span_hi))
        model.params = model.params.astype(np.float32)  # rounded once, then trained in place
        partitions.append(
            Partition(index=i, span=(span_lo, span_hi), model=model, stack=stack, events=piece)
        )
    return partitions


@functools.cache
def _openblas_threads_api():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None.

    dlsym on numpy's own extension module also searches the libraries it
    links, so this finds the BLAS numpy actually uses: the wheels'
    scipy-openblas (64-bit integer symbols) or a plain OpenBLAS build.
    """
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for get_name, set_name in (
        ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
        ("openblas_get_num_threads", "openblas_set_num_threads"),
    ):
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def blas_threads() -> int | None:
    """Current thread count of numpy's OpenBLAS; None when it cannot be
    found, in which case training never changes it."""
    api = _openblas_threads_api()
    return None if api is None else int(api[0]())


def train_ensemble(stream: EventStream, cfg: TrainConfig, threads: int = 1) -> list:
    """Train one network per partition, up to `threads` partitions at once.

    Partitions go to `parallel.fork_map` on workers = min(threads,
    partitions): the calling thread trains its share as worker 0, and the
    helpers, forked after BLAS is pinned (see the module docstring), send
    back their partitions' trained parameters, final stacks and reports,
    which are written into the returned partitions. Without the "fork"
    start method there is one worker. Any worker count yields the same
    bits.

    The map's failure rules hold: a helper's early failure ends the
    caller's share, a helper's DivergedTraining keeps its partition and
    iteration, and a helper that dies without answering raises
    WorkerLost. numpy's OpenBLAS thread count is process-wide, so no other
    thread may run BLAS calls meanwhile; it is restored however the map
    ends.
    """
    partitions = build_partitions(stream, cfg)
    fork = "fork" in multiprocessing.get_all_start_methods()
    workers = max(1, min(threads, len(partitions))) if fork else 1
    prev = blas_threads() if workers > 1 else None
    pinned = max(1, prev // workers) if prev is not None and prev > 1 else None
    if pinned is not None:
        _openblas_threads_api()[1](pinned)

    def train(p: Partition):
        """Train `p`; its report records `workers` and, while BLAS is
        pinned, the BLAS threads of the process that trained it."""
        threads_seen = blas_threads() if pinned is not None else None
        report = train_partition(p, cfg)
        report.workers, report.blas_threads = workers, threads_seen
        return p.model.params, p.stack, report

    try:
        trained = fork_map(train, partitions, workers)
    finally:
        if pinned is not None:
            _openblas_threads_api()[1](prev)
    for p, (params, stack, report) in zip(partitions, trained):
        p.model.params, p.stack, p.report = params, stack, report
    return partitions
