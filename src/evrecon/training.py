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

Training is coarse-to-fine: the stack starts at the configured uniform bin
width and is bisected at the scheduled iterations, doubling its temporal
resolution each time. Long streams are cut into fixed-length partitions
(one independent network each, trainable in parallel) whose spans overlap
so reconstruction can stitch them seamlessly.

Threading policy: cores go to partitions first, and BLAS gets what is
left. Partitions are independent, so `train_ensemble` trains them on
`workers = min(threads, partitions)` threads. While more than one worker
runs, numpy's OpenBLAS is set to `max(1, previous // workers)` threads and
restored after the pool has joined: partition threads and BLAS threads
competing for the same cores slow every GEMM. On a 2-vCPU VM (OpenBLAS
0.3.31, float32 passes) six 32x32 partitions with hidden width 128 (the
benchmark's multipart32 workload) reconstruct in a median 9.0 s this way
(10 runs), against 15.1 s with two partition threads each running 2-thread
GEMMs and 10.4 s with serial partitions on 2 BLAS threads (3 runs each);
the scores are identical. A single partition keeps all BLAS threads,
because pinning BLAS to one thread for the whole process slowed the
one-partition 64x64 selftest workload from 28.5 to 33.8 s. When numpy's
OpenBLAS cannot be found through ctypes, the BLAS thread count is left
alone.
"""

from __future__ import annotations

import ctypes
import functools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    DegenerateFrame,
    DivergedTraining,
    IndexOutOfRange,
    InvalidConfig,
    NonFiniteGradient,
    NonFiniteOutput,
)
from .events import EventStream
from .frames import EventFrameStack, refine_bins, stack_uniform
from .siren import AdamState, SirenModel, adam_step, init_siren

_DIVERGENCE_FACTOR = 1e6


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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        self.refine_at_iters = tuple(int(i) for i in self.refine_at_iters)
        if self.lambda_reg < 0:
            raise InvalidConfig("lambda_reg must be >= 0")
        if self.threshold_C <= 0 or self.initial_bin <= 0:
            raise InvalidConfig("threshold_C and initial_bin must be positive")
        if any(b <= a for a, b in zip(self.refine_at_iters, self.refine_at_iters[1:])):
            raise InvalidConfig("refine_at_iters must be strictly increasing")
        if self.refine_at_iters and self.refine_at_iters[-1] >= self.total_iters:
            raise InvalidConfig("refinements must happen before total_iters")
        if not self.partition_tau > self.overlap >= 0:
            raise InvalidConfig("need partition_tau > overlap >= 0")
        if self.batch_frames is not None and self.batch_frames < 1:
            raise InvalidConfig("batch_frames must be >= 1 or None")

    def layer_sizes(self, num_pixels: int) -> list:
        return [1] + [self.hidden_features] * self.hidden_layers + [num_pixels]


@dataclass
class TrainReport:
    """Loss history and bookkeeping from one partition's training."""

    temporal: list = field(default_factory=list)
    regularization: list = field(default_factory=list)
    total: list = field(default_factory=list)
    stack_sizes: list = field(default_factory=list)
    wall_clock_s: float = 0.0
    final_T: int = 0
    workers: int = 1  # partitions trained at once
    blas_threads: int | None = None  # BLAS threads while training; None = left as found


@dataclass
class Partition:
    """One sub-sequence: its time spans, event stack, and network.

    stack and events are None for partitions rehydrated from checkpoints
    (sampling needs only the model and spans).
    """

    index: int
    core_span: tuple  # [core start, core end): this partition owns these times
    span: tuple  # trained span including overlap margins
    model: SirenModel
    stack: EventFrameStack | None = None
    events: EventStream | None = None  # the events inside span; refinement re-bins them
    report: TrainReport | None = None


def temporal_loss(model: SirenModel, stack: EventFrameStack, frame_indices):
    """Mean squared temporal residual over the selected bins.

    For each index k the network's per-second tangent at the bin midpoint
    is scaled by the bin duration to predict that bin's ΔL. Returns
    (loss, aux): aux carries the forward results (t_norm, frames, cache) so
    callers can reuse the pass, and "seeds", a (2, K, H, W) array laid out
    for SirenModel.backward. Its tangent half [1] holds the gradient of the
    loss with respect to the per-second tangents; its frame half [0] is
    scratch, left for the caller to fill (see `objective`).
    """
    idx = np.asarray(frame_indices, dtype=np.int64)
    if idx.ndim != 1 or len(idx) == 0:
        raise IndexOutOfRange("need at least one frame index")
    if idx.min() < 0 or idx.max() >= stack.num_frames:
        raise IndexOutOfRange(
            f"indices outside [0, {stack.num_frames}): {idx.min()}..{idx.max()}"
        )
    t_norm = model.normalize_time(stack.midpoints[idx])
    frames, tangents, cache = model.forward_with_tangent(t_norm, want_cache=True)
    durs = stack.durations[idx].astype(frames.dtype)[:, None, None]
    seeds = np.empty((2, *frames.shape), dtype=frames.dtype)
    scratch, resid = seeds
    np.multiply(tangents, model.time_slope, out=resid)
    resid *= durs  # predicted ΔL
    np.multiply(stack.counts[idx], stack.threshold_C, out=scratch)  # target ΔL
    np.subtract(scratch, resid, out=resid)  # residual
    n = resid.size
    loss = float(np.sum(np.multiply(resid, resid, out=scratch), dtype=np.float64) / n)
    resid *= -2.0 / n
    resid *= durs  # d loss / d per-second tangent
    aux = {"t_norm": t_norm, "frames": frames, "cache": cache, "seeds": seeds}
    return loss, aux


def spatial_reg_loss(frames: np.ndarray, out: np.ndarray | None = None):
    """Mean over x-sites of the squared forward difference Dx^2 plus mean
    over y-sites of Dy^2, averaged over the batch, with its exact gradient
    with respect to the frames. Takes one frame (H, W) or a batch
    (K, H, W) and computes in its float dtype; the gradient has the input's
    shape and is written into `out` when given. Sums accumulate in float64.
    """
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
    # One buffer holds Dx, then Dy; another their squares. Both views are
    # contiguous, so sums and gradient terms round as in fresh arrays.
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


def objective(model: SirenModel, stack: EventFrameStack, frame_indices, lambda_reg: float):
    """The training objective L_temp + lambda_reg * L_reg on the selected
    bins. Returns (l_temp, l_reg, aux), where aux is temporal_loss's and
    aux["seeds"] now holds the gradient of the objective with respect to
    the frames over that with respect to the t_norm tangents, ready for
    model.backward(aux["t_norm"], aux["seeds"], aux["cache"]).
    """
    l_temp, aux = temporal_loss(model, stack, frame_indices)
    seeds = aux["seeds"]
    seeds[1] *= model.time_slope  # per second -> per t_norm
    if lambda_reg > 0:
        l_reg, _ = spatial_reg_loss(aux["frames"], out=seeds[0])
        seeds[0] *= lambda_reg
    else:
        l_reg = 0.0
        seeds[0] = 0.0
    return l_temp, l_reg, aux


def _sample_indices(num_frames: int, batch_frames, rng) -> np.ndarray:
    if batch_frames is None or batch_frames >= num_frames:
        return np.arange(num_frames)
    return np.sort(rng.choice(num_frames, size=batch_frames, replace=False))


def train_partition(partition: Partition, cfg: TrainConfig, stream: EventStream) -> TrainReport:
    """Run the full schedule on one partition, in place.

    The stream is needed to rebuild the stack at each refinement. Each
    iteration runs forward, loss and backward on a float32 copy of the
    network; Adam updates the float64 parameters of `partition.model` (and
    its float64 moments) from the float32 gradient, and the copy is then
    refreshed from them. Raises DivergedTraining when the loss goes
    non-finite or explodes, or a pass overflows.
    """
    master = partition.model.params
    model = replace(partition.model, params=master.astype(np.float32))
    adam = AdamState.for_params(
        master,
        lr=cfg.lr,
        beta1=cfg.adam_beta1,
        beta2=cfg.adam_beta2,
        eps=cfg.adam_eps,
        decay_rate=cfg.lr_decay,
        decay_every=cfg.lr_decay_every,
    )
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, partition.index, 0xB1]))
    refine_at = set(cfg.refine_at_iters)
    report = TrainReport()
    started = time.perf_counter()
    initial_loss = None

    for it in range(cfg.total_iters):
        if it in refine_at:
            partition.stack = refine_bins(partition.stack, stream)
        stack = partition.stack
        idx = _sample_indices(stack.num_frames, cfg.batch_frames, rng)
        # A float32 overflow shows up as a non-finite value, which the
        # checks below turn into DivergedTraining; numpy need not warn first.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                l_temp, l_reg, aux = objective(model, stack, idx, cfg.lambda_reg)
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

                grads = model.backward(aux["t_norm"], aux["seeds"], aux["cache"])
            except (NonFiniteOutput, NonFiniteGradient) as exc:  # a float32 pass overflowed
                raise DivergedTraining(it, str(exc), partition=partition.index) from None
        adam_step(adam, master, grads)
        np.copyto(model.params, master)

        report.temporal.append(l_temp)
        report.regularization.append(l_reg)
        report.total.append(total)
        report.stack_sizes.append(stack.num_frames)

    report.wall_clock_s = time.perf_counter() - started
    report.final_T = partition.stack.num_frames
    partition.report = report
    return report


def build_partitions(stream: EventStream, cfg: TrainConfig) -> list:
    """Cut the stream into N = ceil(duration / tau) partitions with fresh
    stacks and networks.

    Core spans tile the stream window; trained spans extend half the
    overlap past each interior boundary, so adjacent partitions share
    exactly `overlap` seconds. Streams shorter than tau yield N = 1.
    """
    if stream.duration <= 0:
        raise InvalidConfig("stream window must have positive duration")
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
        model = init_siren(
            cfg.layer_sizes(stream.height * stream.width),
            omega0=cfg.omega0,
            seed=seeds[i],
            height=stream.height,
            width=stream.width,
            t_domain=(span_lo, span_hi),
        )
        partitions.append(
            Partition(index=i, core_span=(core_lo, core_hi), span=(span_lo, span_hi),
                      model=model, stack=stack, events=piece)
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
    """Train one network per partition on up to `threads` threads.

    Partitions are independent, so any thread count yields the same
    result. With more than one worker, BLAS threads are divided among the
    workers for the duration (see the module docstring); the thread count
    of numpy's OpenBLAS is process-wide, so no other thread may run BLAS
    calls while this one trains in parallel. Each report records `workers`
    and the `blas_threads` used.
    """
    partitions = build_partitions(stream, cfg)
    workers = max(1, min(threads, len(partitions)))

    def run(p: Partition):
        train_partition(p, cfg, p.events)

    prev = blas_threads() if workers > 1 else None
    pinned = max(1, prev // workers) if prev is not None and prev > 1 else None
    if pinned is not None:
        _openblas_threads_api()[1](pinned)
    try:
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run, partitions))
        else:
            for p in partitions:
                run(p)
    finally:
        if pinned is not None:
            _openblas_threads_api()[1](prev)
    for p in partitions:
        p.report.workers = workers
        p.report.blas_threads = pinned
    return partitions
