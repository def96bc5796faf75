"""Closed-loop verification: simulate -> train -> reconstruct -> score.

The helpers here define the canonical measurement protocol (the run's
anchor, per-frame mean alignment in the log domain, tone-mapped SSIM) used
by both the `selftest` subcommand and the acceptance test suite, so the
two can never drift apart. Its seeds, log offset and tone-map gamma are
constants.

The selftest checks only what no Tier-1 test checks: the closed loop's
log-MSE, SSIM and runtime on its own schedule, and the gradient oracle
of the hand-written derivatives. Event quantization, refinement
conservation, the loss's offset invariance, the tone map and the metrics
are Tier-1 tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .events import EventStream
from .frames import EventFrameStack
from .metrics import evaluate_frames
from .pgm import write_frame_dir
from .reconstruct import LogVideo, anchor_offset, sample_video, tone_map
from .simulate import IntensityVideo, SimConfig, log_intensity, render_scene, simulate_events
from .siren import init_siren
from .training import TrainConfig, objective, train_ensemble


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


_FIXTURE_SEED = 1  # the scene's and the simulator's
_ORACLE_SEED = 3


def make_fixture(
    size: int = 64,
    duration: float = 2.0,
    fps: float = 240.0,
    threshold_C: float = 0.25,
    noise_rate: float = 0.0,
) -> tuple[IntensityVideo, EventStream]:
    """The standard translating-gradient closed-loop fixture."""
    video = render_scene("translating_gradient", size, size, duration, fps, seed=_FIXTURE_SEED)
    stream = simulate_events(
        video, SimConfig(threshold_C=threshold_C, noise_rate=noise_rate, rng_seed=_FIXTURE_SEED)
    )
    return video, stream


def aligned_log_prediction(video: IntensityVideo, partitions):
    """Sample the ensemble at the video's frame times and subtract the
    run's anchor, as `reconstruct` does, then align each frame's mean to
    the ground truth in the log domain, which removes the anchor again.
    Returns (aligned prediction, ground-truth log video)."""
    gt = log_intensity(video)
    pred = anchor_offset(sample_video(partitions, video.times))
    shift = gt.mean(axis=(1, 2)) - pred.frames.mean(axis=(1, 2))
    return pred.frames + shift[:, None, None], gt


def closed_loop_scores(video: IntensityVideo, partitions, ssim_stride: int = 1):
    """(log-MSE, mean SSIM after tone mapping with the default gamma) of
    a trained ensemble against the video that generated its events."""
    aligned, gt = aligned_log_prediction(video, partitions)
    log_mse = float(np.mean((aligned - gt) ** 2))
    tm_pred = tone_map(LogVideo(aligned, video.times))
    tm_gt = tone_map(LogVideo(gt, video.times))
    scores = evaluate_frames(tm_pred[::ssim_stride], tm_gt[::ssim_stride], apply_clahe=False)
    return log_mse, scores.mean_ssim


def max_param_gradient_error(model, loss_of, grads) -> float:
    """Max relative error of grads (shaped like model.params) against central
    differences of loss_of(model), stepping each parameter by 1e-6*max(1, |p|)."""
    theta = model.params
    worst = 0.0
    for i in range(theta.size):
        h = 1e-6 * max(1.0, abs(theta[i]))
        old = theta[i]
        theta[i] = old + h
        lp = loss_of(model)
        theta[i] = old - h
        lm = loss_of(model)
        theta[i] = old
        fd = (lp - lm) / (2.0 * h)
        denom = max(abs(fd), abs(grads[i]), 1e-10)
        worst = max(worst, abs(fd - grads[i]) / denom)
    return worst


def gradient_oracle_errors():
    """Max relative errors (parameters, tangent) of the hand-rolled
    derivatives against central finite differences on a small model.

    Parameter check: every coordinate of d(L_temp + lambda L_reg)/dTheta,
    seeded by `training.objective` as in training, relative to the
    gradient's scale. Tangent check: norm-relative error of d frame/dt
    against a h=1e-4 central difference.
    """
    rng = np.random.default_rng(_ORACLE_SEED)
    T = 6
    counts = rng.integers(-3, 4, size=(T, 4, 4)).astype(np.float64)
    edges = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, T - 1)), [1.0]])
    stack = EventFrameStack(counts, edges, 0.5)
    model = init_siren([1, 8, 8, 8, 16], omega0=30.0, seed=_ORACLE_SEED, height=4, width=4,
                       t_domain=(0.0, 1.0))
    lam = 0.05

    def loss_of(m):
        lt, lr_, _, _ = objective(m, stack, np.arange(T), lam)
        return lt + lam * lr_

    _, _, seeds, cache = objective(model, stack, np.arange(T), lam)
    grads = model.backward(seeds, cache)
    worst_param = max_param_gradient_error(model, loss_of, grads)

    worst_tan = 0.0
    for t in rng.uniform(-1.0, 1.0, (10, 1)):  # one time per batch
        _, tan, _ = model.forward_with_tangent(t)
        h = 1e-4
        fd = (model.forward(t + h) - model.forward(t - h)) / (2.0 * h)
        worst_tan = max(worst_tan, np.linalg.norm(tan - fd) / np.linalg.norm(fd))
    return worst_param, worst_tan


def run_selftest(quick: bool = False, threads: int = 1, out=None) -> list:
    """Run the verification checks; returns a list of CheckResult.

    `threads` is passed to train_ensemble, but cannot change the result or
    the work done: the fixture (2 s, or 1 s when quick) is shorter than the
    default partition_tau, so it trains one partition on one worker."""
    results = []
    if quick:
        size, duration, iters, refine = 32, 1.0, 60, (20, 40)
        mse_limit, ssim_limit, stride = 0.05, 0.75, 8
        time_limit = 30.0
    else:
        size, duration, iters, refine = 64, 2.0, 300, (100, 200)
        mse_limit, ssim_limit, stride = 0.01, 0.90, 4
        time_limit = 120.0

    started = time.perf_counter()
    video, stream = make_fixture(size=size, duration=duration)
    cfg = TrainConfig(threshold_C=0.25, seed=0, total_iters=iters, refine_at_iters=refine)
    partitions = train_ensemble(stream, cfg, threads=threads)
    log_mse, mean_ssim = closed_loop_scores(video, partitions, ssim_stride=stride)
    elapsed = time.perf_counter() - started
    results.append(CheckResult(
        "closed-loop log-MSE", log_mse < mse_limit, f"{log_mse:.5f} < {mse_limit}"))
    results.append(CheckResult(
        "closed-loop SSIM", mean_ssim > ssim_limit, f"{mean_ssim:.4f} > {ssim_limit}"))
    results.append(CheckResult(
        "closed-loop runtime", elapsed < time_limit, f"{elapsed:.1f}s < {time_limit}s"))

    if out is not None:
        aligned, _ = aligned_log_prediction(video, partitions)
        write_frame_dir(out, tone_map(LogVideo(aligned, video.times)), video.times)

    worst_param, worst_tan = gradient_oracle_errors()
    results.append(CheckResult(
        "gradient oracle (params)", worst_param < 1e-3, f"max rel err {worst_param:.2e} < 1e-3"))
    results.append(CheckResult(
        "gradient oracle (tangent)", worst_tan < 1e-4, f"max rel err {worst_tan:.2e} < 1e-4"))
    return results
