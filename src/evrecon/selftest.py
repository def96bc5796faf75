"""Closed-loop verification: simulate -> train -> reconstruct -> score.

The helpers here define the canonical measurement protocol (median anchor,
per-frame mean alignment in the log domain, tone-mapped SSIM) used by both
the `selftest` subcommand and the acceptance test suite, so the two can
never drift apart. Its seeds, log offset and tone-map gamma are constants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .events import EventStream
from .frames import EventFrameStack, refine_bins, stack_uniform
from .metrics import evaluate_frames, mse, ssim
from .pgm import write_frame_dir
from .reconstruct import LogVideo, anchor_offset, sample_video, tone_map
from .simulate import IntensityVideo, SimConfig, log_intensity, render_scene, simulate_events
from .siren import init_siren
from .training import TrainConfig, objective, spatial_reg_loss, temporal_loss, train_ensemble


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
    """Sample the ensemble at the video's frame times, anchor the global
    median, then align each frame's mean to the ground truth in the log
    domain. Returns (aligned prediction, ground-truth log video)."""
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


def quantization_residual(video: IntensityVideo, stream: EventStream, threshold_C: float) -> float:
    """Max per-pixel |C * signed count - (L_end - L_start)| over the clip."""
    gt = log_intensity(video)
    signed = np.zeros(video.height * video.width)
    np.add.at(signed, stream.y * video.width + stream.x, stream.polarity)
    recovered = threshold_C * signed.reshape(video.height, video.width)
    return float(np.abs(recovered - (gt[-1] - gt[0])).max())


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

    resid = quantization_residual(video, stream, 0.25)
    results.append(CheckResult(
        "event quantization", resid < 0.25, f"max |C*count - dL| = {resid:.4f} < C"))

    stack0 = stack_uniform(stream, cfg.initial_bin, cfg.threshold_C)
    sums = stack0.pixel_sums()
    conserved = True
    stack = stack0
    for _ in range(2):
        stack = refine_bins(stack, stream)
        conserved &= bool(np.array_equal(stack.pixel_sums(), sums))
    doubled = stack.num_frames == 4 * stack0.num_frames
    results.append(CheckResult(
        "refinement conservation", conserved and doubled,
        f"sums bit-identical={conserved}, T {stack0.num_frames}->{stack.num_frames}"))

    # Offset invariance is exact-arithmetic: check the trained model widened to float64.
    model = replace(partitions[0].model, params=partitions[0].model.params.astype(np.float64))
    base_stack = partitions[0].stack
    idx = np.arange(min(8, base_stack.num_frames))
    worst_shift = 0.0
    lt0, seeds0, _ = temporal_loss(model, base_stack, idx)
    lr0, _ = spatial_reg_loss(seeds0[0])
    for c in (-3.0, 0.7, 10.0):
        shifted = model.copy()
        shifted.biases[-1][:] += c
        lt1, seeds1, _ = temporal_loss(shifted, base_stack, idx)
        lr1, _ = spatial_reg_loss(seeds1[0])
        worst_shift = max(
            worst_shift,
            abs(lt1 - lt0) / max(abs(lt0), 1e-300),
            abs(lr1 - lr0) / max(abs(lr0), 1e-300),
        )
    results.append(CheckResult(
        "loss offset invariance", worst_shift < 1e-12, f"max rel change {worst_shift:.2e}"))

    byte = tone_map(LogVideo(np.zeros((1, 2, 2)), [0.0]))[0, 0, 0]
    ramp = np.linspace(-8.0, 8.0, 10_000)
    tb = tone_map(LogVideo(ramp[:, None, None], np.arange(10_000.0))).reshape(-1)
    mono = bool(np.all(np.diff(tb.astype(np.int64)) >= 0))
    results.append(CheckResult(
        "tone map", byte == 168 and mono, f"L=0 -> byte {byte} (want 168), monotone={mono}"))

    rng = np.random.default_rng(0)
    img = rng.uniform(0.0, 1.0, (1, 32, 32))
    a, b = 0.3, 0.8
    c1 = 0.01**2
    expected = (2 * a * b + c1) / (a * a + b * b + c1)
    got = ssim(np.full((1, 16, 16), a), np.full((1, 16, 16), b))[0]
    same = ssim(img, img)[0]
    metric_ok = mse(img, img) == 0.0 and abs(same - 1.0) < 1e-9 and abs(got - expected) < 1e-9
    results.append(CheckResult(
        "metric sanity", metric_ok,
        f"ssim(a,a)-1={same-1.0:.1e}, const-vs-const err {abs(got-expected):.1e}"))
    return results
