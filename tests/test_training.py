import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evrecon.errors import (DegenerateFrame, DivergedTraining, IndexOutOfRange, InvalidConfig,
                            WorkerLost)
from evrecon.frames import EventFrameStack, refine_bins, stack_uniform
from evrecon.metrics import BLOCK_PIXELS
from evrecon.parallel import fork_map
from evrecon import training
from evrecon.selftest import make_fixture
from evrecon.simulate import SimConfig, render_scene, simulate_events
from evrecon.siren import init_siren, load_checkpoint, save_checkpoint
from evrecon.training import (
    Partition,
    TrainConfig,
    blas_threads,
    build_partitions,
    objective,
    spatial_reg_loss,
    temporal_loss,
    train_ensemble,
    train_partition,
)

import objective_reference
from conftest import make_stream, traced_peak


def test_defaults_match_published_schedule():
    cfg = TrainConfig()
    assert cfg.lambda_reg == 0.05
    assert cfg.threshold_C == 1.0
    assert cfg.initial_bin == 1.0 / 32.0
    assert cfg.refine_at_iters == (100, 200)
    assert cfg.total_iters == 300
    assert cfg.lr == 1e-4
    assert cfg.lr_decay == 0.95 and cfg.lr_decay_every == 10
    assert cfg.partition_tau == 5.0
    assert cfg.overlap == 0.5
    assert cfg.hidden_features == 512 and cfg.hidden_layers == 3


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lambda_reg=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(refine_at_iters=(200, 100))
    with pytest.raises(ValueError):
        TrainConfig(refine_at_iters=(100, 400))
    with pytest.raises(ValueError):
        TrainConfig(overlap=6.0)
    with pytest.raises(InvalidConfig, match=r"^refine_at_iters must be >= 0, got -5$"):
        TrainConfig(refine_at_iters=(-5,))


@pytest.mark.parametrize("bad", [{"lambda_reg": -0.1}, {"initial_bin": 0.0},
                                 {"refine_at_iters": (200, 100)}, {"overlap": 6.0},
                                 {"batch_frames": 0},
                                 {"total_iters": 2.5, "refine_at_iters": ()},
                                 {"refine_at_iters": (2.5, 100)}, {"batch_frames": 2.5}])
def test_config_errors_are_typed(bad):
    with pytest.raises(InvalidConfig):
        TrainConfig(**bad)


def test_integral_floats_are_stored_as_ints():
    cfg = TrainConfig(total_iters=12.0, refine_at_iters=(4.0, 8), batch_frames=3.0, seed=1e300)
    assert (cfg.total_iters, cfg.refine_at_iters, cfg.batch_frames) == (12, (4, 8), 3)
    assert all(type(v) is int for v in (cfg.total_iters, *cfg.refine_at_iters, cfg.batch_frames,
                                        cfg.seed))


def test_zero_length_window_is_a_config_error():
    stream = make_stream([0.5, 0.5], [0, 1], [0, 0], [1, -1], width=2, height=2)
    with pytest.raises(InvalidConfig):
        build_partitions(stream, tiny_cfg())


def small_fixture(seed=2, size=12, duration=1.0):
    video = render_scene("translating_gradient", size, size, duration, 120.0, seed=seed)
    stream = simulate_events(video, SimConfig(threshold_C=0.25, noise_rate=0.0, rng_seed=1))
    return video, stream


def tiny_cfg(**kw):
    base = dict(
        threshold_C=0.25,
        total_iters=12,
        refine_at_iters=(4, 8),
        hidden_features=16,
        hidden_layers=3,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


# -- temporal loss -----------------------------------------------------------


def test_temporal_loss_zero_for_zero_model_and_stack():
    counts = np.zeros((4, 2, 2))
    edges = np.arange(5.0) / 4
    stack = EventFrameStack(counts, edges, threshold_C=1.0)
    model = init_siren([1, 8, 8, 8, 4], seed=0, height=2, width=2, t_domain=(0.0, 1.0))
    model.weights[-1][:] = 0.0
    loss, seeds, _ = temporal_loss(model, stack, np.arange(4))
    assert loss == 0.0
    assert np.all(seeds[1] == 0.0)


class LinearTimeModel:
    """L(t) = slope_a * t per pixel: the exact first-order case."""

    def __init__(self, slope_a, h, w, t_domain):
        self.a = slope_a
        self.height, self.width = h, w
        self.num_pixels = h * w
        self.t_domain = t_domain
        self.params = np.zeros(0)  # no parameters; computes in float64

    @property
    def time_slope(self):
        lo, hi = self.t_domain
        return 2.0 / (hi - lo)

    def normalize_time(self, t):
        lo, hi = self.t_domain
        return (np.asarray(t) - lo) * (2.0 / (hi - lo)) - 1.0

    def forward_with_tangent(self, t_norm, out=None):
        t_norm = np.asarray(t_norm).reshape(-1)
        k = len(t_norm)
        frames = np.broadcast_to(t_norm[:, None, None], (k, self.height, self.width))
        tangent = np.full((k, self.height, self.width), self.a / self.time_slope)
        return frames * (self.a / self.time_slope), tangent, None


def test_temporal_loss_zero_for_exact_linear_model():
    """Bin k lasts counts[k] units of 1/13 s, and each event is a step of
    C = a / 13, so every bin's target is a times its duration."""
    a = 1.7
    per_bin = np.array([1, 3, 2, 4, 1, 2])
    edges = np.concatenate([[0.0], np.cumsum(per_bin) / 13.0])
    counts = np.broadcast_to(per_bin[:, None, None], (6, 3, 3))
    stack = EventFrameStack(counts, edges, threshold_C=a / 13.0)
    model = LinearTimeModel(a, 3, 3, (0.0, 1.0))
    loss, seeds, _ = temporal_loss(model, stack, np.arange(6))
    assert loss < 1e-28
    assert np.allclose(seeds[1], 0.0, atol=1e-13)


def test_temporal_loss_index_guard(toy_model, toy_stack):
    with pytest.raises(IndexOutOfRange):
        temporal_loss(toy_model, toy_stack, [99])
    with pytest.raises(IndexOutOfRange):
        temporal_loss(toy_model, toy_stack, [])


def test_temporal_loss_quadratic_in_C(toy_stack):
    model = init_siren([1, 8, 8, 8, 16], seed=0, height=4, width=4, t_domain=(0.0, 1.0))
    model.weights[-1][:] = 0.0
    model.biases[-1][:] = 0.0
    loss1, _, _ = temporal_loss(model, toy_stack, np.arange(toy_stack.num_frames))
    scaled = EventFrameStack(toy_stack.counts, toy_stack.edges, toy_stack.threshold_C * 3.0)
    loss3, _, _ = temporal_loss(model, scaled, np.arange(scaled.num_frames))
    assert loss3 == pytest.approx(9.0 * loss1, rel=1e-12)


@pytest.mark.parametrize("lam", [0.05, 0.0])
def test_objective_fills_both_seed_halves(toy_model, toy_stack, lam):
    """The tangent half is temporal_loss's (per t_norm), the frame half
    lambda times the regularizer gradient (zero at lambda = 0)."""
    idx = np.arange(toy_stack.num_frames)
    l_temp, l_reg, seeds, _ = objective(toy_model, toy_stack, idx, lam)
    ref_loss, ref, _ = temporal_loss(toy_model, toy_stack, idx)
    reg, grad = spatial_reg_loss(ref[0])
    assert l_temp == ref_loss
    assert l_reg == (reg if lam > 0 else 0.0)
    assert np.array_equal(seeds[1], ref[1])
    assert np.array_equal(seeds[0], lam * grad)


# -- spatial regularization ---------------------------------------------------


def test_spatial_reg_constant_frame():
    loss, grad = spatial_reg_loss(np.full((1, 5, 7), 3.3))
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_spatial_reg_two_by_two_example():
    loss, _ = spatial_reg_loss(np.array([[[0.0, 1.0], [0.0, 1.0]]]))
    assert loss == pytest.approx(1.0)


def test_spatial_reg_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    frame = rng.standard_normal((1, 5, 6))
    _, grad = spatial_reg_loss(frame)
    h = 1e-5
    for idx in np.ndindex(frame.shape):
        plus = frame.copy()
        plus[idx] += h
        minus = frame.copy()
        minus[idx] -= h
        fd = (spatial_reg_loss(plus)[0] - spatial_reg_loss(minus)[0]) / (2 * h)
        denom = max(abs(fd), abs(grad[idx]), 1e-9)
        assert abs(fd - grad[idx]) / denom < 1e-6


def test_spatial_reg_rejects_degenerate_frames():
    with pytest.raises(DegenerateFrame):
        spatial_reg_loss(np.zeros((3, 1, 8)))
    with pytest.raises(DegenerateFrame):
        spatial_reg_loss(np.zeros((3, 8, 1)))
    with pytest.raises(DegenerateFrame):
        spatial_reg_loss(np.zeros((8, 8)))  # a single frame comes as a batch of one
    with pytest.raises(DegenerateFrame, match="K >= 1"):
        spatial_reg_loss(np.zeros((0, 4, 4)))


# -- partitioning ------------------------------------------------------------


def spread_stream(duration, rate=200, seed=0, width=4, height=4):
    rng = np.random.default_rng(seed)
    n = int(duration * rate)
    t = np.sort(rng.uniform(0.0, duration, n))
    t[0], t[-1] = 0.0, duration
    return make_stream(t, rng.integers(0, width, n), rng.integers(0, height, n),
                       rng.choice([-1, 1], n), width=width, height=height,
                       t_start=0.0, t_end=duration)


def test_partition_counts_match_tau():
    cfg = TrainConfig(partition_tau=5.0, hidden_features=8, hidden_layers=1,
                      refine_at_iters=(), total_iters=10)
    assert len(build_partitions(spread_stream(50.0), cfg)) == 10
    cfg50 = TrainConfig(partition_tau=50.0, hidden_features=8, hidden_layers=1,
                        refine_at_iters=(), total_iters=10)
    assert len(build_partitions(spread_stream(50.0), cfg50)) == 1


def test_short_stream_yields_single_partition():
    cfg = TrainConfig(hidden_features=8, hidden_layers=1,
                      refine_at_iters=(), total_iters=10, threshold_C=0.25)
    parts = build_partitions(spread_stream(2.0), cfg)
    assert len(parts) == 1
    assert parts[0].span == (0.0, 2.0)


def test_partition_spans_share_exactly_overlap():
    cfg = TrainConfig(partition_tau=5.0, overlap=0.5, hidden_features=8,
                      hidden_layers=1, refine_at_iters=(), total_iters=10)
    parts = build_partitions(spread_stream(20.0), cfg)
    assert len(parts) == 4
    for a, b in zip(parts, parts[1:]):
        shared = a.span[1] - b.span[0]
        assert shared == pytest.approx(cfg.overlap)
    # spans reach half the overlap past each core edge 5, 10, 15
    assert [p.span for p in parts] == [(0.0, 5.25), (4.75, 10.25), (9.75, 15.25), (14.75, 20.0)]


def test_partition_events_are_read_only_views_of_the_stream():
    """Each partition's events share the stream's memory, cannot be
    written through, and bin and refine to the bytes of copied events."""
    cfg = TrainConfig(partition_tau=5.0, overlap=0.5, hidden_features=8,
                      hidden_layers=1, refine_at_iters=(), total_iters=10)
    stream = spread_stream(20.0)
    parts = build_partitions(stream, cfg)
    assert len(parts) == 4
    for p in parts:
        piece = p.events
        for name in ("t", "x", "y", "polarity"):
            col = getattr(piece, name)
            assert np.shares_memory(col, getattr(stream, name))
            with pytest.raises(ValueError, match="read-only"):
                col[:1] = 0
        copied = make_stream(piece.t.copy(), piece.x.copy(), piece.y.copy(),
                             piece.polarity.copy(), width=piece.width, height=piece.height,
                             t_start=piece.t_start, t_end=piece.t_end)
        want = stack_uniform(copied, cfg.initial_bin, cfg.threshold_C)
        assert p.stack.counts.tobytes() == want.counts.tobytes()
        assert p.stack.edges.tobytes() == want.edges.tobytes()
        got, want = refine_bins(p.stack, piece), refine_bins(want, copied)
        assert got.counts.tobytes() == want.counts.tobytes()
        assert got.edges.tobytes() == want.edges.tobytes()


def test_partition_models_use_span_domain():
    cfg = TrainConfig(partition_tau=5.0, overlap=0.5, hidden_features=8,
                      hidden_layers=1, refine_at_iters=(), total_iters=10)
    parts = build_partitions(spread_stream(10.0), cfg)
    assert parts[0].model.t_domain == parts[0].span
    assert parts[1].model.t_domain == (5.0 - 0.25, 10.0)


# -- training loop -----------------------------------------------------------


def test_training_is_deterministic():
    _, stream = small_fixture()
    cfg = tiny_cfg()
    a = train_ensemble(stream, cfg)
    b = train_ensemble(stream, cfg)
    assert np.array_equal(a[0].model.params, b[0].model.params)
    assert a[0].report.total == b[0].report.total


def test_losses_keep_float32_of_a_float32_model(toy_model, toy_stack):
    twin = replace(toy_model, params=toy_model.params.astype(np.float32))
    loss, seeds, _ = temporal_loss(twin, toy_stack, np.arange(toy_stack.num_frames))
    assert isinstance(loss, float)
    assert seeds.dtype == np.float32
    assert spatial_reg_loss(seeds[0])[1].dtype == np.float32
    frames = seeds[0].copy()  # the gradient is written over the frames, seeds[0]
    l_reg, grad = spatial_reg_loss(seeds[0], out=seeds[0])
    assert isinstance(l_reg, float)
    assert np.shares_memory(grad, seeds[0])
    l_ref, grad_ref = spatial_reg_loss(frames.astype(np.float64))
    assert l_reg == pytest.approx(l_ref, rel=1e-5)
    assert np.allclose(grad, grad_ref, rtol=1e-5, atol=1e-6 * np.abs(grad_ref).max())


def test_a_rounded_target_gives_the_same_bits(toy_model, toy_stack):
    """The target temporal_loss rounds block by block from the int32
    counts gives the loss and seeds of the whole stack rounded once."""
    twin = replace(toy_model, params=toy_model.params.astype(np.float32))
    counts = np.random.default_rng(0).integers(-40, 41, size=toy_stack.counts.shape)
    stack = EventFrameStack(counts, toy_stack.edges, threshold_C=0.1)
    idx = np.array([3, 0, 5])
    loss, seeds, _ = temporal_loss(twin, stack, idx)
    ref_loss, ref_aux = objective_reference.temporal_loss(twin, stack, idx)
    ref_aux["seeds"][1] *= twin.time_slope  # per second -> per t_norm, as objective does
    assert loss == ref_loss and seeds[1].tobytes() == ref_aux["seeds"][1].tobytes()


def test_trained_float32_parameters_are_the_model_and_round_trip(tmp_path):
    """The float32 network build_partitions makes is trained in place: its
    parameters stay float32, move from their initial values, and round-trip
    through a checkpoint bit-exactly; a float64 model's checkpoint loads as
    float64."""
    _, stream = small_fixture()
    initial = build_partitions(stream, tiny_cfg())[0].model.params
    part = train_ensemble(stream, tiny_cfg())[0]
    params = part.model.params
    assert initial.dtype == params.dtype == np.float32
    assert not np.array_equal(params, initial)
    save_checkpoint(part.model, tmp_path / "p.npz")
    loaded = load_checkpoint(tmp_path / "p.npz")
    assert loaded.params.dtype == np.float32
    assert np.array_equal(loaded.params, params)
    wide = replace(part.model, params=params.astype(np.float64))
    save_checkpoint(wide, tmp_path / "wide.npz")
    loaded = load_checkpoint(tmp_path / "wide.npz")
    assert loaded.params.dtype == np.float64
    assert np.array_equal(loaded.params, wide.params)


def test_training_resolution_ladder():
    _, stream = small_fixture()
    parts = train_ensemble(stream, tiny_cfg())
    rep = parts[0].report
    assert len(rep.total) == 12
    assert rep.stack_sizes[4] == 2 * rep.stack_sizes[3]
    assert rep.stack_sizes[8] == 2 * rep.stack_sizes[7]
    assert rep.stack_sizes[-1] == 4 * rep.stack_sizes[0]
    assert all(np.isfinite(v) and v >= 0 for v in rep.total)


def test_training_holds_one_iteration_at_a_time():
    """Training traces no more than the Adam moments, one gradient, the
    last stage's output rows, stack and forward cache, and one row block
    of backward's float32 products (16 x BLOCK_PIXELS values): no
    iteration's gradient or cache outlives it, and no float copy of the
    counts is made. The bound is 19.7 MB for this 4.2 MB network, which
    traces 19.5 MB; a gradient held into the next iteration's backward
    adds 4.2 MB, and a float32 target for the whole stack 0.5 MB."""
    _, stream = make_fixture(size=32, duration=1.0)
    cfg = TrainConfig(threshold_C=0.25, total_iters=6, refine_at_iters=(2, 4))
    (part,) = build_partitions(stream, cfg)
    report, peak = traced_peak(train_partition, part, cfg)
    assert report.stack_sizes == [32, 32, 64, 64, 128, 128]
    stack, params = part.stack, part.model.params
    _, _, seeds, cache = objective(part.model, stack, np.arange(stack.num_frames), cfg.lambda_reg)
    held = (3 * params.nbytes + seeds.nbytes + stack.counts.nbytes
            + sum(a.nbytes for a in cache.inputs + cache.derivs))
    block = 16 * BLOCK_PIXELS * params.itemsize
    assert peak <= held + block + 2**18  # and 256 KB for indices, durations, Adam's scratch


def test_lambda_zero_is_pure_temporal():
    _, stream = small_fixture()
    parts = train_ensemble(stream, tiny_cfg(lambda_reg=0.0, refine_at_iters=()))
    rep = parts[0].report
    assert all(v == 0.0 for v in rep.regularization)
    assert rep.total == rep.temporal
    assert rep.stack_sizes[-1] == rep.stack_sizes[0]


@pytest.mark.filterwarnings("error")
def test_divergence_guard_raises():
    _, stream = small_fixture()
    with pytest.raises(DivergedTraining):
        train_ensemble(stream, tiny_cfg(lr=1e8))


def test_float32_overflow_is_typed_divergence():
    """Output weights whose float32 frames overflow: the pass's
    NonFiniteOutput surfaces as DivergedTraining."""
    _, stream = small_fixture()
    cfg = tiny_cfg()
    part = build_partitions(stream, cfg)[0]
    part.model.weights[-1][:] = 1e38
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergedTraining) as info:
        train_partition(part, cfg)
    assert info.value.iteration == 0 and info.value.partition == 0


def test_loss_invariant_to_output_bias_shift():
    _, stream = small_fixture()
    cfg = tiny_cfg()
    parts = build_partitions(stream, cfg)
    # Invariance holds in exact arithmetic: check the float64 widening.
    model = replace(parts[0].model, params=parts[0].model.params.astype(np.float64))
    stack = parts[0].stack
    idx = np.arange(stack.num_frames)
    lt0, seeds0, _ = temporal_loss(model, stack, idx)
    lr0, _ = spatial_reg_loss(seeds0[0])
    for c in (-3.0, 0.7, 10.0):
        shifted = model.copy()
        shifted.biases[-1][:] += c
        lt1, seeds1, _ = temporal_loss(shifted, stack, idx)
        lr1, _ = spatial_reg_loss(seeds1[0])
        assert abs(lt1 - lt0) <= 1e-12 * max(abs(lt0), 1e-300)
        assert abs(lr1 - lr0) <= 1e-12 * max(abs(lr0), 1e-12)


@pytest.mark.parametrize("path", ["frame", "feature"])
def test_pixel_permutation_equivariance_with_zero_lambda(monkeypatch, path):
    """With no spatial term, nothing couples pixels: a consistent pixel
    permutation of stack and output layer permutes losses and gradients.
    The stage's 32 bins exceed the 16 hidden features, so the float32
    model takes the feature path unless the frame path is pinned; the
    feature path sums over pixels in the model's dtype, so it is checked
    on a float64 copy of the model."""
    _, stream = small_fixture(size=12)
    cfg = tiny_cfg(lambda_reg=0.0)
    parts = build_partitions(stream, cfg)
    model, stack = parts[0].model, parts[0].stack
    if path == "frame":
        monkeypatch.setattr(training, "_feature_space", lambda *args: False)
    else:
        model = replace(model, params=model.params.astype(np.float64))
    idx = np.arange(stack.num_frames)
    n_px = stack.counts.shape[1] * stack.counts.shape[2]
    rng = np.random.default_rng(9)
    perm = rng.permutation(n_px)

    loss, _, seeds, cache = objective(model, stack, idx, cfg.lambda_reg)
    assert (cache.head is not None) is (path == "feature")
    grads = model.backward(seeds, cache)

    permuted_counts = stack.counts.reshape(stack.num_frames, -1)[:, perm].reshape(
        stack.counts.shape)
    pstack = EventFrameStack(permuted_counts, stack.edges, stack.threshold_C)
    pmodel = model.copy()
    pmodel.weights[-1][:] = pmodel.weights[-1][perm]
    pmodel.biases[-1][:] = pmodel.biases[-1][perm]
    ploss, _, pseeds, pcache = objective(pmodel, pstack, idx, cfg.lambda_reg)
    pgrads = pmodel.backward(pseeds, pcache)

    assert ploss == pytest.approx(loss, rel=1e-12)
    gw, gb = model.layers(grads)[-1]
    pgw, pgb = pmodel.layers(pgrads)[-1]
    assert np.allclose(pgw, gw[perm], rtol=1e-12, atol=1e-20)
    assert np.allclose(pgb, gb[perm], rtol=1e-12, atol=1e-20)


def test_pixel_permutation_loss_history_short_run():
    _, stream = small_fixture(size=12)
    cfg = tiny_cfg(lambda_reg=0.0, total_iters=10, refine_at_iters=())
    parts = build_partitions(stream, cfg)

    n_px = 12 * 12
    perm = np.random.default_rng(9).permutation(n_px)
    ppart = build_partitions(stream, cfg)[0]
    ppart.stack = EventFrameStack(
        ppart.stack.counts.reshape(ppart.stack.num_frames, -1)[:, perm].reshape(
            ppart.stack.counts.shape),
        ppart.stack.edges,
        ppart.stack.threshold_C,
    )
    ppart.model.weights[-1][:] = ppart.model.weights[-1][perm]
    ppart.model.biases[-1][:] = ppart.model.biases[-1][perm]

    rep = train_partition(parts[0], cfg)
    prep = train_partition(ppart, cfg)
    assert np.allclose(rep.total, prep.total, rtol=0, atol=1e-8)


def test_temporal_loss_scales_quadratically_at_zero_model():
    _, stream = small_fixture()
    cfg = tiny_cfg()
    parts = build_partitions(stream, cfg)
    model, stack = parts[0].model, parts[0].stack
    model.weights[-1][:] = 0.0
    model.biases[-1][:] = 0.0
    idx = np.arange(stack.num_frames)
    loss1, _, _ = temporal_loss(model, stack, idx)
    alpha = 4.0
    scaled = EventFrameStack(stack.counts, stack.edges, stack.threshold_C * alpha)
    loss2, _, _ = temporal_loss(model, scaled, idx)
    assert loss2 == pytest.approx(alpha**2 * loss1, rel=1e-12)


def test_thread_count_does_not_change_results():
    _, stream = small_fixture(duration=1.0)
    cfg = tiny_cfg(partition_tau=0.5, overlap=0.1)
    seq = train_ensemble(stream, cfg, threads=1)
    par = train_ensemble(stream, cfg, threads=4)
    assert len(seq) == 2
    for a, b in zip(seq, par):
        assert np.array_equal(a.model.params, b.model.params)


def test_mini_batch_sampling_is_seeded():
    _, stream = small_fixture()
    cfg = tiny_cfg(batch_frames=4)
    a = train_ensemble(stream, cfg)
    b = train_ensemble(stream, cfg)
    assert a[0].report.total == b[0].report.total


# -- threading policy ----------------------------------------------------------


def test_blas_control_found_on_openblas_builds():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas.get("name", "").lower():
        pytest.skip(f"numpy uses {blas.get('name')}, not OpenBLAS")
    assert blas_threads() is not None


@pytest.fixture
def blas_at_4():
    """numpy's OpenBLAS set to 4 threads for the test, restored after."""
    prev = blas_threads()
    if prev is None:
        pytest.skip("no control over numpy's BLAS threads")
    set_threads = training._openblas_threads_api()[1]
    set_threads(4)
    try:
        yield 4
    finally:
        set_threads(prev)


def _record_blas_threads(monkeypatch):
    """Wrap train_partition to record the BLAS thread count each call sees
    (calls made in the calling process only)."""
    seen = []
    inner = training.train_partition

    def wrapped(*args, **kw):
        seen.append(blas_threads())
        return inner(*args, **kw)

    monkeypatch.setattr(training, "train_partition", wrapped)
    return seen


def test_parallel_partitions_pin_blas_and_restore(blas_at_4):
    _, stream = small_fixture(duration=1.0)
    parts = train_ensemble(stream, tiny_cfg(partition_tau=0.5, overlap=0.1), threads=2)
    assert len(parts) == 2
    assert blas_threads() == blas_at_4
    # each report's count was read by the process that trained the partition
    assert all(p.report.workers == 2 and p.report.blas_threads == 2 for p in parts)


@pytest.mark.filterwarnings("error")
def test_blas_threads_restored_after_divergence(blas_at_4, monkeypatch):
    inner = training.train_partition

    def diverge_on_1(part, cfg):  # patched before the fork, so the helper runs it
        if part.index != 1:
            return inner(part, cfg)
        raise DivergedTraining(0, f"on {blas_threads()} BLAS threads", partition=1)

    monkeypatch.setattr(training, "train_partition", diverge_on_1)
    _, stream = small_fixture(duration=1.0)
    with pytest.raises(DivergedTraining, match="^partition 1: .* on 2 BLAS threads$"):
        train_ensemble(stream, tiny_cfg(partition_tau=0.5, overlap=0.1), threads=2)
    assert blas_threads() == blas_at_4


def test_helper_processes_give_the_bits_of_one_worker():
    _, stream = small_fixture(duration=1.5)
    cfg = tiny_cfg(partition_tau=0.5, overlap=0.1)
    seq = train_ensemble(stream, cfg, threads=1)
    par = train_ensemble(stream, cfg, threads=2)  # the caller trains 0 and 2, a helper 1
    assert len(seq) == 3 and multiprocessing.active_children() == []
    for a, b in zip(seq, par):
        assert np.array_equal(a.model.params, b.model.params)
        assert np.array_equal(a.stack.counts, b.stack.counts)
        assert np.array_equal(a.stack.edges, b.stack.edges)
        for key in ("temporal", "regularization", "total", "stack_sizes"):
            assert getattr(a.report, key) == getattr(b.report, key)
        assert (a.report.workers, b.report.workers) == (1, 2)


def test_helper_divergence_reaches_the_caller(monkeypatch):
    _, stream = small_fixture(duration=1.5)
    cfg = tiny_cfg(partition_tau=0.5, overlap=0.1)
    wild = replace(cfg, lr=1e8)
    with pytest.raises(DivergedTraining) as alone:
        train_partition(build_partitions(stream, cfg)[1], wild)
    inner = training.train_partition
    monkeypatch.setattr(training, "train_partition",
                        lambda part, c: inner(part, wild if part.index == 1 else c))
    with pytest.raises(DivergedTraining) as pooled:
        train_ensemble(stream, cfg, threads=2)
    assert pooled.value.partition == 1
    assert pooled.value.iteration == alone.value.iteration
    assert str(pooled.value) == str(alone.value)
    assert multiprocessing.active_children() == []


def test_a_helper_that_dies_raises_worker_lost(monkeypatch):
    inner = training.train_partition

    def die_on_1(part, cfg):  # patched before the fork, so only the helper exits
        if part.index == 1:
            os._exit(3)
        return inner(part, cfg)

    monkeypatch.setattr(training, "train_partition", die_on_1)
    _, stream = small_fixture(duration=1.0)
    with pytest.raises(WorkerLost, match="worker 1 exited with code 3"):
        train_ensemble(stream, tiny_cfg(partition_tau=0.5, overlap=0.1), threads=2)
    assert multiprocessing.active_children() == []


def test_a_helpers_early_failure_ends_the_callers_share(monkeypatch):
    """Five partitions on two workers: the caller has 0, 2 and 4, a helper
    1 and 3. The helper fails on partition 1 at once; the caller finishes
    partition 0 only after the helper has exited, and must then raise that
    failure instead of starting partition 2."""
    inner, caller, started = training.train_partition, os.getpid(), []

    def fail_1_early(part, cfg):  # patched before the fork, so the helper runs it
        if os.getpid() != caller:
            if part.index == 1:
                raise DivergedTraining(0, "injected", partition=1)
            return inner(part, cfg)
        started.append(part.index)
        report = inner(part, cfg)
        deadline = time.monotonic() + 30.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.01)
        return report

    monkeypatch.setattr(training, "train_partition", fail_1_early)
    _, stream = small_fixture(duration=2.5)
    with pytest.raises(DivergedTraining, match="^partition 1: .*injected$"):
        train_ensemble(stream, tiny_cfg(partition_tau=0.5, overlap=0.1), threads=2)
    assert started == [0]
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/stat")
def test_helpers_are_forked_from_a_single_threaded_process():
    """OpenBLAS joins its thread pool in its fork handler, so every helper
    is forked from a process with one OS thread and Python 3.12+ has no
    multi-threaded fork to warn about. A fresh interpreter, where
    DeprecationWarnings are errors, counts its threads right after each
    fork of a threads=3 training of four partitions (two helpers), then
    after the fork of the one helper that scores a two-block stack."""
    code = """if True:
        import os
        import numpy as np
        from evrecon import metrics
        from evrecon.simulate import SimConfig, render_scene, simulate_events
        from evrecon.training import TrainConfig, train_ensemble

        seen = []

        def count_threads():
            with open("/proc/self/stat") as fh:
                seen.append(int(fh.read().rsplit(")", 1)[1].split()[17]))

        os.register_at_fork(after_in_parent=count_threads)
        video = render_scene("translating_gradient", 12, 12, 2.0, 120.0, seed=2)
        stream = simulate_events(video, SimConfig(threshold_C=0.25, rng_seed=1))
        cfg = TrainConfig(threshold_C=0.25, total_iters=12, refine_at_iters=(4, 8),
                          hidden_features=16, partition_tau=0.5, overlap=0.1)
        trained = len(train_ensemble(stream, cfg, threads=3))

        metrics.usable_cpus = lambda: 2  # one scoring helper, on any host
        frames = np.random.default_rng(3).integers(0, 256, (40, 32, 32)).astype(np.uint8)
        assert len(metrics.frame_blocks(frames)) == 2
        metrics.evaluate_frames(frames, frames[::-1].copy())
        print(trained, seen)
    """
    src = str(Path(training.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c", code],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "4 [1, 1, 1]\n"


def test_fork_map_runs_job_i_on_worker_i_mod_workers():
    jobs = range(7)  # three workers: the last round is ragged
    got = fork_map(lambda j: (j * j, os.getpid()), jobs, 3)
    assert [v for v, _ in got] == [j * j for j in jobs]
    pids = [pid for _, pid in got]
    assert set(pids[0::3]) == {os.getpid()}
    assert len(set(pids[1::3])) == len(set(pids[2::3])) == 1
    assert len(set(pids)) == 3
    assert multiprocessing.active_children() == []
    assert fork_map(lambda j: os.getpid(), jobs, 1) == [os.getpid()] * 7


def test_without_blas_control_partitions_still_run_in_parallel(monkeypatch):
    monkeypatch.setattr(training, "_openblas_threads_api", lambda: None)
    _, stream = small_fixture(duration=1.0)
    cfg = tiny_cfg(partition_tau=0.5, overlap=0.1)
    parts = train_ensemble(stream, cfg, threads=2)
    assert all(p.report.workers == 2 and p.report.blas_threads is None for p in parts)
    for a, b in zip(parts, train_ensemble(stream, cfg, threads=1)):
        assert a.report.total == b.report.total


def test_single_partition_never_changes_blas_threads(blas_at_4, monkeypatch):
    seen = _record_blas_threads(monkeypatch)
    _, stream = small_fixture()
    parts = train_ensemble(stream, tiny_cfg(), threads=4)
    assert len(parts) == 1
    assert seen == [blas_at_4]
    assert blas_threads() == blas_at_4
    assert parts[0].report.workers == 1 and parts[0].report.blas_threads is None
