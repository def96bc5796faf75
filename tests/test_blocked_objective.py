"""The blocked frame-space pass against the whole-array reference.

`training.temporal_loss`, `spatial_reg_loss` and `objective` work on
blocks of whole frames, writing the seeds over a reused output-row array. Each
element sees the arithmetic of the whole-array pass kept in
`objective_reference.py`, so seeds, gradients and trained parameters must
match it bit for bit; only the float64 loss sums regroup by block.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import objective_reference as ref
from evrecon import training
from evrecon.errors import ShapeMismatch
from evrecon.frames import EventFrameStack
from evrecon.simulate import SimConfig, render_scene, simulate_events
from evrecon.siren import init_siren
from evrecon.training import (
    TrainConfig,
    build_partitions,
    objective,
    spatial_reg_loss,
    temporal_loss,
    train_partition,
)

REL = 1e-12

# Frame shapes from a few pixels up to more than one block: blocks hold
# metrics.BLOCK_PIXELS // (H * W) frames, from 2048 down to one.
SHAPES = [(2, 2), (3, 5), (32, 32), (40, 50), (64, 64), (97, 131), (2, 16500), (181, 183)]


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: stricter than np.array_equal, which
    takes -0.0 for 0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * abs(b)


@st.composite
def cases(draw):
    h, w = draw(st.sampled_from(SHAPES))
    k = draw(st.integers(1, 40))
    num_frames = k + draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(-3, 4, size=(num_frames, h, w))
    edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.2, num_frames))])
    stack = EventFrameStack(counts, edges, threshold_C=draw(st.sampled_from([0.1, 0.25, 1.0])))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    model = init_siren([1, 6, 6, h * w], seed=int(rng.integers(1000)), height=h, width=w,
                       t_domain=(edges[0], edges[-1]))
    model = replace(model, params=model.params.astype(dtype))
    if draw(st.booleans()):  # flat frames: every difference is an exact zero
        model.weights[-1][:] = 0.0
    if k == num_frames and draw(st.booleans()):
        idx = np.arange(k)
    else:
        idx = np.sort(rng.choice(num_frames, size=k, replace=False))
    target = stack.frames_as(dtype) if draw(st.booleans()) else None
    stale = draw(st.sampled_from(["none", "empty", "bigger", "smaller", "other dtype"]))
    other = np.float64 if dtype == np.float32 else np.float32
    buffers = {
        "none": None,
        "empty": {},
        "bigger": {"rows": np.ones((2 * k + 2, h * w), dtype)},
        "smaller": {"rows": np.ones((2, h * w), dtype)},
        "other dtype": {"rows": np.ones((2 * k, h * w), other)},
    }[stale]
    lam = draw(st.sampled_from([0.0, 0.05, 1.7]))
    return model, stack, idx, target, buffers, lam


@given(cases())
@settings(deadline=None, max_examples=60)
def test_blocked_objective_matches_the_whole_array_reference(case):
    model, stack, idx, target, buffers, lam = case
    l_temp, l_reg, aux = objective(model, stack, idx, lam, target, buffers)
    r_temp, r_reg, raux = ref.objective(model, stack, idx, lam, target)
    assert close(l_temp, r_temp)
    assert close(l_reg, r_reg) and (l_reg == 0.0 or lam > 0)
    assert same_bits(aux["seeds"], raux["seeds"])
    grads = model.backward(aux["seeds"], aux["cache"])
    assert same_bits(grads, model.backward(raux["seeds"], raux["cache"]))
    assert same_bits(temporal_loss(model, stack, idx, target)[1]["frames"], raux["frames"])
    if buffers is not None:  # a stale array was replaced, a fitting one is kept
        k, (h, w) = len(idx), stack.counts.shape[1:]
        assert list(buffers) == ["rows"] and buffers["rows"].shape == (2 * k, h * w)
        assert aux["seeds"].shape == (2, k, h, w) and aux["seeds"].base is buffers["rows"]
        again = objective(model, stack, idx, lam, target, buffers)[2]
        assert again["seeds"].base is aux["seeds"].base


@given(st.sampled_from(SHAPES), st.integers(1, 12), st.sampled_from([np.float32, np.float64]),
       st.sampled_from([1.0, 0.05]), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_blocked_regularizer_matches_the_reference(shape, k, dtype, scale, seed):
    h, w = shape
    frames = np.random.default_rng(seed).standard_normal((k, h, w)).astype(dtype)
    frames[:, :, : w // 2] = 0.5  # flat runs: exact zero differences
    # A checkerboard of +0.0 and -0.0: differences of -0.0, where only
    # adding them to a +0.0 gives the reference's +0.0.
    signed_zeros = np.where(np.indices(shape).sum(axis=0) % 2, -0.0, 0.0)
    frames[:, : h // 2, w // 2:] = signed_zeros[: h // 2, w // 2:]
    loss, grad = spatial_reg_loss(frames, grad_scale=scale)
    ref_loss, ref_grad = ref.spatial_reg_loss(frames)
    ref_grad *= scale
    assert close(loss, ref_loss)
    assert same_bits(grad, ref_grad)


def test_regularizer_rejects_an_out_it_cannot_write_in_place():
    frames = np.zeros((3, 4, 5))
    with pytest.raises(ShapeMismatch):
        spatial_reg_loss(frames, out=np.zeros((3, 5, 4)).transpose(0, 2, 1))
    with pytest.raises(ShapeMismatch):
        spatial_reg_loss(frames, out=np.zeros((3, 4, 6)))


# -- training ------------------------------------------------------------------


def _reference_objective(model, stack, frame_indices, lambda_reg, target=None, buffers=None):
    return ref.objective(model, stack, frame_indices, lambda_reg, target)


def _train(monkeypatch, objective_fn, batch_frames):
    """Train a 64x64 partition (8 frames per block) through two
    refinements (32 -> 64 -> 128 bins) with objective_fn in place."""
    video = render_scene("translating_gradient", 64, 64, 1.0, 120.0, seed=2)
    stream = simulate_events(video, SimConfig(threshold_C=0.25, noise_rate=0.0, rng_seed=1))
    cfg = TrainConfig(threshold_C=0.25, total_iters=9, refine_at_iters=(3, 6),
                      hidden_features=16, batch_frames=batch_frames)
    part = build_partitions(stream, cfg)[0]
    monkeypatch.setattr(training, "objective", objective_fn)
    report = train_partition(part, cfg)
    monkeypatch.undo()
    return part.model.params, report


@pytest.mark.parametrize("batch_frames", [None, 12])
def test_training_keeps_the_bits_of_the_whole_array_objective(monkeypatch, batch_frames):
    seen = []

    def recording(*args):
        out = objective(*args)
        buffers = args[5]
        assert list(buffers) == ["rows"] and out[2]["seeds"].base is buffers["rows"]
        seen.append(out[2])
        return out

    params, report = _train(monkeypatch, recording, batch_frames)
    ref_params, ref_report = _train(monkeypatch, _reference_objective, batch_frames)
    assert same_bits(params, ref_params)
    assert report.stack_sizes == ref_report.stack_sizes == [32] * 3 + [64] * 3 + [128] * 3
    for name in ("temporal", "regularization", "total"):
        assert all(map(close, getattr(report, name), getattr(ref_report, name)))

    # One (2K, H*W) array per stage holds the seeds over the output rows,
    # made afresh at each refinement, also when K stays the same.
    stages = [seen[0:3], seen[3:6], seen[6:9]]
    for stage in stages:
        assert all(aux["seeds"].base is stage[0]["seeds"].base for aux in stage)
    for a, b in zip(stages, stages[1:]):
        assert not np.shares_memory(a[0]["seeds"], b[0]["seeds"])
