"""The objective in feature space against the output rows it replaces.

When a stage selects more bins K than the last hidden width n,
`training.objective` makes no output rows. It computes the temporal term
from the target τ, the head W and n x n Gram matrices, and the spatial
term L_reg = <Ã^T Ã, W̃^T Λ W̃> / 2 from the head W̃ = [W | b] and the
last hidden activations Ã = [A | 1]. The loss and its gradient are the
frame path's in exact arithmetic, so on float64 models the two paths must
agree to rounding; the frame path is pinned through
`training._feature_space`.
"""

from dataclasses import replace

import numpy as np
import pytest

import objective_reference as ref
from evrecon import training
from evrecon.errors import DivergedTraining
from evrecon.frames import EventFrameStack
from evrecon.selftest import max_param_gradient_error
from evrecon.siren import init_siren
from evrecon.training import Partition, TrainConfig, objective, train_partition

from conftest import traced_peak

REL = 1e-12


def make_case(h=5, w=7, n=6, k=12, spare=4, seed=0, dtype=np.float64):
    """A [1, n, n, H*W] network over a stack of k + spare bins, with a
    non-zero output bias."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(-3, 4, size=(k + spare, h, w))
    edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.2, k + spare))])
    stack = EventFrameStack(counts, edges, threshold_C=0.25)
    model = init_siren([1, n, n, h * w], seed=seed, height=h, width=w,
                       t_domain=(edges[0], edges[-1]))
    model.biases[-1][:] = rng.uniform(-0.5, 0.5, h * w)
    return replace(model, params=model.params.astype(dtype)), stack


def on_frame_path(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "_feature_space", lambda *a: False)
        return fn(*args)


def loss_and_grad(model, stack, idx, lam):
    l_temp, l_reg, seeds, cache = objective(model, stack, idx, lam)
    return l_temp + lam * l_reg, l_reg, model.backward(seeds, cache), cache


def rel_err(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("lam", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("batch", [None, 13])
@pytest.mark.parametrize("shape", [(5, 7), (9, 4), (2, 11)])
def test_feature_path_matches_the_frame_path(lam, batch, shape):
    model, stack = make_case(*shape, n=6, k=16)
    idx = np.arange(stack.num_frames) if batch is None else np.sort(
        np.random.default_rng(1).choice(stack.num_frames, batch, replace=False))
    total, l_reg, grads, cache = loss_and_grad(model, stack, idx, lam)
    f_total, f_reg, f_grads, f_cache = on_frame_path(loss_and_grad, model, stack, idx, lam)
    assert cache.head is not None and f_cache.head is None
    assert abs(l_reg - f_reg) <= REL * f_reg and (lam > 0 or l_reg == f_reg == 0.0)
    assert abs(total - f_total) <= REL * f_total
    assert rel_err(grads, f_grads) <= REL


def test_finite_differences_see_the_same_error_on_both_paths():
    model, stack = make_case(5, 7, n=6, k=12, spare=0)
    idx, lam = np.arange(12), 0.05

    def error():
        def loss_of(m):
            lt, lr, _, _ = objective(m, stack, idx, lam)
            return lt + lam * lr

        _, _, seeds, cache = objective(model, stack, idx, lam)
        return max_param_gradient_error(model, loss_of, model.backward(seeds, cache))

    feature, frame = error(), on_frame_path(error)
    assert feature < 1e-3  # the selftest oracle's bound
    assert abs(feature - frame) <= 1e-6 * frame


def test_a_bias_shift_leaves_the_feature_space_loss():
    model, stack = make_case(6, 8, n=6, k=14)
    idx = np.arange(stack.num_frames)
    _, l_reg, _, _ = objective(model, stack, idx, 0.05)
    for c in (-3.0, 0.7, 10.0):
        shifted = model.copy()
        shifted.biases[-1][:] += c
        _, shifted_reg, _, cache = objective(shifted, stack, idx, 0.05)
        assert cache.head is not None
        assert abs(shifted_reg - l_reg) <= REL * l_reg


@pytest.mark.parametrize("k, feature", [(6, False), (12, True)])
def test_lambda_zero_does_no_spatial_work(monkeypatch, k, feature):
    """At lambda 0 a feature stage skips the spatial term and makes no
    rows; the frame path makes its frame rows and zeroes their seeds, as it
    always has."""
    def forbidden(*args, **kwargs):
        raise AssertionError("spatial work at lambda = 0")

    monkeypatch.setattr(training, "_frame_term", forbidden)
    monkeypatch.setattr(training, "spatial_reg_loss", forbidden)
    model, stack = make_case(n=6, k=k)
    l_temp, l_reg, seeds, cache = objective(model, stack, np.arange(k), 0.0)
    assert l_reg == 0.0 and l_temp > 0.0
    if feature:
        grads, d_in = cache.head
        assert seeds is None
        assert not model.layers(grads)[-1][1].any()  # no bias gradient
        assert not d_in[:len(d_in) // 2].any()  # nor any for the value rows
    else:
        assert cache.head is None and not seeds[0].any()  # no frame seeds


def test_float32_gradients_are_the_references_to_rounding():
    """A float32 model on the feature path against the whole-array frame
    path of `objective_reference.py`. Each gradient entry sums at most
    P = 35 float32 products on either path, in another order, so the two
    may differ by some tens of float32 roundings: 1e-5 of the largest
    entry, where float32's unit roundoff is 6e-8 (2e-8 is seen)."""
    model, stack = make_case(5, 7, n=6, k=16, dtype=np.float32)
    idx = np.arange(stack.num_frames)
    total, l_reg, grads, cache = loss_and_grad(model, stack, idx, 0.05)
    r_temp, r_reg, aux = ref.objective(model, stack, idx, 0.05)
    r_grads = model.backward(aux["seeds"], aux["cache"])
    assert cache.head is not None and grads.dtype == np.float32
    assert abs(l_reg - r_reg) <= 1e-5 * r_reg
    assert rel_err(grads, r_grads) <= 1e-5


@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_the_rule_switches_past_n_bins(lam):
    n = 6
    for k, feature in ((n, False), (n + 1, True)):
        model, stack = make_case(n=n, k=k)
        assert training._feature_space(model, k) is feature
        _, _, seeds, cache = objective(model, stack, np.arange(k), lam)
        assert (seeds is None) is feature and (cache.head is not None) is feature
        if not feature:
            assert seeds.shape == (2, k, 5, 7)


def test_float32_gradients_near_a_fit_stay_within_ten_times_the_frame_paths():
    """The feature path's temporal term is a difference of products of the
    target with the head, so rounding grows as the residual shrinks
    against the target. The frame path's residual τ - s D T loses the
    same digits. Near a fit, with the residual at most 1% of the target's
    energy, the float32 feature gradient must stay within 10x the float32
    frame path's error, both against the float64 frame path."""
    model, stack = make_case(16, 12, n=8, k=40, spare=0, dtype=np.float32, seed=3)
    idx = np.arange(stack.num_frames)
    exact = replace(model, params=model.params.astype(np.float64))
    _, tangents, _ = exact.forward_with_tangent(exact.normalize_time(stack.midpoints))
    fit = tangents * (exact.time_slope * stack.durations[:, None, None])
    noise = np.random.default_rng(4).standard_normal(fit.shape) * 0.08 * fit.std()
    c = 1e-4
    stack = EventFrameStack(np.rint((fit + noise) / c), stack.edges, threshold_C=c)
    ref_total, ref_reg, ref, _ = on_frame_path(loss_and_grad, exact, stack, idx, 0.05)
    target = stack.frames_as(np.float64)
    energy = np.sum(target**2) / target.size
    assert 0.001 < (ref_total - 0.05 * ref_reg) / energy <= 0.01  # the mean squared residual
    _, _, grads, cache = loss_and_grad(model, stack, idx, 0.05)
    _, _, f_grads, f_cache = on_frame_path(loss_and_grad, model, stack, idx, 0.05)
    assert cache.head is not None and f_cache.head is None
    assert rel_err(grads, ref) <= 10 * rel_err(f_grads, ref)


def test_a_feature_stage_allocates_no_output_rows():
    """After its target is made, a feature stage's iteration allocates
    less than one (K, P) array; the frame path allocates its (2K, P)
    rows."""
    model, stack = make_case(16, 16, n=6, k=64, spare=0, dtype=np.float32)
    idx = np.arange(64)
    arrays = training._stage_arrays(model, 64, 0.05)
    assert arrays[0] is None and arrays[2].values.shape == (64, 256)

    def step(*arrays):
        _, _, seeds, cache = objective(model, stack, idx, 0.05, *arrays)
        return model.backward(seeds, cache)

    step(*arrays)  # makes the target
    _, peak = traced_peak(step, *arrays)
    rows = 64 * 256 * model.params.itemsize
    assert peak < rows
    _, frame_peak = on_frame_path(traced_peak, step)
    assert frame_peak >= 2 * rows


def test_a_feature_stage_holds_no_rows_and_trains_like_the_frame_path(monkeypatch):
    """Stages of 8, 16 and 32 bins on a width-12 network: the first on the
    frame path with (2K, P) rows, the later two on the feature path with
    no rows and a (K, P) target, each reused by its stage. The float32
    loss histories differ from the frame path's by rounding only."""
    model, stack = make_case(6, 8, n=12, k=8, spare=0, dtype=np.float32)
    events = None  # refinement is replaced by a doubling of the uniform bins

    def refine(stack, events):
        edges = np.linspace(stack.edges[0], stack.edges[-1], 2 * stack.num_frames + 1)
        counts = np.repeat(stack.counts, 2, axis=0) // 2
        return EventFrameStack(counts, edges, stack.threshold_C)

    cfg = TrainConfig(threshold_C=0.25, total_iters=6, refine_at_iters=(2, 4),
                      hidden_features=12, hidden_layers=2)
    monkeypatch.setattr(training, "refine_bins", refine)
    seen = []

    def recording(*args):
        seen.append(args[4:])
        return objective(*args)

    def train(fn):
        part = Partition(0, model.t_domain, model.copy(), stack=stack, events=events)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(training, "objective", fn)
            return train_partition(part, cfg)

    report = train(recording)
    assert report.stack_sizes == [8, 8, 16, 16, 32, 32]
    held = [(rows is None, (rows if rows is not None else target.values).shape)
            for rows, _, target in seen[::2]]
    assert held == [(False, (16, 48)), (True, (16, 48)), (True, (32, 48))]
    assert all(x is y for a, b in zip(seen[::2], seen[1::2]) for x, y in zip(a, b))
    frame = on_frame_path(train, objective)
    assert report.temporal[:2] == frame.temporal[:2]  # the first stage is the frame path
    for name in ("temporal", "regularization", "total"):
        assert np.allclose(getattr(report, name), getattr(frame, name), rtol=1e-4, atol=0)


@pytest.mark.parametrize("layer, where", [(0, "hidden pass"), (-1, "target times head")])
def test_a_non_finite_feature_pass_is_typed_divergence(layer, where):
    """With no output rows to check, a NaN in the last hidden rows or in
    τ W still ends training with DivergedTraining."""
    model, stack = make_case(n=6, k=12, spare=0, dtype=np.float32)
    model.weights[layer][0, 0] = np.nan
    cfg = TrainConfig(threshold_C=0.25, total_iters=1, refine_at_iters=(), hidden_features=6,
                      hidden_layers=2)
    part = Partition(0, model.t_domain, model, stack=stack, events=None)
    with pytest.raises(DivergedTraining) as info:
        train_partition(part, cfg)
    assert info.value.iteration == 0 and where in str(info.value)
