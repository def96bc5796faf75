"""The spatial term in feature space against the frame rows it replaces.

When a stage selects more bins K than the last hidden width n (and
lambda > 0), `training.objective` computes L_reg = <Ã^T Ã, W̃^T Λ W̃> / 2
from the head W̃ = [W | b] and the last hidden activations Ã = [A | 1]
instead of from K frame rows. The loss and its gradient are the frame
path's in exact arithmetic, so on float64 models the two paths must agree
to rounding; the frame path is pinned through `training._feature_space`.
"""

from dataclasses import replace

import numpy as np
import pytest

import objective_reference as ref
from evrecon import training
from evrecon.frames import EventFrameStack
from evrecon.selftest import max_param_gradient_error
from evrecon.siren import init_siren
from evrecon.training import Partition, TrainConfig, objective, train_partition

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


@pytest.mark.parametrize("lam", [0.05, 1.0])
@pytest.mark.parametrize("batch", [None, 13])
@pytest.mark.parametrize("shape", [(5, 7), (9, 4), (2, 11)])
def test_feature_path_matches_the_frame_path(lam, batch, shape):
    model, stack = make_case(*shape, n=6, k=16)
    idx = np.arange(stack.num_frames) if batch is None else np.sort(
        np.random.default_rng(1).choice(stack.num_frames, batch, replace=False))
    total, l_reg, grads, cache = loss_and_grad(model, stack, idx, lam)
    f_total, f_reg, f_grads, f_cache = on_frame_path(loss_and_grad, model, stack, idx, lam)
    assert cache.frame_term is not None and f_cache.frame_term is None
    assert abs(l_reg - f_reg) <= REL * f_reg
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
        assert cache.frame_term is not None
        assert abs(shifted_reg - l_reg) <= REL * l_reg


def test_lambda_zero_does_no_spatial_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("spatial work at lambda = 0")

    monkeypatch.setattr(training, "_frame_term", forbidden)
    monkeypatch.setattr(training, "spatial_reg_loss", forbidden)
    model, stack = make_case(k=12)
    l_temp, l_reg, seeds, cache = objective(model, stack, np.arange(stack.num_frames), 0.0)
    assert l_reg == 0.0 and cache.frame_term is None
    assert not seeds[0].any()  # no frame seeds


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
    assert cache.frame_term is not None and grads.dtype == np.float32
    assert abs(l_reg - r_reg) <= 1e-5 * r_reg
    assert rel_err(grads, r_grads) <= 1e-5


def test_the_rule_switches_past_n_bins():
    n = 6
    for k, feature in ((n, False), (n + 1, True)):
        model, stack = make_case(n=n, k=k)
        assert training._feature_space(model, k, 0.05) is feature
        _, _, seeds, cache = objective(model, stack, np.arange(k), 0.05)
        assert seeds.shape == ((1 if feature else 2), k, 5, 7)
        assert (cache.frame_term is not None) is feature
    assert not training._feature_space(model, n + 1, 0.0)


def test_a_feature_stage_holds_k_rows_and_trains_like_the_frame_path(monkeypatch):
    """Stages of 8, 16 and 32 bins on a width-12 network: the first on the
    frame path with (2K, P) rows, the later two on the feature path with
    (K, P) rows, each reused by its stage. The float32 loss histories
    differ from the frame path's by rounding only."""
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
        seen.append(args[4])
        return objective(*args)

    def train(fn):
        part = Partition(0, model.t_domain, model.copy(), stack=stack, events=events)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(training, "objective", fn)
            return train_partition(part, cfg)

    report = train(recording)
    assert report.stack_sizes == [8, 8, 16, 16, 32, 32]
    assert [r.shape for r in seen[::2]] == [(16, 48), (16, 48), (32, 48)]
    assert all(a is b for a, b in zip(seen[::2], seen[1::2]))
    frame = on_frame_path(train, objective)
    assert report.temporal[:2] == frame.temporal[:2]  # the first stage is the frame path
    for name in ("temporal", "regularization", "total"):
        assert np.allclose(getattr(report, name), getattr(frame, name), rtol=1e-4, atol=0)
