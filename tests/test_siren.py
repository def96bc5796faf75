from dataclasses import replace

import numpy as np
import pytest

from evrecon.errors import (
    DtypeMismatch,
    EvreconError,
    InvalidArchitecture,
    InvalidCheckpoint,
    NonFiniteGradient,
    NonFiniteOutput,
    ShapeMismatch,
)
from evrecon.metrics import BLOCK_PIXELS
from evrecon.selftest import max_param_gradient_error
from evrecon.siren import (
    _STACK_MIN_WORK,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    _row_blocks,
    adam_step,
    all_finite,
    init_siren,
    load_checkpoint,
    save_checkpoint,
)


def backward_at(model, t, seeds):
    """model.backward of `seeds` after a forward pass at times `t`."""
    _, _, cache = model.forward_with_tangent(t)
    return model.backward(seeds, cache)


def test_init_deterministic_per_seed():
    a = init_siren([1, 16, 16, 8], seed=5, height=2, width=4)
    b = init_siren([1, 16, 16, 8], seed=5, height=2, width=4)
    c = init_siren([1, 16, 16, 8], seed=6, height=2, width=4)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_parameter_count_for_default_architecture():
    model = init_siren([1, 512, 512, 512, 4096], seed=0, height=64, width=64)
    expected = (1 * 512 + 512) + 2 * (512 * 512 + 512) + (512 * 4096 + 4096)
    assert expected == 2_627_584
    assert model.params.size == expected


def test_init_bounds_and_zero_biases():
    omega0 = 30.0
    model = init_siren([1, 64, 64, 32], omega0=omega0, seed=1, height=4, width=8)
    assert np.abs(model.weights[0]).max() <= 1.0  # first layer: U(-1/n_in, 1/n_in)
    for w, n_in in zip(model.weights[1:], (64, 64)):
        assert np.abs(w).max() <= np.sqrt(6.0 / n_in) / omega0
    for b in model.biases:
        assert np.all(b == 0.0)


def test_hidden_preactivation_variance_order_one():
    # sine arguments of layers past the first stay near unit variance at
    # init; the first layer is deliberately broadband (its sine argument
    # spans many periods for inputs in [-1, 1]).
    model = init_siren([1, 256, 256, 256, 64], seed=0, height=8, width=8)
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.0, 1.0, (10_000, 1))
    a = x
    pre_vars = []
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = model.omega0 * (a @ w.T + b)
        pre_vars.append(z.var())
        a = np.sin(z)
    assert pre_vars[0] > 2.0
    for v in pre_vars[1:]:
        assert 0.5 <= v <= 2.0


def test_forward_finite_and_bounded(toy_model):
    frame = toy_model.forward(0.0)
    assert np.all(np.isfinite(frame))
    bound = np.abs(toy_model.weights[-1]).sum(axis=1) + np.abs(toy_model.biases[-1])
    assert np.all(np.abs(frame.reshape(-1)) <= bound)


@pytest.mark.parametrize("t", [0.3, np.array([0.3])])
def test_one_time_is_a_batch_of_one(toy_model, t):
    """A 0-d time and a one-element batch both give (1, H, W) stacks."""
    frames, tangents, _ = toy_model.forward_with_tangent(t)
    assert toy_model.forward(t).shape == frames.shape == tangents.shape == (1, 4, 4)


def test_identical_parameters_identical_outputs(toy_model):
    other = toy_model.copy()
    t = np.linspace(-1, 1, 7)
    assert np.array_equal(toy_model.forward(t), other.forward(t))


def test_forward_writes_into_out(toy_model):
    """Frames written into `out` have the bits forward() returns, and the
    returned frames are a view into `out`."""
    t = np.linspace(-1, 1, 7)
    out = np.empty((7, 16))
    frames = toy_model.forward(t, out=out)
    assert np.shares_memory(frames, out)
    assert frames.tobytes() == toy_model.forward(t).tobytes()


@pytest.mark.parametrize("m, n, k", [(1, 16384, 64), (2, 16384, 64), (480, 16384, 64),
                                     (480, 4096, 512), (1440, 1024, 128), (7, 100, 100),
                                     (300, 10, 10), (1000, 4096, 32)])
def test_row_blocks_keep_every_product_on_the_blocked_kernel(m, n, k):
    blocks = _row_blocks(m, n, k)
    assert blocks[0].start == 0 and blocks[-1].stop == m
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    if len(blocks) > 1:
        assert all(b.stop - b.start >= 2 for b in blocks)
        assert all((b.stop - b.start) * n * k > _STACK_MIN_WORK for b in blocks)
        assert all((b.stop - b.start) * n <= 16 * BLOCK_PIXELS for b in blocks)


@pytest.mark.parametrize("k", [1, 2, 3, 17, 300])
def test_float32_forward_into_float64_out_has_the_bits_of_one_gemm(k):
    """Blocked or not, the frames are those of one float32 GEMM over every
    row, widened to the dtype of `out` (float64, float32, or float32
    without one), with the bias added in that dtype."""
    model = init_siren([1, 32, 32, 4096], seed=4, height=64, width=64)
    model = replace(model, params=model.params.astype(np.float32))
    t = np.linspace(-1.0, 1.0, k)
    *hidden, (w_out, b_out) = model.layers()
    a = t.astype(np.float32).reshape(-1, 1)
    for w, b in hidden:
        a = np.sin(model.omega0 * (a @ w.T + b))
    assert len(_row_blocks(k, 4096, 32)) == (3 if k == 300 else 1)
    for out_dtype in [np.float64, np.float32, None]:
        out = None if out_dtype is None else np.empty((k, 4096), out_dtype)
        frames = model.forward(t, out=out)
        want = (a @ w_out.T).astype(out_dtype or np.float32)
        want += b_out
        assert out is None or np.shares_memory(frames, out)
        assert frames.dtype == want.dtype and frames.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 2, 3, 17, 300])
def test_time_derivative_is_the_scaled_tangent_bit_for_bit(k, dtype):
    """Into a float64 out, and into an out of the network's own dtype, the
    derivatives are made a block of rows at a time (three blocks at
    k = 300): forward_with_tangent's tangents times time_slope, computed
    in the network's dtype."""
    model = init_siren([1, 32, 32, 4096], seed=4, height=64, width=64, t_domain=(0.5, 3.0))
    model = replace(model, params=model.params.astype(dtype))
    t = np.linspace(-1.0, 1.0, k)
    _, tangents, _ = model.forward_with_tangent(t)
    for out_dtype in {np.float64, dtype}:
        out = np.empty((k, 4096), out_dtype)
        rates = model.time_derivative(t, out)
        want = (tangents * dtype(model.time_slope)).astype(out_dtype)
        assert rates.shape == (k, 64, 64) and np.shares_memory(rates, out)
        assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tangent_pass_frames_against_forward(dtype):
    """A float32 network's tangent-pass frames are forward()'s bit for
    bit. A float64 network's agree within the rounding of a dot product
    of 8 terms, not bitwise: its stacked 34-row output GEMM may round
    rows differently from forward()'s blocks of 8 and 9 rows."""
    model = init_siren([1, 8, 8, 33123], seed=0, height=181, width=183)
    model = replace(model, params=model.params.astype(dtype))
    t = np.linspace(-1.0, 1.0, 17)
    frames, _, cache = model.forward_with_tangent(t)
    want = model.forward(t)
    if dtype == np.float32:
        assert frames.tobytes() == want.tobytes()
    else:
        w_out = model.layers()[-1][0]
        terms = (np.abs(cache.inputs[-1][:17]) @ np.abs(w_out.T)).reshape(want.shape)
        assert np.all(np.abs(frames - want) <= 2 * 8 * np.finfo(dtype).eps * terms)


def test_time_derivative_detects_nonfinite_tangents(toy_model):
    """At t_norm = 0 a huge first layer overflows the tangents only."""
    broken = replace(toy_model, params=toy_model.params.astype(np.float32))
    broken.weights[0][:] = 1e38
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteOutput):
        broken.time_derivative(np.zeros(3), np.empty((3, 16)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_all_finite_finds_each_nonfinite_value(bad):
    values = np.arange(12.0).reshape(3, 4)
    assert all_finite(values) and all_finite(values[:0])
    values[1, 2] = bad
    assert not all_finite(values)


def test_forward_continuous_in_t(toy_model):
    rng = np.random.default_rng(2)
    h = 1e-7
    for t in rng.uniform(-1, 1, 5):
        f0, tan, _ = toy_model.forward_with_tangent(t)
        f1 = toy_model.forward(t + h)
        assert np.allclose(f1 - f0, tan * h, atol=1e-9)


def test_tangent_matches_finite_differences(toy_model):
    rng = np.random.default_rng(3)
    h = 1e-4
    for t in rng.uniform(-1, 1, 10):
        _, tan, _ = toy_model.forward_with_tangent(t)
        fd = (toy_model.forward(t + h) - toy_model.forward(t - h)) / (2 * h)
        assert np.linalg.norm(tan - fd) / np.linalg.norm(fd) < 1e-4


def test_tangent_zero_when_output_weights_zero(toy_model):
    model = toy_model.copy()
    model.weights[-1][:] = 0.0
    _, tan, _ = model.forward_with_tangent(0.3)
    assert np.all(tan == 0.0)


def test_tangent_linear_in_output_weights(toy_model):
    doubled = toy_model.copy()
    doubled.weights[-1][:] *= 2.0
    _, tan, _ = toy_model.forward_with_tangent(0.3)
    _, tan2, _ = doubled.forward_with_tangent(0.3)
    assert np.allclose(tan2, 2.0 * tan, rtol=0, atol=1e-15)


def test_frame_identical_between_forward_paths(toy_model):
    t = np.array([-0.9, 0.1, 0.77])
    frames = toy_model.forward(t)
    frames2, _, _ = toy_model.forward_with_tangent(t)
    assert np.array_equal(frames, frames2)


def test_backward_matches_finite_differences(toy_model):
    rng = np.random.default_rng(4)
    t = np.array([0.3, -0.2, 0.75])
    gy = rng.standard_normal((3, 16))
    gydot = rng.standard_normal((3, 16))

    def loss(m):
        f, tan, _ = m.forward_with_tangent(t)
        return float(np.sum(gy * f.reshape(3, -1)) + np.sum(gydot * tan.reshape(3, -1)))

    grads = backward_at(toy_model, t, np.stack([gy, gydot]))
    assert max_param_gradient_error(toy_model, loss, grads) < 1e-3


def two_gemm_forward_backward(model, t, gy, gy_dot):
    """Reference forward-with-tangent and backward that multiply value
    rows and tangent rows by each layer's weights in separate GEMMs."""
    omega = model.omega0
    *hidden, (w_out, b_out) = model.layers()
    a = np.asarray(t, dtype=model.params.dtype).reshape(-1, 1)
    a_dot = np.ones_like(a)
    acts, acts_dot, coss, zdots = [a], [a_dot], [], []
    for w, b in hidden:
        z = a @ w.T + b
        z_dot = a_dot @ w.T
        c = np.cos(omega * z)
        a = np.sin(omega * z)
        a_dot = omega * c * z_dot
        acts.append(a)
        acts_dot.append(a_dot)
        coss.append(c)
        zdots.append(z_dot)
    y = a @ w_out.T + b_out
    y_dot = a_dot @ w_out.T

    grads = np.empty_like(model.params)
    grad_layers = model.layers(grads)
    layers = model.layers()
    u, u_dot = gy, gy_dot
    for l in range(len(layers) - 1, -1, -1):
        if l < len(layers) - 1:
            c, s, z_dot = coss[l], acts[l + 1], zdots[l]
            u, u_dot = u * (omega * c) - u_dot * (omega * omega) * s * z_dot, u_dot * (omega * c)
        gw, gb = grad_layers[l]
        gw[:] = u.T @ acts[l]
        gw += u_dot.T @ acts_dot[l]
        gb[:] = np.sum(u, axis=0)
        u, u_dot = u @ layers[l][0], u_dot @ layers[l][0]
    return y, y_dot, grads


def as_float32(model):
    return replace(model, params=model.params.astype(np.float32))


def check_row_stacked_gemms(k, dtype, hidden=256, height=64, width=64):
    model = init_siren([1, hidden, hidden, height * width], seed=7, height=height, width=width)
    model = replace(model, params=model.params.astype(dtype))
    rng = np.random.default_rng(k)
    t = rng.uniform(-1.0, 1.0, k)
    seeds = rng.standard_normal((2, k, height, width)).astype(dtype)
    seeds_before = seeds.copy()
    frame, tangent, cache = model.forward_with_tangent(t)
    y, y_dot, ref_grads = two_gemm_forward_backward(
        model, t, seeds[0].reshape(k, -1), seeds[1].reshape(k, -1))
    assert np.array_equal(frame, model.forward(t))
    assert np.array_equal(frame.reshape(k, -1), y)
    assert np.array_equal(tangent.reshape(k, -1), y_dot)
    grads = model.backward(seeds, cache)
    assert np.array_equal(grads, ref_grads)
    assert np.array_equal(seeds, seeds_before)
    # The output layer's weight gradient, made one row block at a time, has
    # the bits of the whole products on the cache.
    a, uu = cache.inputs[-1], seeds.reshape(2 * k, -1)
    whole = uu[:k].T @ a[:k]
    whole += uu[k:].T @ a[k:]
    assert model.layers(grads)[-1][0].tobytes() == whole.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 5, 16, 64, 130])
def test_row_stacked_gemms_match_two_gemm_reference(k):
    """Wide output layer: stacked value and tangent rows give the bits of
    one GEMM each, in the tangent pass and through the seed buffer."""
    check_row_stacked_gemms(k, np.float64)


@pytest.mark.parametrize("k, hidden, height, width", [
    *(pytest.param(k, 256, 64, 64, id=str(k)) for k in (1, 2, 3, 5, 16, 64, 130)),
    # four equal row blocks of the output layer's gradient
    pytest.param(64, 512, 64, 64, id="64-hidden512"),
    # 4,095 pixels: blocks of 1,023 and 1,024 rows
    pytest.param(96, 512, 63, 65, id="96-hidden512-63x65"),
])
def test_row_stacked_gemms_match_two_gemm_reference_float32(k, hidden, height, width):
    """The same bit-for-bit agreement when the model computes in float32,
    also where backward splits the output layer's gradient into blocks."""
    if hidden == 512:
        sizes = [b.stop - b.start for b in _row_blocks(height * width, hidden, k)]
        assert sizes == ([1024] * 4 if height * width == 4096 else [1023, 1024, 1024, 1024])
    check_row_stacked_gemms(k, np.float32, hidden, height, width)


def test_float32_model_computes_in_float32(toy_model):
    """Frames, tangents, the cache and gradients of a float32 copy stay
    float32, and float64 seeds are narrowed first rather than widening
    the GEMMs."""
    twin = as_float32(toy_model)
    t = np.array([-0.4, 0.1, 0.8])
    frame, tangent, cache = twin.forward_with_tangent(t)
    assert frame.dtype == tangent.dtype == np.float32
    assert twin.forward(t).dtype == np.float32
    assert all(a.dtype == np.float32 for a in cache.inputs + cache.derivs)
    seeds = np.random.default_rng(6).standard_normal((2, 3, 4, 4)).astype(np.float32)
    grads = twin.backward(seeds, cache)
    assert grads.dtype == np.float32
    assert np.array_equal(twin.backward(seeds.astype(np.float64), cache), grads)


def test_float32_gradients_match_float64_within_float32_rounding():
    model = init_siren([1, 64, 64, 64, 256], seed=2, height=16, width=16)
    twin = as_float32(model)
    rng = np.random.default_rng(8)
    t = rng.uniform(-1.0, 1.0, 32)
    seeds = rng.standard_normal((2, 32, 16, 16))
    frame, tangent, _ = model.forward_with_tangent(t)
    frame32, tangent32, _ = twin.forward_with_tangent(t)
    assert np.allclose(frame32, frame, rtol=0, atol=1e-4 * np.abs(frame).max())
    assert np.allclose(tangent32, tangent, rtol=0, atol=1e-4 * np.abs(tangent).max())
    grads = backward_at(model, t, seeds)
    grads32 = backward_at(twin, t, seeds.astype(np.float32))
    for (gw, gb), (gw32, gb32) in zip(model.layers(grads), model.layers(grads32)):
        assert np.linalg.norm(gw32 - gw) <= 1e-4 * np.linalg.norm(gw)
        assert np.linalg.norm(gb32 - gb) <= 1e-4 * np.linalg.norm(gb)


def test_backward_takes_seeds_one_way(toy_model):
    _, _, cache = toy_model.forward_with_tangent(0.2)
    with pytest.raises(TypeError):
        toy_model.backward(np.zeros((2, 16)))  # the cache is required
    with pytest.raises(TypeError):
        toy_model.backward(np.zeros((2, 16)), cache, seeds=np.zeros((2, 16)))
    with pytest.raises(ShapeMismatch):
        toy_model.backward(np.zeros((1, 16)), cache)


def test_backward_zero_seeds_zero_gradients(toy_model):
    zeros = np.zeros((2, 1, 16))
    grads = backward_at(toy_model, 0.2, zeros)
    for g in grads:
        assert np.all(g == 0.0)


def test_backward_linear_in_frame_seed(toy_model):
    rng = np.random.default_rng(5)
    gy = rng.standard_normal((1, 16))
    seeds = np.stack([gy, np.zeros_like(gy)])
    g1 = backward_at(toy_model, 0.2, seeds)
    g2 = backward_at(toy_model, 0.2, 2.0 * seeds)
    for a, b in zip(g1, g2):
        assert np.allclose(b, 2.0 * a, rtol=1e-13, atol=0)


def test_backward_shape_guards(toy_model):
    with pytest.raises(ShapeMismatch):
        backward_at(toy_model, 0.2, np.zeros((2, 7)))
    with pytest.raises(ShapeMismatch):
        backward_at(toy_model, 0.2, np.zeros((3, 16)))


def test_output_bias_shift_moves_frame_not_tangent(toy_model):
    shifted = toy_model.copy()
    shifted.biases[-1][:] += 2.5
    f0, t0, _ = toy_model.forward_with_tangent(0.4)
    f1, t1, _ = shifted.forward_with_tangent(0.4)
    assert np.array_equal(f1, f0 + 2.5)
    assert np.array_equal(t0, t1)


def test_nonfinite_output_detected(toy_model):
    broken = toy_model.copy()
    broken.weights[-1][0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteOutput):
        broken.forward(0.0)


def test_tangent_rows_alone_overflowing_are_detected(toy_model):
    """At t_norm = 0 every sine argument is 0, so the frames stay finite
    while a huge first layer overflows the tangent rows."""
    broken = toy_model.copy()
    broken.weights[0][:] = 1e308
    assert all_finite(broken.forward(0.0))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteOutput):
        broken.forward_with_tangent(0.0)


@pytest.mark.parametrize("where", [0, 1])  # a frame seed, a tangent seed
def test_nan_seeds_give_a_nonfinite_gradient_error(toy_model, where):
    t = np.array([0.3, 0.7])
    seeds = np.ones((2, 2, 4, 4))
    seeds[where, 1, 2, 3] = np.nan
    with pytest.raises(NonFiniteGradient):
        backward_at(toy_model, t, seeds)


def test_invalid_architectures_rejected():
    with pytest.raises(InvalidArchitecture):
        init_siren([2, 8, 4], height=2, width=2)  # multi-input not supported
    with pytest.raises(InvalidArchitecture):
        init_siren([1], height=1, width=1)
    with pytest.raises(InvalidArchitecture):
        init_siren([1, 8, 4], omega0=-1.0, height=2, width=2)
    with pytest.raises(InvalidArchitecture):
        init_siren([1, 8, 5], height=2, width=2)
    for bad in [dict(omega0=np.nan), dict(omega0=np.inf), dict(t_domain=(0.0, np.inf)),
                dict(t_domain=(1.0, 0.0)), dict(t_domain=(0.0, 1.0, 2.0))]:
        with pytest.raises(InvalidArchitecture):
            init_siren([1, 8, 4], height=2, width=2, **bad)
    with pytest.raises(InvalidArchitecture):
        init_siren([1, 8, 4], height=-2, width=-2)
    with pytest.raises(InvalidArchitecture):
        init_siren([1, 8.5, 4], height=2, width=2)


def test_adam_single_step_closed_form():
    params = np.zeros(3)
    state = AdamState.for_params(params, lr=0.1)
    adam_step(state, params, np.ones(3))
    # bias-corrected m_hat = 1, v_hat = 1 -> step of -lr/(1 + eps)
    assert np.allclose(params, -0.1, atol=1e-8)


def test_adam_zero_gradient_is_noop():
    params = np.full(4, 1.5)
    state = AdamState.for_params(params, lr=0.1)
    adam_step(state, params, np.zeros(4))
    assert np.array_equal(params, np.full(4, 1.5))


def test_adam_lr_decays_every_ten_steps():
    params = np.zeros(1)
    state = AdamState.for_params(params, lr=1e-4, decay_rate=0.95, decay_every=10)
    for _ in range(10):
        adam_step(state, params, np.ones(1))
    assert state.lr == pytest.approx(1e-4 * 0.95)
    for _ in range(10):
        adam_step(state, params, np.ones(1))
    assert state.lr == pytest.approx(1e-4 * 0.95**2)


def test_adam_shape_guard():
    params = np.zeros(3)
    state = AdamState.for_params(params, lr=0.1)
    with pytest.raises(ShapeMismatch):
        adam_step(state, params, np.zeros(4))


def adam_reference(state, params, grads):
    """The textbook whole-vector Adam step, one expression per line."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads**2
    params = params - state.lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + ADAM_EPS)
    if state.decay_rate != 1.0 and state.step % state.decay_every == 0:
        state.lr *= state.decay_rate
    return params


@pytest.mark.parametrize("size", [BLOCK_PIXELS // 3, 2 * BLOCK_PIXELS, 2 * BLOCK_PIXELS + 1237])
def test_chunked_adam_matches_whole_vector_formula_bit_for_bit(size):
    rng = np.random.default_rng(size)
    params = rng.standard_normal(size)
    expected = params.copy()
    state = AdamState.for_params(params, lr=1e-2, decay_rate=0.9, decay_every=4)
    ref = AdamState.for_params(params, lr=1e-2, decay_rate=0.9, decay_every=4)
    for _ in range(13):
        grads = rng.standard_normal(size) * rng.uniform(0.1, 10.0)
        adam_step(state, params, grads)
        expected = adam_reference(ref, expected, grads)
        assert np.array_equal(params, expected)
        assert np.array_equal(state.m, ref.m) and np.array_equal(state.v, ref.v)
    assert state.lr == ref.lr == pytest.approx(1e-2 * 0.9**3)


def test_adam_keeps_float32():
    """float32 params, moments and gradients take float32 steps: the
    textbook update evaluated in float32, bit for bit."""
    rng = np.random.default_rng(9)
    size = BLOCK_PIXELS + 77
    params = rng.standard_normal(size).astype(np.float32)
    expected = params.copy()
    state = AdamState.for_params(params, lr=1e-3)
    ref = AdamState.for_params(params, lr=1e-3)
    for _ in range(3):
        grads = (1e-3 * rng.standard_normal(size)).astype(np.float32)
        adam_step(state, params, grads)
        expected = adam_reference(ref, expected, grads)
    assert params.dtype == state.m.dtype == state.v.dtype == expected.dtype == np.float32
    assert np.array_equal(params, expected)
    assert np.array_equal(state.m, ref.m) and np.array_equal(state.v, ref.v)


@pytest.mark.parametrize("dtype, grad_dtype, moment_dtype", [
    (np.float32, np.float64, np.float32),
    (np.float64, np.float32, np.float64),
    (np.float32, np.float32, np.float64),
])
def test_adam_rejects_mismatched_dtypes(dtype, grad_dtype, moment_dtype):
    params = np.ones(10, dtype=dtype)
    state = AdamState.for_params(np.ones(10, dtype=moment_dtype), lr=1e-3)
    with pytest.raises(DtypeMismatch):
        adam_step(state, params, np.ones(10, dtype=grad_dtype))
    assert state.step == 0 and np.all(params == 1.0) and not np.any(state.m)


def test_checkpoint_roundtrip_bit_exact(tmp_path, toy_model):
    path = tmp_path / "model.npz"
    save_checkpoint(toy_model, path)
    back = load_checkpoint(path)
    assert back.layer_sizes == toy_model.layer_sizes
    assert back.omega0 == toy_model.omega0
    assert back.t_domain == toy_model.t_domain
    assert (back.height, back.width) == (toy_model.height, toy_model.width)
    assert np.array_equal(back.params, toy_model.params)
    t = np.linspace(-1, 1, 5)
    assert np.array_equal(back.forward(t), toy_model.forward(t))


# -- parameter layout -----------------------------------------------------------


def test_weights_and_biases_cannot_be_replaced(toy_model):
    with pytest.raises(TypeError):
        toy_model.weights[0] = np.zeros_like(toy_model.weights[0])
    with pytest.raises(TypeError):
        toy_model.biases[-1] = np.zeros_like(toy_model.biases[-1])


def test_write_through_weight_view_changes_params_and_output(toy_model):
    params_before = toy_model.params.copy()
    frame_before = toy_model.forward(0.3)
    toy_model.weights[-1][0, 0] += 1.0
    changed = np.flatnonzero(toy_model.params != params_before)
    assert len(changed) == 1
    assert toy_model.params[changed[0]] == toy_model.weights[-1][0, 0]
    assert not np.array_equal(toy_model.forward(0.3), frame_before)


def test_backward_returns_vector_shaped_like_params(toy_model):
    grads = backward_at(toy_model, 0.2, np.ones((2, 16)))
    assert grads.shape == toy_model.params.shape == (toy_model.params.size,)


def test_copy_shares_no_memory(toy_model):
    other = toy_model.copy()
    assert np.array_equal(other.params, toy_model.params)
    assert not np.shares_memory(other.params, toy_model.params)
    other.weights[0][:] = 0.0
    assert np.any(toy_model.weights[0] != 0.0)


def handmade_checkpoint(path, version=1, drop=None, truncate=None, dtypes=None, meta=None):
    """An npz written without save_checkpoint, in its documented layout:
    metadata plus float64 w{i} of shape (n_out, n_in) and b{i} of shape
    (n_out,), or of the dtype `dtypes` gives by name; `meta` replaces
    metadata arrays by name. Returns the arrays written."""
    sizes = [1, 3, 2]
    arrays = {
        "version": np.asarray(version),
        "layer_sizes": np.asarray(sizes),
        "omega0": np.asarray(30.0),
        "t_domain": np.asarray([0.0, 2.0]),
        "height": np.asarray(1),
        "width": np.asarray(2),
    }
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        arrays[f"w{i}"] = 10.0 * i + np.arange(n_out * n_in).reshape(n_out, n_in)
        arrays[f"b{i}"] = -10.0 * i - np.arange(1.0, n_out + 1)
    if truncate is not None:
        arrays[truncate] = arrays[truncate][:-1]
    for name, dtype in (dtypes or {}).items():
        arrays[name] = arrays[name].astype(dtype)
    for name, value in (meta or {}).items():
        arrays[name] = np.asarray(value)
    arrays.pop(drop, None)
    np.savez(path, **arrays)
    return arrays


def test_handmade_checkpoint_loads_in_w0_b0_w1_b1_order(tmp_path):
    path = tmp_path / "hand.npz"
    a = handmade_checkpoint(path)
    model = load_checkpoint(path)
    expected = np.concatenate([a["w0"].ravel(), a["b0"], a["w1"].ravel(), a["b1"]])
    assert np.array_equal(model.params, expected)
    assert np.array_equal(model.weights[1], a["w1"])
    assert (model.layer_sizes, model.t_domain, model.height, model.width) == (
        [1, 3, 2], (0.0, 2.0), 1, 2)


@pytest.mark.parametrize("broken", [{"version": 2}, {"drop": "b1"}, {"truncate": "w0"},
                                    {"truncate": "b1"},
                                    {"dtypes": dict.fromkeys(["w0", "b0", "w1", "b1"], np.int64)},
                                    {"dtypes": {"w1": np.float32}},
                                    {"meta": {"t_domain": [0.0, np.inf]}},
                                    {"meta": {"t_domain": [1.0, 0.0]}},
                                    {"meta": {"t_domain": [0.0, 1.0, 2.0]}},
                                    {"meta": {"omega0": np.nan}},
                                    {"meta": {"omega0": np.inf}},
                                    {"meta": {"height": -1, "width": -2}},
                                    {"meta": {"height": np.inf}},
                                    {"meta": {"height": 1.5}}, {"meta": {"width": 2.7}},
                                    {"meta": {"layer_sizes": [1.5, 3, 2]}},
                                    {"meta": {"version": [1, 1]}}])
def test_bad_checkpoint_raises_typed_error_at_load(tmp_path, broken):
    path = tmp_path / "bad.npz"
    handmade_checkpoint(path, **broken)
    with pytest.raises(InvalidCheckpoint) as exc:
        load_checkpoint(path)
    assert isinstance(exc.value, EvreconError)
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("damage", ["truncate", "text", "empty", "npy"])
def test_unreadable_checkpoint_raises_typed_error(tmp_path, toy_model, damage):
    path = tmp_path / "partition_000.npz"
    save_checkpoint(toy_model, path)
    if damage == "truncate":
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
    elif damage == "text":
        path.write_text("not a checkpoint\n")
    elif damage == "empty":
        path.write_bytes(b"")
    else:
        with open(path, "wb") as fh:
            np.save(fh, toy_model.params)
    with pytest.raises(InvalidCheckpoint) as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)
