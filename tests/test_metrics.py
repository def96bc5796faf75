import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.ndimage import correlate1d

from evrecon.errors import NotEightBit, ShapeMismatch, TooSmall
from evrecon.metrics import (
    BLOCK_PIXELS,
    CLAHE_ENTRIES,
    _gaussian_taps,
    _window_mean,
    blocks,
    clahe,
    evaluate_frames,
    frame_blocks,
    mse,
    ssim,
)

from clahe_oracle import zuiderveld_clahe
from conftest import traced_peak
from metrics_reference import clahe_frame, evaluate_frame_by_frame, ssim_frame


# -- mse ----------------------------------------------------------------------


def test_mse_reference_values():
    z = np.zeros((8, 8))
    assert mse(z, z) == 0.0
    assert mse(z, np.ones((8, 8))) == 1.0
    assert mse(z, np.full((8, 8), 0.5)) == 0.25


def test_mse_shape_guard():
    with pytest.raises(ShapeMismatch):
        mse(np.zeros((4, 4)), np.zeros((4, 5)))


@given(
    hnp.arrays(np.float64, (6, 7), elements=st.floats(0, 1)),
    hnp.arrays(np.float64, (6, 7), elements=st.floats(0, 1)),
    st.floats(min_value=0.1, max_value=3.0),
)
@settings(deadline=None, max_examples=40)
def test_mse_symmetry_and_scaling(a, b, alpha):
    assert mse(a, b) == mse(b, a)
    assert mse(alpha * a, alpha * b) == pytest.approx(alpha**2 * mse(a, b), rel=1e-12)
    assert mse(a, a) == 0.0


# -- ssim ---------------------------------------------------------------------


def test_ssim_identical_is_one():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, (1, 32, 32))
    assert abs(ssim(img, img)[0] - 1.0) < 1e-9


def test_ssim_constant_frames_closed_form():
    a, b = 0.3, 0.8
    c1 = 0.01**2
    expected = (2 * a * b + c1) / (a * a + b * b + c1)
    got = ssim(np.full((1, 16, 16), a), np.full((1, 16, 16), b))
    assert abs(got[0] - expected) < 1e-9


def test_ssim_inverted_texture_negative():
    yy, xx = np.mgrid[0:24, 0:24]
    ref = 0.5 + 0.45 * np.sign(np.sin(xx * 1.3) * np.sin(yy * 1.1))[None]
    pred = 1.0 - ref
    assert ssim(pred, ref)[0] < 0.0


def test_ssim_symmetric():
    rng = np.random.default_rng(1)
    a = rng.uniform(0, 1, (1, 20, 20))
    b = rng.uniform(0, 1, (1, 20, 20))
    assert ssim(a, b)[0] == pytest.approx(ssim(b, a)[0], abs=1e-15)


def test_ssim_range_and_guards():
    rng = np.random.default_rng(2)
    a = rng.uniform(0, 1, (1, 16, 16))
    b = rng.uniform(0, 1, (1, 16, 16))
    assert -1.0 <= ssim(a, b)[0] <= 1.0
    with pytest.raises(TooSmall):
        ssim(np.zeros((1, 8, 8)), np.zeros((1, 8, 8)))
    with pytest.raises(ShapeMismatch):
        ssim(np.zeros((1, 16, 16)), np.zeros((1, 16, 17)))
    with pytest.raises(ShapeMismatch, match="need at least one frame"):
        ssim(np.zeros((0, 16, 16)), np.zeros((0, 16, 16)))


def test_ssim_matches_skimage_oracle():
    skimage = pytest.importorskip("skimage.metrics")
    rng = np.random.default_rng(3)
    for shape in [(16, 16), (32, 48), (64, 64)]:
        a = rng.uniform(0, 1, shape)
        b = np.clip(a + rng.normal(0, 0.1, shape), 0, 1)
        want = skimage.structural_similarity(
            a, b, data_range=1.0, gaussian_weights=True, sigma=1.5,
            use_sample_covariance=False, win_size=11,
        )
        assert ssim(a[None], b[None])[0] == pytest.approx(want, abs=1e-9)


def _window_values(rng, kind, shape):
    """Values as SSIM filters them: uniform in [0, 1] or 8-bit levels / 255."""
    if kind == "uniform":
        return rng.uniform(0, 1, shape)
    return rng.integers(0, 256, shape) / 255.0


@given(st.integers(1, 3),
       st.one_of(st.tuples(st.integers(11, 70), st.integers(11, 70)), st.just((181, 183))),
       st.lists(st.sampled_from(["uniform", "levels"]), min_size=1, max_size=2),
       st.integers(0, 2**32 - 1))
@example(3, (181, 183), ["uniform", "levels"], 0)
@settings(deadline=None, max_examples=60)
def test_window_mean_is_scipys_correlate1d_bit_for_bit(n, side, factors, seed):
    """The numpy filter gives the bytes of scipy's, cropped to the valid
    windows, on values and on products of two stacks of values."""
    rng = np.random.default_rng(seed)
    stack = np.prod([_window_values(rng, kind, (n, *side)) for kind in factors], axis=0)
    radius = 5
    taps = _gaussian_taps(radius, 1.5)
    want = correlate1d(stack, taps, axis=1, mode="constant")
    want = correlate1d(want, taps, axis=2, mode="constant")[:, radius:-radius, radius:-radius]
    got = _window_mean(stack, taps, radius)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- clahe ----------------------------------------------------------------------


@pytest.mark.parametrize("value", [0, 1, 127, 128, 254, 255])
def test_clahe_uniform_frame_nearly_identity(value):
    img = np.full((1, 64, 64), value, dtype=np.uint8)
    out = clahe(img)
    assert np.abs(out.astype(int) - int(value)).max() <= 1


def test_clahe_output_range_and_type():
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, (1, 50, 70)).astype(np.uint8)
    out = clahe(img)
    assert out.dtype == np.uint8
    assert out.shape == img.shape


def test_clahe_stretches_low_contrast_ramp():
    ramp = np.tile(np.linspace(100, 140, 64).astype(np.uint8), (1, 64, 1))
    out = clahe(ramp)
    assert out.astype(float).std() > ramp.astype(float).std()


def test_clahe_nearly_idempotent_on_ramp():
    # Idempotence belongs to histogram equalization, i.e. CLAHE with one tile
    # and a clip limit that cannot bind. A binding clip bounds how far one
    # pass stretches a low-contrast frame, so each later pass stretches it
    # again, and the bilinear LUT blend ripples a monotone ramp. At the
    # default 8x8 tiles and clip_limit=2.0 the Zuiderveld oracle moves 100%
    # of this ramp's pixels by more than one level on the second pass
    # (clahe: 42%), so the default grid is not asserted idempotent here.
    ramp = np.tile(np.linspace(100, 140, 64).astype(np.uint8), (1, 64, 1))
    for equalize in (clahe, lambda f, **kw: zuiderveld_clahe(f[0], **kw)[None]):
        once = equalize(ramp, tiles=(1, 1), clip_limit=256.0)
        twice = equalize(once, tiles=(1, 1), clip_limit=256.0)
        changed = np.abs(twice.astype(int) - once.astype(int)) > 1
        assert changed.mean() < 0.02, equalize

    # At the default grid, tiles with flat histograms are a fixed point: each
    # 16x16 tile of this 128x128 frame is a permutation of 0..255.
    rows = np.random.default_rng(8).permuted(np.tile(np.arange(256, dtype=np.uint8), (64, 1)), axis=1)
    flat = rows.reshape(8, 8, 16, 16).transpose(0, 2, 1, 3).reshape(1, 128, 128)
    assert np.array_equal(clahe(flat), flat)


def test_clahe_deterministic():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, (1, 48, 48)).astype(np.uint8)
    assert np.array_equal(clahe(img), clahe(img))


def test_clahe_handles_non_divisible_sizes():
    rng = np.random.default_rng(6)
    img = rng.integers(0, 256, (1, 37, 53)).astype(np.uint8)
    out = clahe(img)
    assert out.shape == (1, 37, 53)


# -- evaluate_frames -----------------------------------------------------------


def test_evaluate_frames_report():
    rng = np.random.default_rng(7)
    ref = rng.integers(0, 256, (3, 32, 32)).astype(np.uint8)
    noisy = np.clip(ref.astype(int) + rng.integers(-10, 10, ref.shape), 0, 255).astype(np.uint8)
    report = evaluate_frames(noisy, ref)
    assert report.num_frames == 3
    assert report.mean_mse >= 0.0
    assert -1.0 <= report.mean_ssim <= 1.0
    ident = evaluate_frames(ref, ref, apply_clahe=False)
    assert ident.mean_mse == 0.0
    assert ident.mean_ssim == pytest.approx(1.0, abs=1e-9)


def test_evaluate_frames_shape_guard():
    with pytest.raises(ShapeMismatch):
        evaluate_frames(np.zeros((2, 16, 16), np.uint8), np.zeros((3, 16, 16), np.uint8))
    with pytest.raises(ShapeMismatch, match="need at least one frame"):
        evaluate_frames(np.zeros((0, 16, 16), np.uint8), np.zeros((0, 16, 16), np.uint8))


# -- frame stacks against the frame-at-a-time oracle ---------------------------


def _assert_blocks_match_oracle(pred, ref, tiles=(8, 8), clip_limit=2.0):
    got = clahe(pred, tiles, clip_limit)
    assert got.dtype == np.uint8
    assert np.array_equal(got, np.stack([clahe_frame(f, tiles, clip_limit) for f in pred]))
    assert np.array_equal(clahe(pred[:1], tiles, clip_limit), got[:1])
    a, b = pred / 255.0, ref / 255.0
    scores = ssim(a, b)
    assert scores.shape == (len(pred),)
    assert scores.tolist() == [ssim_frame(x, y) for x, y in zip(a, b)]
    assert ssim(a[:1], b[:1]).tolist() == scores[:1].tolist()
    for apply_clahe in (True, False):
        report = evaluate_frames(pred, ref, apply_clahe=apply_clahe)
        mses, ssims = evaluate_frame_by_frame(pred, ref, apply_clahe)
        assert report.mse_per_frame == mses
        assert report.ssim_per_frame == ssims


@st.composite
def frame_pairs(draw):
    n = draw(st.integers(1, 5))
    h = draw(st.integers(11, 40))
    w = draw(st.integers(11, 40))
    lo = draw(st.integers(0, 255))
    hi = draw(st.integers(lo, 255))
    levels = st.integers(lo, hi)
    pred = draw(hnp.arrays(np.uint8, (n, h, w), elements=levels))
    ref = draw(hnp.arrays(np.uint8, (n, h, w), elements=levels))
    return pred, ref


@given(frame_pairs(), st.sampled_from([(8, 8), (1, 1), (3, 5), (4, 2)]),
       st.sampled_from([2.0, 0.5, 1.3, 256.0]), st.integers(0, 2), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_stacks_match_the_frame_at_a_time_oracle_bit_for_bit(pair, tiles, clip_limit, chunks,
                                                             seed):
    """The drawn pair is scored against the oracle; then the drawn frames
    follow `chunks` whole `clahe` chunks of random frames, so the stack
    spans up to three chunks and its last chunk may be partial."""
    pred, ref = pair
    _assert_blocks_match_oracle(pred, ref, tiles=tiles, clip_limit=clip_limit)
    n, h, w = pred.shape
    per_chunk = max(1, CLAHE_ENTRIES // max(tiles[0] * tiles[1] * 256, h * w))
    ahead = np.random.default_rng(seed).integers(0, 256, (chunks * per_chunk, h, w))
    stack = np.concatenate([ahead.astype(np.uint8), pred])
    want = np.stack([clahe_frame(f, tiles, clip_limit) for f in stack])
    assert np.array_equal(clahe(stack, tiles, clip_limit), want)


# The workloads' frames, 32x32, 64x64 and 128x128, and 16x16 frames, whose
# 8x8 tiles of 4 pixels hold 64 LUT entries per pixel.
@pytest.mark.parametrize("shape", [(1, 32, 32), (1, 11, 11), (3, 37, 53), (2, 11, 40),
                                   (2, 64, 64), (1, 128, 128), (5, 16, 16)])
def test_stacks_match_the_oracle_on_edge_sizes(shape):
    rng = np.random.default_rng(9)
    pred = rng.integers(0, 256, shape).astype(np.uint8)
    ref = np.clip(pred.astype(int) + rng.integers(-30, 30, shape), 0, 255).astype(np.uint8)
    _assert_blocks_match_oracle(pred, ref)


def test_stacks_longer_than_one_block_match_the_oracle():
    # 64x64 frames: a block holds BLOCK_PIXELS // 4096 of them, and the
    # stack ends in a partial block.
    per_block = BLOCK_PIXELS // (64 * 64)
    rng = np.random.default_rng(10)
    pred = rng.integers(60, 200, (2 * per_block + 3, 64, 64)).astype(np.uint8)
    ref = rng.integers(0, 256, pred.shape).astype(np.uint8)
    assert len(frame_blocks(pred)) == 3
    _assert_blocks_match_oracle(pred, ref)


def test_clahe_of_a_long_stack_traces_a_few_chunks():
    """The histogram and LUT arrays of 128 frames of 32x32 under 8x8 tiles
    hold 16 entries per pixel; equalized all at once they traced 68.5 MB."""
    frames = np.random.default_rng(13).integers(0, 256, (128, 32, 32)).astype(np.uint8)
    out, peak = traced_peak(clahe, frames)
    assert np.array_equal(out[-3:], clahe(frames[-3:]))
    assert peak < 5 << 20


@pytest.mark.parametrize("value", [0, 255])
def test_flat_stacks_match_the_oracle(value):
    pred = np.full((3, 24, 24), value, dtype=np.uint8)
    ref = np.full((3, 24, 24), 255 - value, dtype=np.uint8)
    _assert_blocks_match_oracle(pred, ref)
    _assert_blocks_match_oracle(pred, pred)


def test_one_tile_with_a_clip_that_cannot_bind_matches_the_oracle():
    rng = np.random.default_rng(11)
    pred = rng.integers(90, 150, (4, 37, 53)).astype(np.uint8)
    ref = rng.integers(0, 256, pred.shape).astype(np.uint8)
    _assert_blocks_match_oracle(pred, ref, tiles=(1, 1), clip_limit=256.0)


# Block bounds of the shapes below that training's loss passes meet: tiny
# frames, a quarter of the budget per frame, one pixel over the budget.
EXACT_BOUNDS = {
    (5, 2, 2): [(0, 5)],
    (9, 64, BLOCK_PIXELS // 256): [(0, 4), (4, 8), (8, 9)],
    (3, 1, BLOCK_PIXELS + 1): [(0, 1), (1, 2), (2, 3)],
}


@pytest.mark.parametrize("shape", [(1, 5, 5), (7, 37, 53), (300, 11, 11), (2, 128, 128),
                                   (0, 32, 32), *EXACT_BOUNDS])
def test_frame_blocks_cover_the_stack_in_order_within_the_budget(shape):
    """frame_blocks, then `blocks` at the cost and budget of clahe's chunks
    under 8x8 tiles and at Adam's cost of one element per item."""
    n, h, w = shape
    slices = frame_blocks(np.zeros(shape, dtype=np.uint8))
    if shape in EXACT_BOUNDS:
        assert [(b.start, b.stop) for b in slices] == EXACT_BOUNDS[shape]
    clahe_cost = max(8 * 8 * 256, h * w)
    for got, count, cost, budget in [
        (slices, n, h * w, BLOCK_PIXELS),
        (blocks(n, clahe_cost, CLAHE_ENTRIES), n, clahe_cost, CLAHE_ENTRIES),
        (blocks(n * h * w, 1), n * h * w, 1, BLOCK_PIXELS),
    ]:
        assert [k for b in got for k in range(b.start, b.stop)] == list(range(count))
        for b in got:
            assert b.stop - b.start >= 1
            assert (b.stop - b.start) * cost <= budget or b.stop - b.start == 1
        for b in got[:-1]:  # every block but the last holds as many items as fit
            assert b.stop - b.start == max(1, budget // cost)


@pytest.mark.parametrize("frames", [np.zeros((1, 8, 8), np.float64), np.full((1, 8, 8), 256),
                                    np.full((2, 8, 8), -1)])
def test_clahe_rejects_frames_that_are_not_8_bit(frames):
    with pytest.raises(NotEightBit):
        clahe(frames)


@pytest.mark.parametrize("shape", [(64,), (16, 16), (1, 2, 16, 16)])
def test_clahe_and_ssim_reject_other_dimensions(shape):
    with pytest.raises(ShapeMismatch, match=r"\(N, H, W\)"):
        clahe(np.zeros(shape, np.uint8))
    with pytest.raises(ShapeMismatch, match=r"\(N, H, W\)"):
        ssim(np.zeros(shape), np.zeros(shape))


def test_clahe_accepts_8_bit_values_of_a_wider_integer_type():
    rng = np.random.default_rng(12)
    frames = rng.integers(0, 256, (2, 16, 16))
    assert np.array_equal(clahe(frames), clahe(frames.astype(np.uint8)))
