import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evrecon.errors import (
    EvreconError,
    InvalidTimestamps,
    NonFiniteFrames,
    NonPositiveSetting,
    ShapeMismatch,
    TimeOutOfRange,
)
from evrecon import reconstruct
from evrecon.events import read_times, write_times
from evrecon.metrics import BLOCK_PIXELS
from evrecon.reconstruct import (
    LogVideo,
    anchor_offset,
    enhance_events,
    enhancement_to_bytes,
    reinhard,
    sample_video,
    tone_map,
)
from evrecon.siren import init_siren
from evrecon.training import Partition


def one_partition(seed=3, t_domain=(0.0, 1.0)):
    model = init_siren([1, 8, 8, 8, 16], seed=seed, height=4, width=4, t_domain=t_domain)
    return Partition(index=0, span=t_domain, model=model)


def two_partitions(offset=0.0, overlap=0.5):
    """Same network in both slots, second shifted by a constant output
    offset; overlap window centered on t = 1.0."""
    half = overlap / 2.0
    m0 = init_siren([1, 8, 8, 8, 16], seed=3, height=4, width=4, t_domain=(0.0, 1.0 + half))
    m1 = m0.copy()
    m1.t_domain = (0.0, 1.0 + half)  # identical input map so outputs agree
    m1.biases[-1][:] += offset
    p0 = Partition(index=0, span=(0.0, 1.0 + half), model=m0)
    p1 = Partition(index=1, span=(1.0 - half, 2.0), model=m1)
    # second model must answer over [1-half, 2]; reuse domain covering both
    m1.t_domain = (0.0, 1.0 + half)
    return p0, p1


def chain(n=3, overlap=0.5, same_network=False):
    """n partitions with spans reaching half the overlap past each interior
    core edge 1..n-1, as build_partitions lays them out. With
    same_network, every partition runs one network over one time map,
    plus an output offset of 0.7 * i."""
    half = overlap / 2.0
    parts = []
    for i in range(n):
        span = (max(i - half, 0.0), min(i + 1 + half, float(n)))
        if same_network:
            model = init_siren([1, 8, 8, 8, 16], seed=3, height=4, width=4,
                               t_domain=(0.0, float(n)))
            model.biases[-1][:] += 0.7 * i
        else:
            model = init_siren([1, 8, 8, 8, 16], seed=3 + i, height=4, width=4, t_domain=span)
        parts.append(Partition(index=i, span=span, model=model))
    return parts


def rate(p, t):
    """Per-second derivative of one partition alone at the given times."""
    _, tan, _ = p.model.forward_with_tangent(p.model.normalize_time(np.asarray(t)))
    return tan * p.model.time_slope


def test_overlap_ends_blend_with_weights_zero_and_one():
    p0, p1, _ = parts = chain()
    lo, hi = p1.span[0], p0.span[1]  # overlap [0.75, 1.25]
    assert np.array_equal(enhance_events(parts, [lo], 1.0), rate(p0, [lo]))
    assert np.array_equal(enhance_events(parts, [hi], 1.0), rate(p1, [hi]))
    mid = 0.5 * (lo + hi)
    assert np.allclose(enhance_events(parts, [mid], 1.0),
                       0.5 * rate(p0, [mid]) + 0.5 * rate(p1, [mid]), rtol=1e-12, atol=0)


def test_zero_overlap_core_edge_goes_to_later_partition():
    p0, p1, p2 = parts = chain(overlap=0.0)
    for edge, later in ((1.0, p1), (2.0, p2)):
        expect = later.model.forward(later.model.normalize_time(np.asarray([edge])))
        assert np.array_equal(sample_video(parts, [edge]).frames, expect)
        assert np.array_equal(enhance_events(parts, [edge], 1.0), rate(later, [edge]))


def test_three_partitions_stitch_across_both_overlaps():
    parts = chain(same_network=True)
    times = np.linspace(0.0, 3.0, 121)
    base = parts[0].model.forward(parts[0].model.normalize_time(times))
    assert np.allclose(sample_video(parts, times).frames, base, atol=1e-10)

    parts = chain()
    grids = enhance_events(parts, times, 1.0)
    for t, grid in zip(times, grids):
        owners = [p for p in parts if p.span[0] <= t <= p.span[1]]
        if len(owners) == 1:
            expect = rate(owners[0], [t])[0]
        else:
            a, b = owners
            u = (t - b.span[0]) / (a.span[1] - b.span[0])
            expect = (1.0 - u) * rate(a, [t])[0] + u * rate(b, [t])[0]
        assert np.allclose(grid, expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max())


@pytest.mark.parametrize("bad", [np.nan, -0.01, 3.01])
def test_nan_and_out_of_window_times_are_rejected(bad):
    parts = chain()
    with pytest.raises(TimeOutOfRange):
        sample_video(parts, [0.5, bad])
    with pytest.raises(TimeOutOfRange):
        enhance_events(parts, [bad, 2.5], 1.0)


def test_single_partition_equals_forward():
    p = one_partition()
    times = np.linspace(0.0, 1.0, 9)
    video = sample_video([p], times)
    direct = p.model.forward(p.model.normalize_time(times))
    assert np.array_equal(video.frames, direct)


def test_out_of_range_time_rejected():
    p = one_partition()
    with pytest.raises(TimeOutOfRange):
        sample_video([p], [1.5])
    with pytest.raises(TimeOutOfRange):
        sample_video([p], [-0.1])


def test_crossfade_center_is_even_blend():
    # models differing by a constant: after offset alignment the blend is
    # seamless, so any crossfade weight gives the first model's output
    p0, p1 = two_partitions(offset=2.0)
    t_center = 1.0  # center of overlap [0.75, 1.25]
    video = sample_video([p0, p1], [t_center])
    base = p0.model.forward(p0.model.normalize_time(np.asarray([t_center])))
    assert np.allclose(video.frames, base, atol=1e-12)


def test_constant_offset_models_have_zero_seam():
    p0, p1 = two_partitions(offset=3.7)
    times = np.linspace(0.0, 2.0, 401)
    video = sample_video([p0, p1], times)
    base = p0.model.forward(p0.model.normalize_time(times))
    assert np.allclose(video.frames, base, atol=1e-10)


def test_sample_accepts_times_read_from_a_file(tmp_path):
    p = one_partition()
    write_times(tmp_path / "times.txt", np.linspace(0.0, 1.0, 5))
    video = sample_video([p], read_times(tmp_path / "times.txt"))
    assert len(video.frames) == 5


def test_anchor_constant_video_to_zero():
    video = LogVideo(np.full((3, 4, 4), 3.7), np.arange(3.0))
    anchored = anchor_offset(video)
    assert np.all(anchored.frames == 0.0)


def test_anchor_idempotent():
    rng = np.random.default_rng(0)
    video = LogVideo(rng.standard_normal((5, 5, 5)), np.arange(5.0))
    once = anchor_offset(video)
    before = once.frames.copy()  # anchoring shifts in place and returns its input
    twice = anchor_offset(once)
    assert np.array_equal(before, twice.frames)
    assert np.median(twice.frames) == 0.0


def median_input(kind: str, n: int, rng) -> np.ndarray:
    """n finite values of one family that the median search must get
    exactly right."""
    if kind == "normal":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5)
    if kind == "ties":  # a few values, each many times
        return rng.choice(rng.standard_normal(int(rng.integers(1, 4))), n)
    if kind == "signed zeros":
        return rng.choice([-0.0, 0.0, 5e-324, -1.0, 2.0], n)
    if kind == "subnormal":
        return rng.integers(-40, 40, n) * 5e-324
    if kind == "huge":  # near the float64 limits, where sums overflow
        return rng.choice([-1.7976931348623157e308, -1e308, 1e308, 1.7976931348623157e308,
                           0.0, 1.0], n)
    return np.full(n, rng.standard_normal())  # all equal


@given(st.sampled_from(["normal", "ties", "signed zeros", "subnormal", "huge", "equal"]),
       st.sampled_from([(1, 1, 1), (1, 1, 2), (2, 1, 1), (3, 3, 5), (4, 3, 5), (5, 64, 64),
                        (8, 64, 64), (3, 181, 183)]),
       st.sampled_from([1, 64, BLOCK_PIXELS]), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=120)
def test_anchor_shifts_by_exactly_numpys_median(kind, shape, gather_max, seed):
    """Odd and even sizes, one element, two values, heavy ties, signed
    zeros, subnormals and values near +-1e308, with the median's bin
    gathered at several sizes (1 resolves every key bit by counting).
    Only the sign of a zero median is left to np.median's partition order,
    so a zero median is compared by value."""
    frames = median_input(kind, int(np.prod(shape)), np.random.default_rng(seed)).reshape(shape)
    with np.errstate(over="ignore", invalid="ignore"):  # as anchor_offset allows and checks
        median = np.median(frames)
        want = frames - median
    video = LogVideo(frames.copy(), np.arange(float(shape[0])))
    with mock.patch.object(reconstruct, "_GATHER_MAX", gather_max):
        if not np.all(np.isfinite(want)):
            with pytest.raises(NonFiniteFrames):
                anchor_offset(video)
            return
        anchored = anchor_offset(video)
    assert anchored is video
    if median == 0.0:
        assert np.array_equal(anchored.frames, want)
    else:
        assert anchored.frames.tobytes() == want.tobytes()


def test_anchor_returns_an_empty_video_as_it_is():
    video = LogVideo(np.zeros((2, 0, 3)), np.arange(2.0))
    assert anchor_offset(video) is video


def test_anchoring_past_the_float64_range_is_nonfinite_frames():
    video = LogVideo(np.array([-1e308, 1e308, 1e308]).reshape(3, 1, 1), np.arange(3.0))
    with pytest.raises(NonFiniteFrames, match="overflows"):
        anchor_offset(video)


def test_tone_map_reference_bytes():
    video = LogVideo(np.zeros((1, 2, 2)), [0.0])
    assert tone_map(video, gamma=1.0)[0, 0, 0] == 128
    assert tone_map(video, gamma=0.6)[0, 0, 0] == 168


def test_anchored_constant_video_tone_maps_to_mid_tone():
    video = anchor_offset(LogVideo(np.full((2, 3, 3), 3.7), np.arange(2.0)))
    bytes_ = tone_map(video, gamma=0.6)
    assert np.all(bytes_ == round(0.5**0.6 * 255))


def test_tone_map_dark_limit():
    video = LogVideo(np.full((1, 2, 2), -60.0), [0.0])
    assert np.all(tone_map(video) == 0)


def test_tone_map_monotone():
    ramp = np.linspace(-60.0, 60.0, 10_000)
    video = LogVideo(ramp[:, None, None], np.arange(10_000.0))
    out = tone_map(video, 0.6).reshape(-1).astype(np.int64)
    assert np.all(np.diff(out) >= 0)
    assert out[0] == 0 and out[-1] == 255


def test_overflowing_intensities_come_out_white():
    """exp(800) overflows to inf, which reinhard maps to 1.0 (byte 255),
    with no floating-point warning; the other bytes are unchanged."""
    video = LogVideo(np.array([[[800.0, 5.0], [-800.0, 0.0]]]), np.array([0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bytes_ = tone_map(video)
        assert reinhard(np.array([np.inf, 2.0**53, 1.0]), 1.0).tolist() == [1.0, 1.0, 0.5]
    assert bytes_.tolist() == [[[255, 254], [0, 168]]]


@pytest.mark.parametrize("make, error", [
    (lambda: LogVideo(np.zeros((2, 3)), [0.0, 1.0]), ShapeMismatch),
    (lambda: LogVideo(np.zeros((2, 3, 3)), [0.0]), ShapeMismatch),
    (lambda: LogVideo(np.zeros((2, 3, 3)), [1.0, 1.0]), InvalidTimestamps),
    (lambda: LogVideo(np.full((1, 2, 2), np.nan), [0.0]), NonFiniteFrames),
    (lambda: LogVideo(np.full((1, 2, 2), -np.inf), [0.0]), NonFiniteFrames),
    (lambda: tone_map(LogVideo(np.zeros((1, 2, 2)), [0.0]), gamma=0.0), NonPositiveSetting),
    (lambda: tone_map(LogVideo(np.zeros((1, 2, 2)), [0.0]), gamma=float("nan")),
     NonPositiveSetting),
    (lambda: enhance_events([one_partition()], [0.5], -1.0), NonPositiveSetting),
])
def test_output_errors_are_typed_value_errors(make, error):
    with pytest.raises(error) as info:
        make()
    assert isinstance(info.value, EvreconError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("times, index", [([0.5, 0.25, 0.75], 1), ([0.0, 0.5, 0.5], 2)])
def test_sample_times_must_strictly_increase(times, index):
    parts = chain()
    for sample in (lambda: sample_video(parts, times), lambda: enhance_events(parts, times, 1.0)):
        with pytest.raises(InvalidTimestamps) as info:
            sample()
        assert info.value.index == index


def test_enhance_linear_in_window():
    p = one_partition()
    times = np.linspace(0.0, 1.0, 7)
    a = enhance_events([p], times, window_dt=0.005)
    b = enhance_events([p], times, window_dt=0.010)
    assert np.array_equal(b, 2.0 * a)
    with pytest.raises(ValueError):
        enhance_events([p], times, window_dt=0.0)


def test_enhance_constant_model_is_zero():
    p = one_partition()
    p.model.weights[-1][:] = 0.0
    p.model.biases[-1][:] = 1.23  # constant output, zero derivative
    grids = enhance_events([p], np.linspace(0.0, 1.0, 5), window_dt=0.01)
    assert np.all(grids == 0.0)


def test_enhance_uses_per_second_tangent():
    p = one_partition(t_domain=(0.0, 4.0))  # slope = 0.5
    t = np.asarray([1.0])
    _, tan, _ = p.model.forward_with_tangent(p.model.normalize_time(t))
    grids = enhance_events([p], t, window_dt=0.01)
    assert np.allclose(grids[0], tan * p.model.time_slope * 0.01)


def test_enhancement_bytes_midgray_zero():
    grids = np.zeros((1, 2, 2))
    assert np.all(enhancement_to_bytes(grids) == 128)
    signed = np.array([[[-1.0, 0.0], [0.5, 1.0]]])
    out = enhancement_to_bytes(signed, scale=1.0)
    assert out[0, 0, 0] == 0 and out[0, 1, 1] == 255 and out[0, 0, 1] == 128
