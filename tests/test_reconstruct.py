import warnings

import numpy as np
import pytest

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
from evrecon.reconstruct import (
    LogVideo,
    anchor_offset,
    enhance_events,
    enhancement_scale,
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


def constant_run(levels, t_domain=(0.0, 1.0)) -> Partition:
    """A float64 one-partition run whose every frame is `levels`, an
    (H, W) array: zero output weights, the levels as the output bias."""
    levels = np.asarray(levels, dtype=np.float64)
    h, w = levels.shape
    model = init_siren([1, 8, 8, h * w], seed=3, height=h, width=w, t_domain=t_domain)
    model.weights[-1][:] = 0.0
    model.biases[-1][:] = levels.reshape(-1)
    return Partition(index=0, span=t_domain, model=model)


def test_anchor_is_the_median_of_partition_0_on_its_grid():
    """The same anchor at any requested times: np.median of partition 0's
    own frames at ANCHOR_SAMPLES evenly spaced times over its span."""
    parts = chain()
    p0 = parts[0]
    grid = np.linspace(p0.span[0], p0.span[1], reconstruct.ANCHOR_SAMPLES)
    want = float(np.median(p0.model.forward(p0.model.normalize_time(grid))))
    for times in ([2.5], np.linspace(0.0, 3.0, 7), np.linspace(1.0, 2.0, 50)):
        assert sample_video(parts, times).anchor == want
    assert LogVideo(np.zeros((1, 2, 2)), [0.0]).anchor == 0.0  # not sampled from a run


def test_anchored_frames_at_shared_times_do_not_depend_on_the_others():
    parts = chain()
    coarse = np.arange(31) / 10.0
    fine = np.arange(61) / 20.0  # holds every coarse time as an equal float
    assert np.array_equal(fine[::2], coarse)
    a = anchor_offset(sample_video(parts, coarse))
    b = anchor_offset(sample_video(parts, fine))
    assert a.frames.tobytes() == b.frames[::2].tobytes()


def test_anchor_constant_video_to_zero():
    video = sample_video([constant_run(np.full((4, 4), 3.7))], np.linspace(0.0, 1.0, 3))
    assert video.anchor == 3.7
    anchored = anchor_offset(video)
    assert np.all(anchored.frames == 0.0) and anchored.anchor == 0.0


def test_anchor_idempotent():
    once = anchor_offset(sample_video(chain(), np.linspace(0.0, 3.0, 9)))
    before = once.frames.copy()  # anchoring shifts in place and returns its input
    twice = anchor_offset(once)
    assert twice is once and twice.anchor == 0.0
    assert before.tobytes() == twice.frames.tobytes()


def test_no_times_is_typed_and_an_empty_video_anchors_as_it_is():
    """A run has no empty video: sampling no times is InvalidTimestamps.
    A video without pixels, not sampled from a run, anchors unchanged."""
    with pytest.raises(InvalidTimestamps):
        sample_video(chain(), [])
    video = LogVideo(np.zeros((2, 0, 3)), np.arange(2.0))
    assert anchor_offset(video) is video and video.frames.shape == (2, 0, 3)


@pytest.mark.parametrize("low", [-8e307, -1e308])
def test_anchoring_past_the_float64_range_is_nonfinite_frames(low):
    """Most pixels sit at `low`, so the anchor does; the pixel at +1e308
    then overflows. At -1e308 the anchor itself, the mean of two middle
    values, overflows, with no warning."""
    levels = np.full((2, 2), low)
    levels[0, 0] = 1e308
    video = sample_video([constant_run(levels)], [0.0, 1.0])
    assert video.anchor == (low if low == -8e307 else -np.inf)
    with pytest.raises(NonFiniteFrames, match="overflows"):
        anchor_offset(video)


def test_tone_map_reference_bytes():
    video = LogVideo(np.zeros((1, 2, 2)), [0.0])
    assert tone_map(video, gamma=1.0)[0, 0, 0] == 128
    assert tone_map(video, gamma=0.6)[0, 0, 0] == 168


def test_anchored_constant_video_tone_maps_to_mid_tone():
    video = anchor_offset(sample_video([constant_run(np.full((3, 3), 3.7))], [0.0, 1.0]))
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
    assert np.all(enhancement_to_bytes(grids, 1.0) == 128)
    signed = np.array([[[-1.0, 0.0], [0.5, 1.0]]])
    out = enhancement_to_bytes(signed, scale=1.0)
    assert out[0, 0, 0] == 0 and out[0, 1, 1] == 255 and out[0, 0, 1] == 128


def test_enhancement_scale_is_the_largest_rate_on_every_partitions_grid():
    """window_dt times the largest |per-second derivative| of each
    partition alone on its anchor grid, also when partition 0 is constant,
    as an event-free one trains toward."""
    parts = chain()
    parts[0].model.weights[-1][:] = 0.0
    most = [np.abs(rate(p, np.linspace(*p.span, reconstruct.ANCHOR_SAMPLES))).max()
            for p in parts]
    assert most[0] == 0.0
    assert enhancement_scale(parts, 0.01) == pytest.approx(0.01 * max(most), rel=1e-12)


def test_enhancement_scale_of_a_constant_run_is_one():
    assert enhancement_scale([constant_run(np.full((2, 2), 1.23))], 0.01) == 1.0
    with pytest.raises(NonPositiveSetting):
        enhancement_scale(chain(), 0.0)
