import numpy as np
import pytest

from evrecon.errors import TimeOutOfRange
from evrecon.events import FrameTimestamps
from evrecon.reconstruct import (
    LogVideo,
    ToneMapConfig,
    anchor_offset,
    enhance_events,
    enhancement_to_bytes,
    sample_video,
    tone_map,
)
from evrecon.siren import init_siren
from evrecon.training import Partition


def one_partition(seed=3, t_domain=(0.0, 1.0)):
    model = init_siren([1, 8, 8, 8, 16], seed=seed, height=4, width=4, t_domain=t_domain)
    return Partition(index=0, core_span=t_domain, span=t_domain, model=model)


def two_partitions(offset=0.0, overlap=0.5):
    """Same network in both slots, second shifted by a constant output
    offset; overlap window centered on t = 1.0."""
    half = overlap / 2.0
    m0 = init_siren([1, 8, 8, 8, 16], seed=3, height=4, width=4, t_domain=(0.0, 1.0 + half))
    m1 = m0.copy()
    m1.t_domain = (0.0, 1.0 + half)  # identical input map so outputs agree
    m1.biases[-1][:] += offset
    p0 = Partition(index=0, core_span=(0.0, 1.0), span=(0.0, 1.0 + half), model=m0)
    p1 = Partition(index=1, core_span=(1.0, 2.0), span=(1.0 - half, 2.0), model=m1)
    # second model must answer over [1-half, 2]; reuse domain covering both
    m1.t_domain = (0.0, 1.0 + half)
    return p0, p1


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


def test_sample_accepts_frame_timestamps():
    p = one_partition()
    ft = FrameTimestamps(np.linspace(0.0, 1.0, 5))
    video = sample_video([p], ft)
    assert len(video.frames) == 5


def test_anchor_constant_video_to_zero():
    video = LogVideo(np.full((3, 4, 4), 3.7), np.arange(3.0))
    anchored = anchor_offset(video)
    assert np.all(anchored.frames == 0.0)


def test_anchor_idempotent():
    rng = np.random.default_rng(0)
    video = LogVideo(rng.standard_normal((5, 5, 5)), np.arange(5.0))
    once = anchor_offset(video)
    twice = anchor_offset(once)
    assert np.array_equal(once.frames, twice.frames)
    assert np.median(once.frames) == 0.0


def test_tone_map_reference_bytes():
    video = LogVideo(np.zeros((1, 2, 2)), [0.0])
    assert tone_map(video, ToneMapConfig(gamma=1.0))[0, 0, 0] == 128
    assert tone_map(video, ToneMapConfig(gamma=0.6))[0, 0, 0] == 168


def test_anchored_constant_video_tone_maps_to_mid_tone():
    video = anchor_offset(LogVideo(np.full((2, 3, 3), 3.7), np.arange(2.0)))
    bytes_ = tone_map(video, ToneMapConfig(gamma=0.6))
    assert np.all(bytes_ == round(0.5**0.6 * 255))


def test_tone_map_dark_limit():
    video = LogVideo(np.full((1, 2, 2), -60.0), [0.0])
    assert np.all(tone_map(video) == 0)


def test_tone_map_monotone():
    ramp = np.linspace(-60.0, 60.0, 10_000)
    video = LogVideo(ramp[:, None, None], np.arange(10_000.0))
    out = tone_map(video, ToneMapConfig(0.6)).reshape(-1).astype(np.int64)
    assert np.all(np.diff(out) >= 0)
    assert out[0] == 0 and out[-1] == 255


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
    _, tan = p.model.forward_with_tangent(p.model.normalize_time(t))
    grids = enhance_events([p], t, window_dt=0.01)
    assert np.allclose(grids[0], tan * p.model.time_slope * 0.01)


def test_enhancement_bytes_midgray_zero():
    grids = np.zeros((1, 2, 2))
    assert np.all(enhancement_to_bytes(grids) == 128)
    signed = np.array([[[-1.0, 0.0], [0.5, 1.0]]])
    out = enhancement_to_bytes(signed, scale=1.0)
    assert out[0, 0, 0] == 0 and out[0, 1, 1] == 255 and out[0, 0, 1] == 128
