import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evrecon.errors import InvalidConfig, InvalidDimensions, NonPositiveIntensity
from evrecon.frames import stack_uniform
from evrecon.simulate import (
    SCENE_KINDS,
    IntensityVideo,
    SimConfig,
    log_intensity,
    render_scene,
    simulate_events,
)


@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_render_contract(kind):
    video = render_scene(kind, 64, 64, 2.0, 240.0, seed=1)
    assert video.frames.shape == (480, 64, 64)
    assert video.frames.min() >= 0.05
    assert video.frames.max() <= 1.0
    # temporally smooth: per-pixel log change between consecutive frames bounded
    logs = log_intensity(video)
    assert np.abs(np.diff(logs, axis=0)).max() < 0.2


def test_render_deterministic_per_seed():
    a = render_scene("translating_gradient", 16, 16, 0.5, 60.0, seed=7)
    b = render_scene("translating_gradient", 16, 16, 0.5, 60.0, seed=7)
    c = render_scene("translating_gradient", 16, 16, 0.5, 60.0, seed=8)
    assert np.array_equal(a.frames, b.frames)
    assert not np.array_equal(a.frames, c.frames)


def test_render_rejects_bad_dimensions():
    with pytest.raises(InvalidDimensions):
        render_scene("translating_gradient", 4, 64, 1.0, 60.0)
    with pytest.raises(InvalidDimensions):
        render_scene("translating_gradient", 64, 64, 0.0, 60.0)
    with pytest.raises(ValueError):
        render_scene("nope", 64, 64, 1.0, 60.0)


def ramp_video(n_frames=5):
    """Single pixel whose log intensity ramps exactly 0 -> 1 over [0, 1]."""
    eps = 1e-3
    times = np.linspace(0.0, 1.0, n_frames)
    frames = (np.exp(times) - eps)[:, None, None]
    return IntensityVideo(frames, times)


def test_linear_ramp_crossings():
    ev = simulate_events(ramp_video(), SimConfig(threshold_C=0.25, noise_rate=0.0))
    assert np.allclose(ev.t, [0.25, 0.5, 0.75, 1.0])
    assert np.all(ev.polarity == 1)


def test_constant_video_emits_nothing():
    video = IntensityVideo(np.full((4, 2, 2), 0.7), np.linspace(0, 1, 4))
    ev = simulate_events(video, SimConfig(threshold_C=0.25, noise_rate=0.0))
    assert len(ev) == 0
    assert (ev.t_start, ev.t_end) == (0.0, 1.0)


def test_monotone_ramp_all_positive():
    ev = simulate_events(ramp_video(50), SimConfig(threshold_C=0.1, noise_rate=0.0))
    assert len(ev) == 10
    assert np.all(ev.polarity == 1)


def test_quantization_bound_on_rendered_scene():
    video = render_scene("translating_gradient", 24, 24, 1.0, 120.0, seed=2)
    C = 0.25
    ev = simulate_events(video, SimConfig(threshold_C=C, noise_rate=0.0))
    logs = log_intensity(video)
    signed = np.zeros((24, 24))
    np.add.at(signed, (ev.y, ev.x), ev.polarity)
    resid = np.abs(C * signed - (logs[-1] - logs[0]))
    assert resid.max() < C


def test_accumulated_stack_recovers_log_change_within_C():
    video = render_scene("moving_checker", 16, 16, 1.0, 120.0, seed=5)
    C = 0.2
    ev = simulate_events(video, SimConfig(threshold_C=C, noise_rate=0.0))
    stack = stack_uniform(ev, 0.1, C)
    logs = log_intensity(video)
    assert np.abs(stack.pixel_sums() - (logs[-1] - logs[0])).max() < C + 1e-12


def test_simulation_deterministic_with_noise():
    video = render_scene("rotating_bars", 16, 16, 0.5, 60.0, seed=3)
    cfg = SimConfig(threshold_C=0.3, noise_rate=5.0, rng_seed=42)
    a = simulate_events(video, cfg)
    b = simulate_events(video, cfg)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.polarity, b.polarity)


def test_noise_adds_events():
    video = IntensityVideo(np.full((4, 8, 8), 0.7), np.linspace(0, 1, 4))
    clean = simulate_events(video, SimConfig(threshold_C=0.25, noise_rate=0.0, rng_seed=1))
    noisy = simulate_events(video, SimConfig(threshold_C=0.25, noise_rate=10.0, rng_seed=1))
    assert len(clean) == 0
    assert len(noisy) > 0
    assert np.all(np.diff(noisy.t) >= 0)


def test_output_sorted_with_deterministic_tiebreak():
    video = render_scene("translating_gradient", 16, 16, 0.5, 120.0, seed=1)
    ev = simulate_events(video, SimConfig(threshold_C=0.2, noise_rate=0.0))
    keys = np.lexsort((ev.polarity, ev.x, ev.y, ev.t))
    assert np.array_equal(keys, np.arange(len(ev)))


def test_nonpositive_intensity_rejected():
    with pytest.raises(NonPositiveIntensity):
        IntensityVideo(np.zeros((3, 2, 2)), np.linspace(0, 1, 3))


@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=12),
    st.sampled_from([0.1, 0.25, 0.5]),
)
@settings(deadline=None, max_examples=40)
@example(levels=[1.2339610194541027e-09, -1.0, 0.0, 1.2339610194541027e-09], C=0.25)
def test_quantization_property_single_pixel(levels, C):
    eps = 1e-3
    times = np.linspace(0.0, 1.0, len(levels))
    frames = (np.exp(np.asarray(levels)) - eps).clip(min=1e-6)[:, None, None]
    video = IntensityVideo(frames, times)
    ev = simulate_events(video, SimConfig(threshold_C=C, noise_rate=0.0))
    logs = np.log(video.frames + eps)
    signed = float(np.sum(ev.polarity))
    assert abs(C * signed - (logs[-1, 0, 0] - logs[0, 0, 0])) < C + 1e-9


@pytest.mark.parametrize("name", ["threshold_C", "log_eps"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_sim_config_rejects_a_nonfinite_threshold_or_log_eps(name, value):
    with pytest.raises(InvalidConfig, match=f"^{name} must be finite, got {value}$"):
        SimConfig(**{name: value})
