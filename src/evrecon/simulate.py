"""Synthetic intensity scenes and a forward event generator.

The generator walks each pixel's log intensity (linearly interpolated
between video frames), emitting an event whenever the change since that
pixel's reference level reaches the contrast threshold C, then stepping
the reference by ±C. This quantizes every pixel's log trajectory to steps
of C, so accumulated events recover L(t_end) - L(t_start) to within C —
the property the closed-loop tests lean on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidConfig,
    check_settings,
    InvalidDimensions,
    NonPositiveIntensity,
    ShapeMismatch,
    UnknownName,
)
from .events import EventStream, check_increasing

SCENE_KINDS = ("translating_gradient", "moving_checker", "rotating_bars")

_INTENSITY_HI = 1.0
LOG_EPS = 1e-3  # log(I + LOG_EPS) keeps the log of near-black pixels bounded
# Checked before any array is made, so a huge duration * fps is InvalidDimensions, not a
# numpy error: a million 8x8 frames take 512 MB, and no scene in use has over 1,440 frames.
MAX_FRAMES = 1_000_000


@dataclass
class IntensityVideo:
    """Dense reference video: (N, H, W) positive intensities at strictly
    increasing times."""

    frames: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.frames.ndim != 3 or self.times.shape != self.frames.shape[:1]:
            raise ShapeMismatch("frames must be (N, H, W) with N matching (N,) times")
        if len(self.frames) < 2:
            raise InvalidDimensions("need at least 2 frames")
        check_increasing(self.times)
        # Two reductions, no boolean video; NaN fails both comparisons.
        if self.frames.size and not (self.frames.min() > 0 and self.frames.max() < np.inf):
            raise NonPositiveIntensity("intensities must be finite and positive")

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]


@dataclass
class SimConfig:
    """Event generator settings.

    noise_rate is expected spurious events per pixel per second (Poisson,
    random polarity); it exists for robustness fixtures, not realism.
    """

    threshold_C: float = 0.25
    noise_rate: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        check_settings(InvalidConfig, threshold_C=self.threshold_C)
        check_settings(InvalidConfig, 0, noise_rate=self.noise_rate, rng_seed=self.rng_seed)


def render_scene(
    kind: str,
    width: int,
    height: int,
    duration: float,
    fps: float,
    seed: int = 0,
) -> IntensityVideo:
    """Render a smooth moving test pattern.

    Frames land on t = i / fps for i in [0, round(duration * fps)), all
    values inside [0.05, 1.0], deterministic per seed. Patterns move
    enough that every pixel sweeps most of the intensity range, which
    keeps the per-pixel event supervision informative. InvalidDimensions
    when numpy cannot allocate a video of that many frames and pixels.
    """
    if kind not in SCENE_KINDS:
        raise UnknownName(f"unknown scene {kind!r}; choose from {SCENE_KINDS}")
    if width < 8 or height < 8:
        raise InvalidDimensions(f"scene must be at least 8x8, got {width}x{height}")
    check_settings(InvalidDimensions, duration=duration, fps=fps)
    if duration * fps > MAX_FRAMES:
        raise InvalidDimensions(f"duration {duration} s at fps {fps} makes more than "
                                f"{MAX_FRAMES} frames")
    n_frames = int(round(duration * fps))
    if n_frames < 2:
        raise InvalidDimensions("need fps * duration >= 2 frames")

    try:
        frames = np.empty((n_frames, height, width))
    except MemoryError:
        raise InvalidDimensions(f"cannot allocate {n_frames} frames of {width}x{height} "
                                "pixels") from None
    rng = np.random.default_rng(seed)
    times = np.arange(n_frames, dtype=np.float64) / fps
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    phase0 = rng.uniform(0.0, 2.0 * np.pi)
    span = float(min(width, height))

    # Spatial wavelengths run a few times the sensor and patterns advance
    # ~1.5 periods per second: per-pixel log trajectories then swing fast
    # relative to their spatial gradients, which keeps the event supervision
    # informative at fine bin widths instead of being drowned by spatial
    # smoothing. The video is computed in place in its one (N, H, W)
    # array; the second factor of a product is made one frame at a time.
    factor = np.empty((height, width))
    if kind == "translating_gradient":
        lo = 0.5
        theta = rng.uniform(0.0, 2.0 * np.pi)
        wavelength = 4.0 * span
        u = (xx * np.cos(theta) + yy * np.sin(theta)) / wavelength
        _sine(np.add(u[None], 1.5 * times[:, None, None], out=frames), phase0)
        frames *= 0.5
    elif kind == "moving_checker":
        lo = 0.35
        wavelength = 1.5 * span
        _sine(np.add(xx[None] / wavelength, 1.0 * times[:, None, None], out=frames), phase0)
        frames *= 0.5
        y_cycles, shifts = yy / wavelength, 0.7 * times
        for frame, shift in zip(frames, shifts):
            frame *= _sine(np.add(y_cycles, shift, out=factor), -phase0)
    else:  # rotating_bars
        lo = 0.35
        wavelength = 2.0 * span
        cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
        alpha = phase0 + 2.0 * np.pi * 0.15 * times
        np.multiply(xx[None] - cx, np.cos(alpha)[:, None, None], out=frames)
        y_offsets = yy - cy
        for frame, sin_a in zip(frames, np.sin(alpha)):
            frame += np.multiply(y_offsets, sin_a, out=factor)
        frames *= 2.0 * np.pi
        frames /= wavelength
        np.sin(frames, out=frames)
        frames *= 0.5
    frames += 0.5  # the pattern in [0, 1]
    frames *= _INTENSITY_HI - lo
    frames += lo
    return IntensityVideo(frames, times)


def _sine(cycles: np.ndarray, phase: float) -> np.ndarray:
    """sin(2 pi cycles + phase), computed in place in `cycles`."""
    cycles *= 2.0 * np.pi
    cycles += phase  # adding -phase is subtracting phase, bit for bit
    return np.sin(cycles, out=cycles)


def log_intensity(video: IntensityVideo) -> np.ndarray:
    """(N, H, W) log frames, log(I + LOG_EPS): the simulator's working
    domain and the ground truth for closed-loop comparisons."""
    return _log(video.frames)


def _log(intensities: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(intensities + LOG_EPS), written into `out` when given."""
    logs = np.add(intensities, LOG_EPS, out=out)
    return np.log(logs, out=logs)


def simulate_events(video: IntensityVideo, cfg: SimConfig) -> EventStream:
    """Generate events from a video via per-pixel threshold crossings.

    Reference levels start at the first frame's log intensity. Crossing
    times are linearly interpolated inside each frame interval. Optional
    Poisson noise events are appended. Output is sorted by (t, y, x, p).
    Log frames are made one at a time, as `log_intensity` makes them.
    """
    h, w = video.height, video.width
    n_px = h * w
    C = cfg.threshold_C
    flat_prev, flat_cur = _log(video.frames[0].reshape(-1)), np.empty(n_px)
    ref = flat_prev.copy()
    ts_parts = [np.empty(0, dtype=np.float64)]
    px_parts = [np.empty(0, dtype=np.int64)]
    p_parts = [np.empty(0, dtype=np.int64)]

    for k in range(1, len(video.frames)):
        _log(video.frames[k].reshape(-1), flat_cur)
        ta, tb = video.times[k - 1], video.times[k]
        d = flat_cur - ref
        n_ev = np.floor(np.abs(d) / C).astype(np.int64)
        active = np.nonzero(n_ev)[0]
        if len(active):
            reps = n_ev[active]
            total = int(reps.sum())
            px = np.repeat(active, reps)
            sgn = np.sign(d[active])
            sgn_rep = np.repeat(sgn, reps)
            # crossing ordinal 1..n within each active pixel
            starts = np.repeat(np.cumsum(reps) - reps, reps)
            ordinal = np.arange(total, dtype=np.float64) - starts + 1.0
            levels = ref[px] + sgn_rep * ordinal * C
            la = flat_prev[px]
            lb = flat_cur[px]
            frac = (levels - la) / (lb - la)
            # rounding can put ta + frac * (tb - ta) one ulp past tb
            ts_parts.append(np.clip(ta + frac * (tb - ta), ta, tb))
            px_parts.append(px)
            p_parts.append(sgn_rep.astype(np.int64))
            ref[active] += sgn * reps * C
        flat_prev, flat_cur = flat_cur, flat_prev

    if cfg.noise_rate > 0:
        rng = np.random.default_rng(cfg.rng_seed)
        t0, t1 = float(video.times[0]), float(video.times[-1])
        n_noise = rng.poisson(cfg.noise_rate * (t1 - t0) * n_px)
        ts_parts.append(rng.uniform(t0, t1, size=n_noise))
        px_parts.append(rng.integers(0, n_px, size=n_noise))
        p_parts.append(rng.choice((-1, 1), size=n_noise))
    t_all = np.concatenate(ts_parts)
    px_all = np.concatenate(px_parts)
    p_all = np.concatenate(p_parts)

    x_all = px_all % w
    y_all = px_all // w
    order = np.lexsort((p_all, x_all, y_all, t_all))
    return EventStream(
        t=t_all[order],
        x=x_all[order],
        y=y_all[order],
        polarity=p_all[order],
        width=w,
        height=h,
        t_start=float(video.times[0]),
        t_end=float(video.times[-1]),
    )
