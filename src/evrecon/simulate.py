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

from .errors import InvalidConfig, InvalidDimensions, NonPositiveIntensity
from .events import EventStream

SCENE_KINDS = ("translating_gradient", "moving_checker", "rotating_bars")

_INTENSITY_HI = 1.0


@dataclass
class IntensityVideo:
    """Dense reference video: (N, H, W) positive intensities at strictly
    increasing times."""

    frames: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.frames.ndim != 3 or len(self.frames) != len(self.times):
            raise ValueError("frames must be (N,H,W) with N matching times")
        if len(self.frames) < 2:
            raise ValueError("need at least 2 frames")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(self.frames <= 0):
            raise NonPositiveIntensity("intensities must be positive")

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
    log_eps: float = 1e-3
    noise_rate: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.threshold_C <= 0:
            raise InvalidConfig("threshold_C must be positive")
        if self.log_eps <= 0:
            raise InvalidConfig("log_eps must be positive")
        if self.noise_rate < 0:
            raise InvalidConfig("noise_rate must be >= 0")
        for name in ("threshold_C", "log_eps", "noise_rate"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise InvalidConfig(f"{name} must be finite, got {value}")


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
    keeps the per-pixel event supervision informative.
    """
    if kind not in SCENE_KINDS:
        raise ValueError(f"unknown scene {kind!r}; choose from {SCENE_KINDS}")
    if width < 8 or height < 8:
        raise InvalidDimensions(f"scene must be at least 8x8, got {width}x{height}")
    n_frames = int(round(duration * fps))
    if duration <= 0 or fps <= 0 or n_frames < 2:
        raise InvalidDimensions("need fps * duration >= 2 frames")

    rng = np.random.default_rng(seed)
    times = np.arange(n_frames, dtype=np.float64) / fps
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    phase0 = rng.uniform(0.0, 2.0 * np.pi)
    span = float(min(width, height))

    # Spatial wavelengths run a few times the sensor and patterns advance
    # ~1.5 periods per second: per-pixel log trajectories then swing fast
    # relative to their spatial gradients, which keeps the event supervision
    # informative at fine bin widths instead of being drowned by spatial
    # smoothing.
    if kind == "translating_gradient":
        lo = 0.5
        theta = rng.uniform(0.0, 2.0 * np.pi)
        wavelength = 4.0 * span
        u = (xx * np.cos(theta) + yy * np.sin(theta)) / wavelength
        arg = 2.0 * np.pi * (u[None] + 1.5 * times[:, None, None]) + phase0
        unit = 0.5 + 0.5 * np.sin(arg)
    elif kind == "moving_checker":
        lo = 0.35
        wavelength = 1.5 * span
        a1 = 2.0 * np.pi * (xx[None] / wavelength + 1.0 * times[:, None, None])
        a2 = 2.0 * np.pi * (yy[None] / wavelength + 0.7 * times[:, None, None])
        unit = 0.5 + 0.5 * np.sin(a1 + phase0) * np.sin(a2 - phase0)
    else:  # rotating_bars
        lo = 0.35
        wavelength = 2.0 * span
        cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
        alpha = phase0 + 2.0 * np.pi * 0.15 * times
        u = (xx[None] - cx) * np.cos(alpha)[:, None, None] + (yy[None] - cy) * np.sin(alpha)[
            :, None, None
        ]
        unit = 0.5 + 0.5 * np.sin(2.0 * np.pi * u / wavelength)

    frames = lo + (_INTENSITY_HI - lo) * unit
    return IntensityVideo(frames, times)


def log_intensity(video: IntensityVideo, log_eps: float = 1e-3) -> np.ndarray:
    """(N, H, W) log frames, log(I + log_eps): the simulator's working
    domain and the ground truth for closed-loop comparisons."""
    if np.any(video.frames <= 0):
        raise NonPositiveIntensity("intensities must be positive")
    logs = video.frames + log_eps
    return np.log(logs, out=logs)


def simulate_events(video: IntensityVideo, cfg: SimConfig) -> EventStream:
    """Generate events from a video via per-pixel threshold crossings.

    Reference levels start at the first frame's log intensity. Crossing
    times are linearly interpolated inside each frame interval. Optional
    Poisson noise events are appended. Output is sorted by (t, y, x, p).
    """
    L = log_intensity(video, cfg.log_eps)
    h, w = video.height, video.width
    n_px = h * w
    C = cfg.threshold_C

    ref = L[0].reshape(-1).copy()
    flat_prev = L[0].reshape(-1)
    ts_parts, px_parts, p_parts = [], [], []

    for k in range(1, len(L)):
        flat_cur = L[k].reshape(-1)
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
        flat_prev = flat_cur

    if ts_parts:
        t_all = np.concatenate(ts_parts)
        px_all = np.concatenate(px_parts)
        p_all = np.concatenate(p_parts)
    else:
        t_all = np.empty(0, dtype=np.float64)
        px_all = np.empty(0, dtype=np.int64)
        p_all = np.empty(0, dtype=np.int64)

    if cfg.noise_rate > 0:
        rng = np.random.default_rng(cfg.rng_seed)
        t0, t1 = float(video.times[0]), float(video.times[-1])
        n_noise = rng.poisson(cfg.noise_rate * (t1 - t0) * n_px)
        if n_noise:
            t_all = np.concatenate([t_all, rng.uniform(t0, t1, size=n_noise)])
            px_all = np.concatenate([px_all, rng.integers(0, n_px, size=n_noise)])
            p_all = np.concatenate([p_all, rng.choice((-1, 1), size=n_noise)])

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
