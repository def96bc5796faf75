"""Self-supervised event-to-video reconstruction.

A sine-activated MLP maps time to a full log-intensity frame and is fit
directly to event data: the network's time derivative at each bin midpoint,
scaled by the bin duration, must reproduce the bin's accumulated
log-intensity change. A spatial smoothness term pins the per-pixel
integration constants. A built-in event simulator closes the loop for
verification without external recordings.
"""

__version__ = "0.1.0"

from .events import EventStream, parse_events, write_events
from .frames import EventFrameStack, refine_bins, stack_uniform
from .metrics import MetricReport, clahe, evaluate_frames, mse, ssim
from .reconstruct import LogVideo, anchor_offset, enhance_events, sample_video, tone_map
from .simulate import IntensityVideo, SimConfig, log_intensity, render_scene, simulate_events
from .siren import AdamState, SirenModel, adam_step, init_siren, load_checkpoint, save_checkpoint
from .training import (
    Partition,
    TrainConfig,
    TrainReport,
    build_partitions,
    spatial_reg_loss,
    temporal_loss,
    train_ensemble,
    train_partition,
)

__all__ = [
    "EventStream",
    "parse_events",
    "write_events",
    "EventFrameStack",
    "stack_uniform",
    "refine_bins",
    "IntensityVideo",
    "SimConfig",
    "render_scene",
    "simulate_events",
    "log_intensity",
    "SirenModel",
    "AdamState",
    "init_siren",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
    "TrainConfig",
    "TrainReport",
    "Partition",
    "temporal_loss",
    "spatial_reg_loss",
    "build_partitions",
    "train_ensemble",
    "train_partition",
    "LogVideo",
    "sample_video",
    "anchor_offset",
    "tone_map",
    "enhance_events",
    "MetricReport",
    "mse",
    "ssim",
    "clahe",
    "evaluate_frames",
]
