"""The streamed output path against the whole-array reference, and its
memory.

`sample_video`, `enhance_events`, `tone_map` and `enhancement_to_bytes`
write into one output array, run by run and block by block, and
`anchor_offset` shifts that array in place. Each element
sees the arithmetic of the whole-array code kept in `output_reference.py`
and every network batch holds the same times, so log frames, enhancement
grids and bytes must match it bit for bit. The memory tests read the peak
that `tracemalloc` traces, which counts numpy's data buffers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import output_reference as ref
from conftest import traced_peak
from evrecon.metrics import BLOCK_PIXELS
from evrecon.reconstruct import (
    LogVideo,
    anchor_offset,
    enhance_events,
    enhancement_to_bytes,
    sample_video,
    tone_map,
)
from evrecon.siren import init_siren
from evrecon.training import Partition

# Frames per block (BLOCK_PIXELS // (H * W)) from 32768 down to one.
SHAPES = [(1, 1), (4, 4), (3, 5), (48, 48), (181, 183)]


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: stricter than np.array_equal, which
    takes -0.0 for 0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def chain(n, overlap, h, w, seed, hidden=8):
    """n partitions with cores [i, i+1) over [0, n] and spans reaching half
    the overlap past each interior core edge, as build_partitions lays
    them out; each has its own network."""
    half = overlap / 2.0
    parts = []
    for i in range(n):
        span = (max(i - half, 0.0), min(i + 1 + half, float(n)))
        model = init_siren([1, hidden, hidden, h * w], seed=seed + i, height=h, width=w,
                           t_domain=span)
        parts.append(Partition(index=i, core_span=(float(i), float(i + 1)), span=span,
                               model=model))
    return parts


@st.composite
def ensembles(draw):
    """Partitions and strictly increasing times over their window: core
    and overlap edges, uniform times, or both; sometimes a single frame."""
    n = draw(st.integers(1, 3))
    overlap = draw(st.sampled_from([0.0, 0.3, 0.5]))
    h, w = draw(st.sampled_from(SHAPES))
    seed = draw(st.integers(0, 2**16))
    half = overlap / 2.0
    edges = [float(i) for i in range(n + 1)]
    edges += [x for i in range(1, n) for x in (i - half, i + half)]
    special = draw(st.lists(st.sampled_from(edges), max_size=6))
    uniform = np.random.default_rng(seed).uniform(0.0, n, draw(st.integers(0, 40)))
    times = np.unique(np.concatenate([special, uniform]))
    if len(times) == 0:
        times = np.array([draw(st.sampled_from(edges))])
    return chain(n, overlap, h, w, seed), times


@given(ensembles(), st.sampled_from([0.25, 0.6, 1.0]), st.floats(0.003, 0.4))
@settings(max_examples=40, deadline=None)
def test_streamed_output_matches_the_whole_array_reference(ensemble, gamma, window_dt):
    parts, times = ensemble
    video = sample_video(parts, times)
    assert same_bits(video.frames, ref.sample(parts, times, tangent=False))
    grids = enhance_events(parts, times, window_dt)
    assert same_bits(grids, ref.enhance_events(parts, times, window_dt))

    anchored = anchor_offset(video)  # shifts video in place
    assert same_bits(tone_map(anchored, gamma),
                     ref.tone_map(anchored.frames, gamma))
    assert same_bits(enhancement_to_bytes(grids), ref.enhancement_to_bytes(grids))
    assert same_bits(enhancement_to_bytes(grids, scale=window_dt),
                     ref.enhancement_to_bytes(grids, scale=window_dt))


@given(st.sampled_from(SHAPES), st.integers(1, 30), st.floats(1e-3, 700.0),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_byte_maps_match_the_reference_wherever_exp_is_finite(shape, n, spread, seed):
    """Values of any magnitude whose exp is finite, with signed zeros and
    intensities past 2**53, where I / (I + 1) is exactly 1."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n,) + shape) * spread
    flat = values.reshape(-1)
    picks = rng.integers(0, flat.size, size=min(flat.size, 4))
    flat[picks] = rng.choice([0.0, -0.0, 37.0, 709.0, -745.0], size=len(picks))
    np.clip(values, -745.0, 709.0, out=values)
    video = LogVideo(values, np.arange(n, dtype=np.float64))
    assert same_bits(tone_map(video), ref.tone_map(values))
    assert same_bits(enhancement_to_bytes(values), ref.enhancement_to_bytes(values))
    assert same_bits(enhancement_to_bytes(values, scale=spread),
                     ref.enhancement_to_bytes(values, scale=spread))


# Allowance for the small arrays around the video: times, masks, offsets.
SLACK = 64 << 10
BLOCK_BYTES = BLOCK_PIXELS * 8


@pytest.mark.parametrize("fn", [tone_map, enhancement_to_bytes])
def test_byte_maps_hold_the_output_plus_a_few_blocks(fn):
    """Whole-array mapping traces several float64 copies of the video
    (180 MB for 480 frames of 128x128); blocked, it traces the uint8
    output and a few float64 blocks."""
    values = np.random.default_rng(0).standard_normal((60, 128, 128))
    arg = LogVideo(values, np.arange(60.0)) if fn is tone_map else values
    out, peak = traced_peak(fn, arg)
    assert peak <= out.nbytes + 4 * BLOCK_BYTES + SLACK


def activation_bytes(times, hidden: int) -> int:
    """A generous bound on one batch's hidden activations: eight
    (K, hidden) float64 arrays."""
    return 8 * len(times) * hidden * 8


def test_sampling_one_partition_holds_one_video_plus_activations():
    (part,) = chain(1, 0.0, 64, 64, seed=5, hidden=32)
    times = np.linspace(0.0, 1.0, 150)
    video, peak = traced_peak(sample_video, [part], times)
    assert peak <= video.frames.nbytes + activation_bytes(times, 32) + SLACK


def test_sampling_overlaps_adds_one_pair_run():
    """Across three partitions the largest extra array is the second
    network's frames of one overlap pair's run."""
    parts = chain(3, 0.5, 64, 64, seed=5, hidden=32)
    times = np.linspace(0.0, 3.0, 150)
    lo = np.array([p.span[0] for p in parts[1:]])
    hi = np.array([p.span[1] for p in parts[:-1]])
    pair_run = max(np.sum((times >= a) & (times <= b)) for a, b in zip(lo, hi))
    video, peak = traced_peak(sample_video, parts, times)
    frame_bytes = video.frames[0].nbytes
    assert peak <= (video.frames.nbytes + pair_run * frame_bytes
                    + activation_bytes(times, 32) + SLACK)


def test_sampling_a_float32_model_holds_the_video_plus_blocks():
    """The float32 output layer's product is widened into the float64
    video a block of rows at a time, not through one float32 video."""
    (part,) = chain(1, 0.0, 64, 64, seed=5, hidden=32)
    part.model.params = part.model.params.astype(np.float32)
    times = np.linspace(0.0, 1.0, 600)
    video, peak = traced_peak(sample_video, [part], times)
    block_bytes = 16 * BLOCK_PIXELS * 4  # siren._row_blocks, float32
    assert peak <= video.frames.nbytes + block_bytes + activation_bytes(times, 32) + SLACK
    assert peak < 1.25 * video.frames.nbytes  # a whole float32 product is 1.5 videos


def test_anchoring_traces_under_an_eighth_of_the_video():
    frames = np.random.default_rng(1).standard_normal((180, 128, 128))
    video = LogVideo(frames, np.arange(180.0))
    anchored, peak = traced_peak(anchor_offset, video)
    assert anchored is video
    assert peak < video.frames.nbytes / 8
