"""The streamed output path against the whole-array reference, and its
memory.

`sample_video`, `enhance_events`, `tone_map` and `enhancement_to_bytes`
write into one output array, run by run and block by block, and
`anchor_offset` shifts that array in place by the run's anchor, which
`sample_video` finds on a small grid before it makes that array. Each
element sees the arithmetic of the whole-array code kept in
`output_reference.py` and every network batch holds the same times, so
for float32 networks log frames, enhancement grids and bytes must match
it bit for bit. A float64
network's row-blocked output-layer products may round differently from
the reference's one product, so its frames and grids match within that
rounding. The memory tests read the peak that `tracemalloc` traces, which
counts numpy's data buffers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import output_reference as ref
from conftest import traced_peak
from evrecon.metrics import BLOCK_PIXELS
from evrecon.reconstruct import (
    ANCHOR_SAMPLES,
    LogVideo,
    _sample,
    anchor_offset,
    enhance_events,
    enhancement_scale,
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


def chain(n, overlap, h, w, seed, hidden=8, dtype=np.float64):
    """n partitions with spans reaching half the overlap past each interior
    core edge 1..n-1 over [0, n], as build_partitions lays them out; each
    has its own network, rounded to `dtype`."""
    half = overlap / 2.0
    parts = []
    for i in range(n):
        span = (max(i - half, 0.0), min(i + 1 + half, float(n)))
        model = init_siren([1, hidden, hidden, h * w], seed=seed + i, height=h, width=w,
                           t_domain=span)
        model.params = model.params.astype(dtype)
        parts.append(Partition(index=i, span=span, model=model))
    return parts


def core_edges(parts) -> np.ndarray:
    """The interior core edges 1..n-1 of a `chain`, which the reference
    routes by."""
    return np.arange(1.0, len(parts))


@st.composite
def ensembles(draw):
    """Float32 partitions, as reconstruct trains and samples them, or
    float64 ones, as older checkpoints load, and strictly increasing times
    over their window: core and overlap edges, uniform times, or both;
    sometimes a single frame. Every draw checks that routing by span
    starts picks the partitions the reference's core edges pick."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
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
    return chain(n, overlap, h, w, seed, dtype=dtype), times


def output_terms(parts, times, tangent: bool) -> float:
    """The largest sum of |terms| of an output-layer dot product, plus
    |bias|: |sin| <= 1 bounds the frames' terms by a row of |W_out|; the
    tangents' are |da/dt| @ |W_out|^T at the times, per second."""
    most = 0.0
    for p in parts:
        w_out, b_out = p.model.layers()[-1]
        if tangent:
            k = len(times)
            _, _, cache = p.model.forward_with_tangent(p.model.normalize_time(times))
            terms = (np.abs(cache.inputs[-1][k:]) @ np.abs(w_out.T)).max() * p.model.time_slope
        else:
            terms = (np.abs(w_out).sum(axis=1) + np.abs(b_out)).max()
        most = max(most, float(terms))
    return most


def matches_reference(got, want, parts, scale: float) -> bool:
    """Bit for bit for float32 networks. A float64 network's row-blocked
    output-layer products may round rows differently from the reference's
    one product, each by at most 2 * hidden * eps * scale; the chained
    offsets carry up to 2(n-1) such errors and their means' rounding (128
    eps covers a pairwise mean of 9 x 33,123 values), and offsets and
    blends round values of at most (2n-1) * scale."""
    if parts[0].model.params.dtype == np.float32:
        return same_bits(got, want)
    n, hidden = len(parts), parts[0].model.layer_sizes[-2]
    tol = (2 * hidden + 128) * (2 * n - 1) * np.finfo(np.float64).eps * scale
    return got.dtype == want.dtype and got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= tol))


@given(ensembles(), st.sampled_from([0.25, 0.6, 1.0]), st.floats(0.003, 0.4))
@settings(max_examples=40, deadline=None)
def test_streamed_output_matches_the_whole_array_reference(ensemble, gamma, window_dt):
    """Frames and enhancement grids match the reference (see
    matches_reference); the byte maps of the same values, bit for bit."""
    parts, times = ensemble
    edges = core_edges(parts)
    video = sample_video(parts, times)
    assert matches_reference(video.frames, ref.sample(parts, times, False, edges), parts,
                             output_terms(parts, times, tangent=False))
    grids = enhance_events(parts, times, window_dt)
    assert matches_reference(grids, ref.enhance_events(parts, times, window_dt, edges), parts,
                             output_terms(parts, times, tangent=True) * window_dt)

    anchored = anchor_offset(video)  # shifts video in place
    assert same_bits(tone_map(anchored, gamma),
                     ref.tone_map(anchored.frames, gamma))
    scale = enhancement_scale(parts, window_dt)  # enhance's default
    assert same_bits(enhancement_to_bytes(grids, scale), ref.enhancement_to_bytes(grids, scale))
    assert same_bits(enhancement_to_bytes(grids, scale=window_dt),
                     ref.enhancement_to_bytes(grids, scale=window_dt))


@st.composite
def linked_chains(draw):
    """Float32 partitions whose spans follow `load_partitions`' chain on a
    quarter-second grid: each starts after the previous one starts, at or
    before it ends, and ends no earlier. So overlaps may have zero width or
    reach past the next partition's start (three-way overlaps). Times are
    every span edge and uniform times over the chain."""
    seed = draw(st.integers(0, 2**16))
    spans = [(0.0, draw(st.integers(1, 8)) / 4)]
    for _ in range(draw(st.integers(0, 3))):
        a, b = spans[-1]
        start = a + draw(st.integers(1, round((b - a) * 4))) / 4
        spans.append((start, b + draw(st.integers(0 if b > start else 1, 8)) / 4))
    parts = []
    for i, span in enumerate(spans):
        model = init_siren([1, 8, 8, 6], seed=seed + i, height=2, width=3, t_domain=span)
        model.params = model.params.astype(np.float32)
        parts.append(Partition(index=i, span=span, model=model))
    uniform = np.random.default_rng(seed).uniform(0.0, spans[-1][1], draw(st.integers(0, 30)))
    return parts, np.unique(np.concatenate([np.ravel(spans), uniform]))


@given(linked_chains(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_two_binary_searches_route_times_as_the_overlap_mask_did(ensemble, tangent):
    """Against the reference's mask over every overlap, routing times in
    no overlap by span starts, bit for bit."""
    parts, times = ensemble
    starts = [p.span[0] for p in parts[1:]]
    assert same_bits(_sample(parts, times, tangent), ref.sample(parts, times, tangent, starts))


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
    full = float(np.abs(values).max()) or 1.0  # the whole byte range
    assert same_bits(enhancement_to_bytes(values, full), ref.enhancement_to_bytes(values, full))
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
    args = (LogVideo(values, np.arange(60.0)),) if fn is tone_map else (values, 1.0)
    out, peak = traced_peak(fn, *args)
    assert peak <= out.nbytes + 4 * BLOCK_BYTES + SLACK


def activation_bytes(times, hidden: int) -> int:
    """A generous bound on one batch's hidden activations: eight
    (K, hidden) float64 arrays."""
    return 8 * len(times) * hidden * 8


def float32_partition(h, w, hidden):
    (part,) = chain(1, 0.0, h, w, seed=5, hidden=hidden, dtype=np.float32)
    return part


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
    part = float32_partition(64, 64, 32)
    times = np.linspace(0.0, 1.0, 600)
    video, peak = traced_peak(sample_video, [part], times)
    block_bytes = 16 * BLOCK_PIXELS * 4  # siren._row_blocks, float32
    assert peak <= video.frames.nbytes + block_bytes + activation_bytes(times, 32) + SLACK
    assert peak < 1.25 * video.frames.nbytes  # a whole float32 product is 1.5 videos


@pytest.mark.parametrize("overlap", [0.0, 0.5])
def test_enhancing_float32_networks_in_blocks_matches_the_reference(overlap):
    """Derivatives of float32 networks are made a block of rows at a time
    (two partitions, 64x64, 500 times); each block has the bits of the
    whole tangent product."""
    parts = chain(2, overlap, 64, 64, seed=6, hidden=32, dtype=np.float32)
    times = np.linspace(0.0, 2.0, 500)
    assert same_bits(enhance_events(parts, times, 0.01),
                     ref.enhance_events(parts, times, 0.01, core_edges(parts)))


def test_enhancing_a_float32_model_holds_the_grids_plus_one_block():
    """forward_with_tangent made a float32 array of frame and tangent rows
    for the whole run (3.3x the grids with the cache); the tangents are
    now made one block of rows at a time."""
    part = float32_partition(64, 64, 32)
    times = np.linspace(0.0, 1.0, 600)
    grids, peak = traced_peak(enhance_events, [part], times, 0.01)
    block_bytes = 16 * BLOCK_PIXELS * 4  # siren._row_blocks, float32
    assert peak <= grids.nbytes + block_bytes + activation_bytes(times, 32) + SLACK
    assert peak < 1.25 * grids.nbytes


def test_the_anchor_traces_its_grid_and_anchoring_traces_nothing():
    """The anchor's frames on partition 0's grid, and np.median's copy of
    them, are freed before the video is made: sampling one frame traces
    about two grids, and 180 frames trace no more than the video plus
    blocks, as if there were no anchor. Anchoring shifts in place."""
    part = float32_partition(128, 128, 32)
    grid_bytes = ANCHOR_SAMPLES * 128 * 128 * 4
    grid = np.linspace(0.0, 1.0, ANCHOR_SAMPLES)
    _, peak = traced_peak(sample_video, [part], [0.5])
    assert grid_bytes < peak <= 2 * grid_bytes + activation_bytes(grid, 32) + SLACK
    times = np.linspace(0.0, 1.0, 180)
    video, peak = traced_peak(sample_video, [part], times)
    block_bytes = 16 * BLOCK_PIXELS * 4  # siren._row_blocks, float32
    assert peak <= video.frames.nbytes + block_bytes + activation_bytes(times, 32) + SLACK
    anchored, peak = traced_peak(anchor_offset, video)
    assert anchored is video
    assert peak < SLACK
