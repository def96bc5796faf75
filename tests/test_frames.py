import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evrecon.errors import (
    DtypeMismatch,
    EmptyStream,
    EvreconError,
    InvalidCounts,
    NonPositiveThreshold,
    ShapeMismatch,
    ZeroWidthBin,
)
from evrecon.frames import EventFrameStack, refine_bins, stack_uniform
from evrecon.metrics import BLOCK_PIXELS
from evrecon.simulate import SimConfig, render_scene, simulate_events
from evrecon.training import TrainConfig, build_partitions

from conftest import make_stream, traced_peak


def simple_stream():
    # pixel (0,0): +1 at 0.1, +1 at 0.2, -1 at 0.9, window [0, 1]
    return make_stream([0.1, 0.2, 0.9], [0, 0, 0], [0, 0, 0], [1, 1, -1],
                       width=2, height=2, t_start=0.0, t_end=1.0)


def test_stack_accumulates_polarity_times_C():
    stack = stack_uniform(simple_stream(), 0.5, C=1.0)
    assert stack.num_frames == 2
    assert stack.frames_as(np.float64)[0][0, 0] == 2.0
    assert stack.frames_as(np.float64)[1][0, 0] == -1.0


def test_stack_linear_in_C():
    stack = stack_uniform(simple_stream(), 0.5, C=0.25)
    assert stack.frames_as(np.float64)[0][0, 0] == 0.5
    assert stack.frames_as(np.float64)[1][0, 0] == -0.25
    base = stack_uniform(simple_stream(), 0.5, C=1.0)
    assert np.array_equal(stack.frames_as(np.float64), 0.25 * base.frames_as(np.float64))


def test_pixels_without_events_are_zero():
    stack = stack_uniform(simple_stream(), 0.5, C=1.0)
    assert np.all(stack.frames_as(np.float64)[:, 1, :] == 0.0)
    assert np.all(stack.frames_as(np.float64)[:, :, 1] == 0.0)


def test_stack_empty_stream_bins_into_zero_count_bins():
    s = make_stream([], [], [], [], width=2, height=2, t_start=0.0, t_end=1.0)
    stack = stack_uniform(s, 0.5, 1.0)
    assert stack.edges.tolist() == [0.0, 0.5, 1.0]
    assert stack.counts.shape == (2, 2, 2) and not stack.counts.any()
    assert not refine_bins(stack, s).counts.any()
    instant = make_stream([], [], [], [], width=2, height=2, t_start=1.0, t_end=1.0)
    with pytest.raises(EmptyStream):  # the window check stays
        stack_uniform(instant, 0.5, 1.0)


def test_bin_count_is_ceiling():
    s = make_stream([0.0, 1.9], [0, 0], [0, 0], [1, 1], width=1, height=1,
                    t_start=0.0, t_end=1.9)
    stack = stack_uniform(s, 0.5, 1.0)
    assert stack.num_frames == 4
    assert stack.edges[-1] == 1.9


@given(st.sampled_from([1.0 / 32.0, 0.1, 0.3, 1.0 / 7.0]), st.integers(1, 80),
       st.sampled_from([0.0, 0.1, 0.7, 1.3, 123.456]), st.integers(-4, 4))
@example(1.0 / 32.0, 32, 0.7, 1)  # span / bin = 32.00000000000001
@settings(deadline=None, max_examples=200)
def test_a_span_within_ulps_of_a_bin_multiple_leaves_no_sliver(bin_duration, n, t0, ulps):
    """n bins, whichever way rounding moved the window's end, and each of
    them still about 1/16 bin wide after 4 refinements."""
    t1 = t0 + n * bin_duration
    for _ in range(abs(ulps)):
        t1 = np.nextafter(t1, np.inf if ulps > 0 else -np.inf)
    stream = make_stream([t0], [0], [0], [1], width=1, height=1, t_start=t0, t_end=float(t1))
    stack = stack_uniform(stream, bin_duration, C=1.0)
    assert stack.num_frames == n
    for _ in range(4):
        stack = refine_bins(stack, stream)
    assert stack.durations.min() > bin_duration / 17


def test_boundary_event_goes_to_later_interval():
    s = make_stream([0.5], [0], [0], [1], width=1, height=1, t_start=0.0, t_end=1.0)
    stack = stack_uniform(s, 0.5, 1.0)
    assert stack.frames_as(np.float64)[0][0, 0] == 0.0
    assert stack.frames_as(np.float64)[1][0, 0] == 1.0


def test_last_interval_includes_endpoint():
    s = make_stream([1.0], [0], [0], [1], width=1, height=1, t_start=0.0, t_end=1.0)
    stack = stack_uniform(s, 0.5, 1.0)
    assert stack.frames_as(np.float64)[1][0, 0] == 1.0


def test_midpoints_and_tiling():
    stack = stack_uniform(simple_stream(), 0.3, C=1.0)
    assert np.array_equal(stack.midpoints, (stack.edges[:-1] + stack.edges[1:]) / 2)
    assert stack.edges.shape == (stack.num_frames + 1,)
    assert stack.edges[0] == 0.0 and stack.edges[-1] == 1.0


def test_refine_splits_every_bin_at_its_midpoint():
    """Event times place no edge: four events in [0.1, 0.4] and two tied on
    the bin's start both split [0, 1] at 0.5."""
    for t in ([0.1, 0.2, 0.3, 0.4], [0.0, 0.0]):
        n = len(t)
        s = make_stream(t, [0] * n, [0] * n, [1] * n, width=1, height=1, t_start=0.0, t_end=1.0)
        fine = refine_bins(stack_uniform(s, 1.0, C=1.0), s)
        assert fine.num_frames == 2
        assert fine.edges[1] == 0.5
        assert fine.counts[0][0, 0] == n and fine.counts[1][0, 0] == 0


def test_refine_empty_interval_splits_at_midpoint():
    s = make_stream([0.1], [0], [0], [1], width=1, height=1, t_start=0.0, t_end=2.0)
    stack = stack_uniform(s, 1.0, C=1.0)  # second bin [1, 2] holds no events
    fine = refine_bins(stack, s)
    assert fine.num_frames == 4
    assert fine.edges[3] == pytest.approx(1.5)
    assert np.all(fine.counts[2:] == 0.0)


@pytest.mark.parametrize("scene_seed", [10, 14, 15])
def test_refining_tie_heavy_partitions_leaves_no_short_bin(scene_seed):
    """The benchmark's multipart32 scene at scene seeds whose timestamp
    ties made median splits zero-wide: two refinements of every
    partition leave each bin at least 1 ms wide."""
    video = render_scene("moving_checker", 32, 32, 12.0, 120.0, seed=scene_seed)
    stream = simulate_events(video, SimConfig(threshold_C=0.25, noise_rate=0.5, rng_seed=1))
    cfg = TrainConfig(threshold_C=0.25, partition_tau=2.0, overlap=0.5, hidden_features=8)
    for part in build_partitions(stream, cfg):
        stack = refine_bins(refine_bins(part.stack, part.events), part.events)
        assert stack.durations.min() >= 1e-3


def test_refinement_preserves_pixel_sums_bit_exactly():
    rng = np.random.default_rng(0)
    n = 400
    t = np.sort(rng.uniform(0.0, 3.0, n))
    s = make_stream(t, rng.integers(0, 8, n), rng.integers(0, 6, n),
                    rng.choice([-1, 1], n), width=8, height=6, t_start=0.0, t_end=3.0)
    stack = stack_uniform(s, 1.0 / 32.0, C=0.25)
    sums = stack.pixel_sums()
    for _ in range(3):
        stack = refine_bins(stack, s)
        assert np.array_equal(stack.pixel_sums(), sums)


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.1, 0.25, 1.0, 3.7]))
@settings(deadline=None, max_examples=30)
def test_refinement_keeps_int32_pixel_sums_exact(seed, C):
    """Counts stay int32 through four refinements, their per-pixel sums
    equal the stream's signed event counts, and the float32 and float64
    frames are those of scaling the counts widened to float64."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3000))
    t = np.sort(rng.choice(rng.uniform(0.0, 2.0, max(1, n // 4)), n))  # heavy ties
    s = make_stream(t, rng.integers(0, 5, n), rng.integers(0, 3, n), rng.choice([-1, 1], n),
                    width=5, height=3, t_start=0.0, t_end=2.0)
    signed = np.zeros((3, 5), dtype=np.int64)
    np.add.at(signed, (s.y, s.x), s.polarity)
    stack = stack_uniform(s, 0.3, C=C)
    for _ in range(5):
        assert stack.counts.dtype == np.int32
        assert np.array_equal(stack.counts.sum(axis=0), signed)
        assert np.array_equal(stack.pixel_sums(), signed.astype(np.float64) * C)
        for dtype in (np.float32, np.float64):
            want = np.multiply(stack.counts.astype(np.float64), C,
                               out=np.empty(stack.counts.shape, dtype))
            assert stack.frames_as(dtype).tobytes() == want.tobytes()
        stack = refine_bins(stack, s)


@pytest.mark.parametrize("counts", [
    [[[0.5]], [[1.0]]],
    [[[np.nan]], [[1.0]]],
    [[[np.inf]], [[1.0]]],
    [[[2.0**31]], [[0.0]]],
    np.array([[[-(2**31) - 1]], [[0]]], dtype=np.int64),
])
def test_stack_rejects_counts_that_are_not_int32_whole_numbers(counts):
    with pytest.raises(InvalidCounts):
        EventFrameStack(counts, [0.0, 0.5, 1.0], threshold_C=1.0)


def test_stack_stores_whole_number_counts_as_int32():
    counts = np.array([[[2.0**31 - 1]], [[-(2.0**31)]]])
    stack = EventFrameStack(counts, [0.0, 0.5, 1.0], threshold_C=1.0)
    assert stack.counts.dtype == np.int32
    assert np.array_equal(stack.counts, counts)


@given(st.integers(1, 9), st.sampled_from([0.1, 0.25, 1.0, 0.37]),
       st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_frames_as_rows_into_out_match_the_whole_stack(num_frames, C, dtype, seed):
    """frames_as(dtype, rows, out) fills out with the bytes of
    frames_as(dtype)[rows], for any index rows (repeats and unsorted
    included) and counts up to +-(2**31 - 1)."""
    rng = np.random.default_rng(seed)
    extreme = np.array([2**31 - 1, -(2**31 - 1), -(2**31), 0])
    counts = rng.choice(np.concatenate([extreme, rng.integers(-2**31, 2**31, 8)]),
                        size=(num_frames, 3, 5))
    stack = EventFrameStack(counts, np.arange(num_frames + 1) * 0.5, threshold_C=C)
    rows = rng.integers(0, num_frames, size=rng.integers(1, 2 * num_frames + 1))
    want = stack.frames_as(dtype)[rows]
    out = np.full(want.shape, np.nan, dtype)
    got = stack.frames_as(dtype, rows=rows, out=out)
    assert got is out and out.tobytes() == want.tobytes()
    sl = slice(num_frames // 2, num_frames)
    assert stack.frames_as(dtype, rows=sl).tobytes() == stack.frames_as(dtype)[sl].tobytes()


@pytest.mark.parametrize("out, error", [(np.empty((2, 1, 1), np.float64), DtypeMismatch),
                                        (np.empty((3, 1, 1), np.float32), ShapeMismatch),
                                        (np.empty((2, 1, 2), np.float32), ShapeMismatch)])
def test_frames_as_rejects_an_out_of_another_shape_or_dtype(out, error):
    stack = EventFrameStack(np.ones((3, 1, 1)), [0.0, 0.5, 1.0, 1.5], threshold_C=0.1)
    with pytest.raises(error):
        stack.frames_as(np.float32, rows=[0, 2], out=out)


def test_two_refinements_quadruple_T():
    s = simple_stream()
    stack = stack_uniform(s, 0.25, C=1.0)
    t0 = stack.num_frames
    stack = refine_bins(refine_bins(stack, s), s)
    assert stack.num_frames == 4 * t0


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2_000_000),  # microseconds in [0, 2s]
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=4),
            st.sampled_from([-1, 1]),
        ),
        min_size=1,
        max_size=80,
    ),
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),  # dyadic C keeps scaling exact
)
@settings(deadline=None, max_examples=50)
def test_conservation_and_tiling_properties(raw, C):
    raw.sort(key=lambda r: r[0])
    t = [r[0] / 1e6 for r in raw]
    s = make_stream(t, [r[1] for r in raw], [r[2] for r in raw], [r[3] for r in raw],
                    width=6, height=5, t_start=0.0, t_end=2.0)
    stack = stack_uniform(s, 0.37, C=C)
    # conservation against the raw stream
    signed = np.zeros((5, 6))
    np.add.at(signed, (s.y, s.x), s.polarity)
    assert np.array_equal(stack.pixel_sums(), C * signed)
    # refinement invariants
    fine = refine_bins(stack, s)
    assert fine.num_frames == 2 * stack.num_frames
    assert np.array_equal(fine.pixel_sums(), stack.pixel_sums())
    assert np.all(fine.durations > 0)
    assert fine.edges[0] == stack.edges[0]
    assert fine.edges[-1] == stack.edges[-1]


def test_stack_rejects_nan_and_nonincreasing_edges():
    counts = np.zeros((2, 1, 1))
    for edges in ([0.0, np.nan, 1.0], [0.0, 0.5, np.nan], [0.0, 0.5, 0.5], [0.0, 0.7, 0.5]):
        with pytest.raises(ValueError):
            EventFrameStack(counts, edges, threshold_C=1.0)
    with pytest.raises(ValueError):
        EventFrameStack(counts, [[0.0, 0.5], [0.5, 1.0]], threshold_C=1.0)


# -- the per-bin loop the vectorized kernel replaced, kept as a reference ----


def _ref_slices(stream, edges):
    idx = np.searchsorted(stream.t, edges, side="left")
    idx[-1] = np.searchsorted(stream.t, edges[-1], side="right")
    return [slice(int(idx[k]), int(idx[k + 1])) for k in range(len(edges) - 1)]


def _ref_counts(stream, edges):
    T = len(edges) - 1
    h, w = stream.height, stream.width
    counts = np.zeros((T, h, w), dtype=np.float64)
    flat = stream.y * w + stream.x
    for k, sl in enumerate(_ref_slices(stream, edges)):
        if sl.stop > sl.start:
            counts[k] = np.bincount(
                flat[sl], weights=stream.polarity[sl].astype(np.float64), minlength=h * w
            ).reshape(h, w)
    return counts


def _ref_split_time(times, lo, hi):
    return 0.5 * (lo + hi)


def _ref_refine(edges, stream):
    """(edges, counts) of one bisection; ValueError on a zero-width bin."""
    new_edges = [edges[0]]
    for k, sl in enumerate(_ref_slices(stream, edges)):
        lo, hi = edges[k], edges[k + 1]
        new_edges.append(_ref_split_time(stream.t[sl], lo, hi))
        new_edges.append(hi)
    new_edges = np.asarray(new_edges, dtype=np.float64)
    if np.any(new_edges[1:] - new_edges[:-1] <= 0):
        raise ValueError("every interval needs positive duration")
    return new_edges, _ref_counts(stream, new_edges)


@st.composite
def tie_heavy_binnings(draw):
    """A stream on an integer grid of ticks (many events share a tick),
    with events on bin edges and at t_end, a stack that may cover only a
    sub-window of it, and 1-4 refinements."""
    unit = draw(st.sampled_from([1.0, 0.125, 0.1, 1e-3]))  # 0.1: edges off the grid
    grid = draw(st.integers(min_value=2, max_value=40))
    bin_ticks = draw(st.integers(min_value=1, max_value=grid))
    bin_duration = draw(st.sampled_from([bin_ticks * unit, bin_ticks * unit * 0.3]))
    ticks = draw(st.lists(st.integers(min_value=0, max_value=grid), min_size=1, max_size=100))
    on_edges = list(range(0, grid + 1, bin_ticks)) + [grid]
    ticks += draw(st.lists(st.sampled_from(on_edges), max_size=20))
    ticks.sort()
    n = len(ticks)
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    x = draw(st.lists(st.integers(0, w - 1), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, h - 1), min_size=n, max_size=n))
    p = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    stream = make_stream(np.asarray(ticks) * unit, x, y, p, width=w, height=h,
                         t_start=0.0, t_end=grid * unit)
    lo, hi = 0, grid
    if draw(st.booleans()):  # the stack covers a sub-window of the stream
        lo = draw(st.integers(0, grid - 1))
        hi = draw(st.integers(lo + 1, grid))
    return stream, lo * unit, hi * unit, bin_duration, draw(st.integers(1, 4))


# Four events tied at 0.9, one ulp past the edge 3 * 0.3 =
# 0.8999999999999999: a split at the median event time would leave a bin
# one ulp wide, and the next refinement a zero-wide one. Midpoints do not.
_ONE_ULP_TIE = (make_stream(np.array([1, 5, 9, 9, 9, 9, 12, 15]) * 0.1, [0] * 8, [0] * 8,
                            [1] * 8, width=1, height=1, t_start=0.0, t_end=2.0),
                0.0, 2.0, 0.3, 3)


@given(tie_heavy_binnings())
@example(_ONE_ULP_TIE)
@settings(deadline=None, max_examples=300)
def test_vectorized_binning_matches_per_bin_loop(case):
    stream, lo, hi, bin_duration, refinements = case
    piece = stream.slice_time(lo, hi, include_hi=True)
    stack = stack_uniform(piece, bin_duration, C=0.5)
    assert stack.edges[0] == lo and stack.edges[-1] == hi
    assert np.array_equal(stack.counts, _ref_counts(piece, stack.edges))
    assert len(piece) > 0 or not stack.counts.any()  # an empty piece: zero-count bins
    for _ in range(refinements):
        edges, counts = _ref_refine(stack.edges, stream)
        fine = refine_bins(stack, stream)
        assert np.array_equal(fine.edges, edges)
        assert np.array_equal(fine.counts, counts)
        # Each child is half its parent, to the rounding of its right edge.
        assert np.all(fine.durations > 0)
        half = np.repeat(stack.durations, 2) / 2
        assert np.all(np.abs(fine.durations - half) <= 2 * np.spacing(fine.edges[1:]))
        stack = fine


@pytest.mark.parametrize("shape, bins", [((64, 170), 11), ((1, BLOCK_PIXELS + 1), 3),
                                         ((2, 3), 5)])
def test_binning_in_chunks_of_bins_matches_the_per_bin_loop(shape, bins):
    """Frames of 64x170 pixels take 3 bins per bincount chunk, so 11 bins
    end in a partial chunk; a frame over BLOCK_PIXELS takes one bin per
    chunk, and tiny frames take every bin in one."""
    h, w = shape
    rng = np.random.default_rng(14)
    n = 20_000
    t = np.sort(rng.choice(rng.uniform(0.0, 1.0, n // 3), n))  # ties
    s = make_stream(t, rng.integers(0, w, n), rng.integers(0, h, n), rng.choice([-1, 1], n),
                    width=w, height=h, t_start=0.0, t_end=1.0)
    stack = stack_uniform(s, 1.0 / bins, C=0.5)
    assert stack.num_frames == bins
    assert np.array_equal(stack.counts, _ref_counts(s, stack.edges))
    fine = refine_bins(stack, s)
    assert np.array_equal(fine.counts, _ref_counts(s, fine.edges))


def test_binning_traces_the_stack_plus_one_chunk():
    """A float64 stack cast to int32 traced 3x the stack; chunked, the
    stack and one chunk's float64 sums (BLOCK_PIXELS values) and events."""
    rng = np.random.default_rng(15)
    n = 100_000
    t = np.sort(rng.uniform(0.0, 2.0, n))
    s = make_stream(t, rng.integers(0, 128, n), rng.integers(0, 128, n), rng.choice([-1, 1], n),
                    width=128, height=128, t_start=0.0, t_end=2.0)
    stack, peak = traced_peak(stack_uniform, s, 2.0 / 256, 0.25)
    assert stack.num_frames == 256
    signed = np.zeros((128, 128), dtype=np.int64)
    np.add.at(signed, (s.y, s.x), s.polarity)
    assert np.array_equal(stack.counts.sum(axis=0), signed)
    assert peak <= stack.counts.nbytes + BLOCK_PIXELS * 8 + (64 << 10)


def test_invalid_stacks_raise_typed_errors():
    counts = np.zeros((2, 1, 1))
    with pytest.raises(ShapeMismatch):
        EventFrameStack(counts, [0.0, 1.0], threshold_C=1.0)
    with pytest.raises(ShapeMismatch):
        EventFrameStack(np.zeros((0, 1, 1)), [0.0], threshold_C=1.0)
    with pytest.raises(NonPositiveThreshold):
        EventFrameStack(counts, [0.0, 0.5, 1.0], threshold_C=0.0)
    with pytest.raises(ZeroWidthBin, match=r"bin 1 of 2 spans \[0.5, 0.5\]"):
        EventFrameStack(counts, [0.0, 0.5, 0.5], threshold_C=1.0)
    with pytest.raises(ZeroWidthBin, match="bin 0 of 2"):
        EventFrameStack(counts, [np.nan, 0.5, 1.0], threshold_C=1.0)
    with pytest.raises(ZeroWidthBin):
        stack_uniform(simple_stream(), 0.0, C=1.0)
    with pytest.raises(NonPositiveThreshold):
        stack_uniform(simple_stream(), 0.5, C=-1.0)
    for cls in (ShapeMismatch, NonPositiveThreshold, ZeroWidthBin):
        assert issubclass(cls, EvreconError) and issubclass(cls, ValueError)
