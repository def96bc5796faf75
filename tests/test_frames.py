import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evrecon.errors import EmptyStream
from evrecon.frames import EventFrameStack, refine_bins, stack_uniform

from conftest import make_stream


def simple_stream():
    # pixel (0,0): +1 at 0.1, +1 at 0.2, -1 at 0.9, window [0, 1]
    return make_stream([0.1, 0.2, 0.9], [0, 0, 0], [0, 0, 0], [1, 1, -1],
                       width=2, height=2, t_start=0.0, t_end=1.0)


def test_stack_accumulates_polarity_times_C():
    stack = stack_uniform(simple_stream(), 0.5, C=1.0)
    assert stack.num_frames == 2
    assert stack.frames[0][0, 0] == 2.0
    assert stack.frames[1][0, 0] == -1.0


def test_stack_linear_in_C():
    stack = stack_uniform(simple_stream(), 0.5, C=0.25)
    assert stack.frames[0][0, 0] == 0.5
    assert stack.frames[1][0, 0] == -0.25
    base = stack_uniform(simple_stream(), 0.5, C=1.0)
    assert np.array_equal(stack.frames, 0.25 * base.frames)


def test_pixels_without_events_are_zero():
    stack = stack_uniform(simple_stream(), 0.5, C=1.0)
    assert np.all(stack.frames[:, 1, :] == 0.0)
    assert np.all(stack.frames[:, :, 1] == 0.0)


def test_stack_empty_stream_raises():
    s = make_stream([], [], [], [], width=2, height=2, t_start=0.0, t_end=1.0)
    with pytest.raises(EmptyStream):
        stack_uniform(s, 0.5, 1.0)


def test_bin_count_is_ceiling():
    s = make_stream([0.0, 1.9], [0, 0], [0, 0], [1, 1], width=1, height=1,
                    t_start=0.0, t_end=1.9)
    stack = stack_uniform(s, 0.5, 1.0)
    assert stack.num_frames == 4
    assert stack.intervals[-1, 1] == 1.9


def test_boundary_event_goes_to_later_interval():
    s = make_stream([0.5], [0], [0], [1], width=1, height=1, t_start=0.0, t_end=1.0)
    stack = stack_uniform(s, 0.5, 1.0)
    assert stack.frames[0][0, 0] == 0.0
    assert stack.frames[1][0, 0] == 1.0


def test_last_interval_includes_endpoint():
    s = make_stream([1.0], [0], [0], [1], width=1, height=1, t_start=0.0, t_end=1.0)
    stack = stack_uniform(s, 0.5, 1.0)
    assert stack.frames[1][0, 0] == 1.0


def test_midpoints_and_tiling():
    stack = stack_uniform(simple_stream(), 0.3, C=1.0)
    assert np.array_equal(stack.midpoints, stack.intervals.mean(axis=1))
    assert np.all(stack.intervals[1:, 0] == stack.intervals[:-1, 1])
    assert stack.t_start == 0.0 and stack.t_end == 1.0


def test_refine_splits_at_median_pair_midpoint():
    s = make_stream([0.1, 0.2, 0.3, 0.4], [0, 0, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1],
                    width=1, height=1, t_start=0.0, t_end=1.0)
    stack = stack_uniform(s, 1.0, C=1.0)
    fine = refine_bins(stack, s)
    assert fine.num_frames == 2
    assert fine.intervals[0, 1] == pytest.approx(0.25)
    assert fine.counts[0][0, 0] == 2 and fine.counts[1][0, 0] == 2


def test_refine_empty_interval_splits_at_midpoint():
    s = make_stream([0.1], [0], [0], [1], width=1, height=1, t_start=0.0, t_end=2.0)
    stack = stack_uniform(s, 1.0, C=1.0)  # second bin [1, 2] holds no events
    fine = refine_bins(stack, s)
    assert fine.num_frames == 4
    assert fine.intervals[2, 1] == pytest.approx(1.5)
    assert np.all(fine.counts[2:] == 0.0)


def test_refine_clamps_degenerate_split_to_midpoint():
    # both median events sit on the interval start; split must stay interior
    s = make_stream([0.0, 0.0], [0, 0], [0, 0], [1, 1], width=1, height=1,
                    t_start=0.0, t_end=1.0)
    stack = stack_uniform(s, 1.0, C=1.0)
    fine = refine_bins(stack, s)
    assert fine.intervals[0, 1] == pytest.approx(0.5)
    assert np.all(fine.durations > 0)


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
    assert fine.intervals[0, 0] == stack.t_start
    assert fine.intervals[-1, 1] == stack.t_end


def test_refine_balances_distinct_timestamps():
    rng = np.random.default_rng(7)
    t = np.sort(rng.uniform(0.0, 1.0, 31))  # distinct with probability 1
    s = make_stream(t, np.zeros(31, int), np.zeros(31, int), np.ones(31, int),
                    width=1, height=1, t_start=0.0, t_end=1.0)
    stack = stack_uniform(s, 1.0, C=1.0)
    fine = refine_bins(stack, s)
    left, right = fine.counts[0][0, 0], fine.counts[1][0, 0]
    assert abs(left - right) <= 1
