import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evrecon.errors import (
    EmptyStream,
    EvreconError,
    InvalidDimensions,
    InvalidTimestamps,
    InvalidWindow,
    MalformedLine,
    PolarityOutOfRange,
    ShapeMismatch,
    UnknownName,
    UnsortedStream,
)
from evrecon.events import EventStream, check_times, parse_events, write_events
from evrecon.frames import stack_uniform

from conftest import make_stream


def test_parse_zero_one_line():
    s = parse_events("0.003811000 57 38 1\n", polarity_encoding="zero_one")
    assert len(s) == 1
    assert (s.t[0], s.x[0], s.y[0], s.polarity[0]) == (0.003811, 57, 38, 1)


def test_parse_zero_maps_to_negative():
    s = parse_events("0.5 3 4 0", polarity_encoding="zero_one")
    assert s.polarity[0] == -1


def test_parse_signed_encoding():
    s = parse_events("0.1 1 2 -1\n0.2 1 2 1\n", polarity_encoding="signed")
    assert list(s.polarity) == [-1, 1]


def test_empty_input_gives_empty_stream():
    s = parse_events("")
    assert len(s) == 0
    with pytest.raises(EmptyStream):
        stack_uniform(s, 0.1, 1.0)


def test_parse_infers_dimensions_from_max_coordinate():
    s = parse_events("0.0 10 20 1\n0.1 3 4 1\n")
    assert (s.width, s.height) == (11, 21)


def test_header_sets_dimensions():
    s = parse_events("# width 128 height 96\n0.0 10 20 1\n")
    assert (s.width, s.height) == (128, 96)


def test_explicit_dimensions_override_header():
    s = parse_events("# width 128 height 96\n0.0 10 20 1\n", width=200, height=150)
    assert (s.width, s.height) == (200, 150)


def test_dimensions_too_small_rejected():
    with pytest.raises(InvalidDimensions):
        parse_events("0.0 10 20 1\n", width=5, height=5)


def test_malformed_line_reports_line_number():
    with pytest.raises(MalformedLine) as exc:
        parse_events("0.0 1 1 1\n0.1 2 oops 1\n")
    assert exc.value.line_number == 2


def test_wrong_field_count_is_malformed():
    with pytest.raises(MalformedLine):
        parse_events("0.0 1 1\n")


def test_unsorted_stream_rejected():
    with pytest.raises(UnsortedStream):
        parse_events("0.2 1 1 1\n0.1 1 1 1\n")


def test_polarity_out_of_range():
    with pytest.raises(PolarityOutOfRange):
        parse_events("0.0 1 1 2\n", polarity_encoding="zero_one")
    with pytest.raises(PolarityOutOfRange):
        parse_events("0.0 1 1 0\n", polarity_encoding="signed")


def test_write_signed_format_exact():
    s = make_stream([0.25], [0], [0], [-1])
    text = write_events(s, polarity_encoding="signed")
    assert text == "# width 1 height 1\n0.250000000 0 0 -1\n"


def test_write_three_events_three_lines():
    s = make_stream([0.1, 0.2, 0.3], [0, 1, 2], [0, 0, 0], [1, -1, 1])
    lines = [l for l in write_events(s).splitlines() if l and not l.startswith("#")]
    assert len(lines) == 3


def _write_per_event(stream, polarity_encoding):
    """The writer before it formatted in one pass: one f-string per event
    over numpy scalars."""
    p_out = (stream.polarity > 0).astype(np.int64) if polarity_encoding == "zero_one" \
        else stream.polarity
    out = [f"# width {stream.width} height {stream.height}"]
    for t, x, y, p in zip(stream.t, stream.x, stream.y, p_out):
        out.append(f"{t:.9f} {x} {y} {p}")
    return "\n".join(out) + "\n"


@given(
    st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_subnormal=True),
            st.integers(min_value=0, max_value=2**40),
            st.integers(min_value=0, max_value=79),
            st.sampled_from([-1, 1]),
        ),
        max_size=30,
    ),
    st.sampled_from(["signed", "zero_one"]),
)
@settings(deadline=None, max_examples=80)
def test_writer_matches_the_per_event_writer_byte_for_byte(raw, encoding):
    """Any times (negative, -0.0, subnormal, past 9 decimals), wide
    coordinates and both encodings; an empty stream is its header line."""
    raw.sort(key=lambda r: r[0])
    t = [r[0] for r in raw]
    s = make_stream(t, [r[1] for r in raw], [r[2] for r in raw], [r[3] for r in raw],
                    width=2**40 + 1, height=80, t_start=t[0] if t else 0.0,
                    t_end=t[-1] if t else 0.0)
    text = write_events(s, polarity_encoding=encoding)
    assert text == _write_per_event(s, encoding)
    if not raw:
        assert text == "# width 1099511627777 height 80\n"


def test_round_trip_preserves_ties_order():
    s = make_stream([0.5, 0.5, 0.5], [3, 1, 2], [0, 0, 0], [1, -1, 1])
    back = parse_events(write_events(s))
    assert list(back.x) == [3, 1, 2]


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000_000),  # microseconds
            st.integers(min_value=0, max_value=99),
            st.integers(min_value=0, max_value=79),
            st.sampled_from([-1, 1]),
        ),
        min_size=1,
        max_size=60,
    ),
    st.sampled_from(["signed", "zero_one"]),
)
@settings(deadline=None, max_examples=60)
def test_round_trip_identity(raw, encoding):
    raw.sort(key=lambda r: r[0])
    t = [r[0] / 1e6 for r in raw]
    s = make_stream(t, [r[1] for r in raw], [r[2] for r in raw], [r[3] for r in raw],
                    width=100, height=80)
    back = parse_events(write_events(s, polarity_encoding=encoding),
                        polarity_encoding=encoding, width=100, height=80)
    assert len(back) == len(s)
    assert np.allclose(back.t, s.t, atol=5e-10, rtol=0)
    assert np.array_equal(back.x, s.x)
    assert np.array_equal(back.y, s.y)
    assert np.array_equal(back.polarity, s.polarity)


def test_slice_time_half_open():
    s = make_stream([0.0, 0.5, 1.0], [0, 1, 2], [0, 0, 0], [1, 1, 1])
    mid = s.slice_time(0.0, 0.5)
    assert len(mid) == 1
    last = s.slice_time(0.5, 1.0, include_hi=True)
    assert len(last) == 2
    assert (last.t_start, last.t_end) == (0.5, 1.0)


def test_slice_time_views_the_stream_read_only():
    s = make_stream([0.0, 0.5, 1.0], [0, 1, 2], [0, 0, 0], [1, -1, 1])
    piece = s.slice_time(0.25, 1.0, include_hi=True)
    for name in ("t", "x", "y", "polarity"):
        col = getattr(piece, name)
        assert np.shares_memory(col, getattr(s, name)) and not col.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            col[0] = col[-1]
    assert piece.polarity.tolist() == [-1, 1] and s.polarity.tolist() == [1, -1, 1]
    s.t[1] = 0.75  # the caller's stream stays writeable, and the view shows the write
    assert piece.t[0] == 0.75


@pytest.mark.parametrize("t, t_start, t_end, error, index", [
    ([0.1, np.nan, 0.3], 0.0, 1.0, InvalidTimestamps, 1),
    ([0.1, 0.2, np.inf], 0.0, 1.0, InvalidTimestamps, 2),
    ([-np.inf, 0.2], 0.0, 1.0, InvalidTimestamps, 0),
    ([np.nan], 0.0, 1.0, InvalidTimestamps, 0),
    ([0.1, 0.3], np.nan, 1.0, InvalidWindow, None),
    ([0.1, 0.3], 0.0, np.nan, InvalidWindow, None),
    ([], np.nan, np.nan, InvalidWindow, None),
    ([], 0.0, np.inf, InvalidWindow, None),
])
def test_stream_rejects_times_that_are_not_finite(t, t_start, t_end, error, index):
    n = len(t)
    with pytest.raises(error, match="not finite") as info:
        EventStream(t, [0] * n, [0] * n, [1] * n, 1, 1, t_start, t_end)
    assert getattr(info.value, "index", None) == index


def test_slice_time_rejects_a_nan_bound():
    s = make_stream([0.1, 0.2, 0.3], [0, 0, 0], [0, 0, 0], [1, 1, 1])
    with pytest.raises(InvalidWindow, match="not finite"):
        s.slice_time(np.nan, 0.5)


@pytest.mark.parametrize("times, index", [([], None), ([[0.0, 1.0]], None), (0.5, None),
                                          ([0.0, np.nan, 1.0], 1), ([0.0, np.inf], 1),
                                          ([0.0, 1.0, 1.0], 2), ([0.0, 2.0, 1.0], 2)])
def test_check_times_rejects_times_that_are_not_a_finite_increasing_vector(times, index):
    with pytest.raises(InvalidTimestamps) as info:
        check_times(times)
    assert info.value.index == index


def test_check_times_returns_float64_times():
    t = check_times([0, 1, 3])
    assert t.dtype == np.float64 and t.tolist() == [0.0, 1.0, 3.0]


@pytest.mark.parametrize("make, error", [
    (lambda: EventStream([0.0], [0, 0], [0], [1], 1, 1, 0.0, 1.0), ShapeMismatch),
    (lambda: EventStream([2.0], [0], [0], [1], 1, 1, 0.0, 1.0), InvalidWindow),
    (lambda: EventStream([], [], [], [], 1, 1, 1.0, 0.0), InvalidWindow),
    (lambda: parse_events("0.0 1 1 1\n", polarity_encoding="plus_minus"), UnknownName),
    (lambda: write_events(make_stream([0.1], [0], [0], [1]), polarity_encoding="bits"),
     UnknownName),
])
def test_stream_errors_are_typed_value_errors(make, error):
    with pytest.raises(error) as info:
        make()
    assert isinstance(info.value, EvreconError) and isinstance(info.value, ValueError)
