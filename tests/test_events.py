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
from evrecon.events import (
    POLARITY_ENCODINGS,
    EventStream,
    check_times,
    parse_events,
    write_events,
)
from evrecon.frames import stack_uniform

from conftest import make_stream


def test_parse_zero_one_line():
    s = parse_events("0.003811000 57 38 1\n")
    assert len(s) == 1
    assert (s.t[0], s.x[0], s.y[0], s.polarity[0]) == (0.003811, 57, 38, 1)


def test_parse_zero_maps_to_negative():
    s = parse_events("0.5 3 4 0")
    assert s.polarity[0] == -1


def test_parse_signed_encoding():
    s = parse_events("0.1 1 2 -1\n0.2 1 2 1\n")
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
    """The header without a window reads as before: the window is the
    events' own span."""
    s = parse_events("# width 128 height 96\n0.0 10 20 1\n0.5 1 2 0\n")
    assert (s.width, s.height, s.t_start, s.t_end) == (128, 96, 0.0, 0.5)


def test_header_sets_the_window():
    s = parse_events("# a comment\n# width 8 height 4 t_start 0.0 t_end 2.0\n0.5 1 2 1\n")
    assert (s.width, s.height, s.t_start, s.t_end) == (8, 4, 0.0, 2.0)
    empty = parse_events("# width 2 height 2 t_start 1e9 t_end 1000000001.5\n")
    assert (len(empty), empty.t_start, empty.t_end) == (0, 1e9, 1000000001.5)


@pytest.mark.parametrize("header", ["# width 8 height 4 t_start soon t_end 2.0",
                                    "# width 8 height 4 t_start 0.0 t_end 2,5",
                                    "# width 8.0 height 4"])
def test_a_header_value_that_does_not_parse_is_malformed(header):
    with pytest.raises(MalformedLine) as exc:
        parse_events(f"{header}\n0.5 1 2 1\n")
    assert exc.value.line_number == 1


@pytest.mark.parametrize("window", ["t_start 0.6 t_end 2.0", "t_start 0.0 t_end 0.25",
                                    "t_start 2.0 t_end 1.0", "t_start nan t_end 1.0"])
def test_a_header_window_that_does_not_hold_the_events_is_invalid(window):
    with pytest.raises(InvalidWindow):
        parse_events(f"# width 8 height 4 {window}\n0.5 1 2 1\n")


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
    with pytest.raises(PolarityOutOfRange, match=r"\[2\]"):
        parse_events("0.0 1 1 2\n")
    with pytest.raises(PolarityOutOfRange, match=r"\[-1, 0\]"):
        parse_events("0.0 1 1 0\n0.1 1 1 1\n0.2 1 1 -1\n")


def _map_by_encoding(p_raw, encoding):
    """The mapping the reader applied when the encoding was an argument:
    -1 ("signed") or 0 ("zero_one") is OFF, 1 is ON, anything else is
    rejected (None)."""
    neg = -1 if encoding == "signed" else 0
    if not np.all((p_raw == neg) | (p_raw == 1)):
        return None
    return np.where(p_raw == neg, -1, 1)


@given(st.lists(st.sampled_from([-1, 0, 1, 1, 2, -2]), max_size=12))
@settings(deadline=None, max_examples=200)
def test_the_off_code_read_from_the_data_maps_as_the_encoding_did(codes):
    """Every column the old encoding argument accepted, under either
    value, parses to the same polarities; a column holding both 0 and -1,
    or a value outside {-1, 0, 1}, is PolarityOutOfRange."""
    text = "".join(f"{i * 0.125!r} 0 0 {p}\n" for i, p in enumerate(codes))
    p_raw = np.asarray(codes, dtype=np.int64)
    accepted = [m for m in (_map_by_encoding(p_raw, e) for e in ("signed", "zero_one"))
                if m is not None]
    mixed = {0, -1} <= set(codes)
    if accepted:
        assert all(np.array_equal(parse_events(text).polarity, m) for m in accepted)
    else:
        assert mixed or not set(codes) <= {-1, 0, 1}
        with pytest.raises(PolarityOutOfRange):
            parse_events(text)


def test_write_signed_format_exact():
    s = make_stream([0.25], [0], [0], [-1])
    text = write_events(s, polarity_encoding="signed")
    assert text == "# width 1 height 1 t_start 0.25 t_end 0.25\n0.250000000 0 0 -1\n"


@pytest.mark.parametrize("t, t_start, t_end", [
    ([0.077155416, 1.922874682], 0.0, 119 / 60),  # a clip whose events start late, end early
    ([1e9 + 0.101, 1e9 + 1.5], 1e9 + 0.1, 1e9 + 2.0000000004),
])
@pytest.mark.parametrize("encoding", POLARITY_ENCODINGS)
def test_round_trip_keeps_the_window(t, t_start, t_end, encoding):
    s = make_stream(t, [0, 1], [0, 0], [1, -1], width=2, height=1, t_start=t_start, t_end=t_end)
    back = parse_events(write_events(s, polarity_encoding=encoding))
    assert (back.t_start, back.t_end) == (t_start, t_end) and back == s


def test_the_written_window_holds_the_events_as_written():
    """At nine decimals an event at 2/3 s is written as 0.666666667, past
    the window's end 2/3: the written window widens to hold it."""
    s = make_stream([0.0, 2 / 3], [0, 1], [0, 0], [-1, 1], t_start=0.0, t_end=2 / 3)
    text = write_events(s)
    assert text.splitlines()[0] == "# width 2 height 1 t_start 0.0 t_end 0.666666667"
    back = parse_events(text)
    assert (back.t_start, back.t_end) == (0.0, 0.666666667) and back.t[-1] == back.t_end
    early = make_stream([1 / 3], [0], [0], [1], t_start=1 / 3, t_end=1.0)
    assert parse_events(write_events(early)).t_start == 0.333333333


def test_write_three_events_three_lines():
    s = make_stream([0.1, 0.2, 0.3], [0, 1, 2], [0, 0, 0], [1, -1, 1])
    lines = [l for l in write_events(s).splitlines() if l and not l.startswith("#")]
    assert len(lines) == 3


def _write_per_event(stream, polarity_encoding):
    """The writer before it formatted in one pass: one f-string per event
    over numpy scalars, after a header whose window is widened to the
    first and last times as they read back from the written lines."""
    p_out = (stream.polarity > 0).astype(np.int64) if polarity_encoding == "zero_one" \
        else stream.polarity
    out = [f"{t:.9f} {x} {y} {p}" for t, x, y, p in zip(stream.t, stream.x, stream.y, p_out)]
    written = [float(line.split()[0]) for line in out]
    t0, t1 = min([stream.t_start, *written[:1]]), max([stream.t_end, *written[-1:]])
    header = f"# width {stream.width} height {stream.height} t_start {t0!r} t_end {t1!r}"
    return "\n".join([header, *out]) + "\n"


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
        assert text == "# width 1099511627777 height 80 t_start 0.0 t_end 0.0\n"


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
    back = parse_events(write_events(s, polarity_encoding=encoding), width=100, height=80)
    assert len(back) == len(s) and (back.t_start, back.t_end) == (back.t[0], back.t[-1])
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
    (lambda: parse_events("0.0 1 1 0\n0.1 1 1 -1\n"), PolarityOutOfRange),
    (lambda: write_events(make_stream([0.1], [0], [0], [1]), polarity_encoding="bits"),
     UnknownName),
])
def test_stream_errors_are_typed_value_errors(make, error):
    with pytest.raises(error) as info:
        make()
    assert isinstance(info.value, EvreconError) and isinstance(info.value, ValueError)
