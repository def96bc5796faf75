"""Event stream parsing, validation, and serialization.

Text format: one event per line, `t x y p`, whitespace separated. An
optional header line `# width W height H` fixes the sensor size; without
it the size is inferred as max coordinate + 1. Polarities are stored
internally as {-1, +1}; inputs using {0, 1} are remapped at parse time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InvalidDimensions,
    InvalidTimestamps,
    InvalidWindow,
    MalformedLine,
    PolarityOutOfRange,
    ShapeMismatch,
    UnknownName,
    UnsortedStream,
)

POLARITY_ENCODINGS = ("signed", "zero_one")


@dataclass
class EventStream:
    """Time-ordered events on a fixed sensor grid.

    Columns are stored as parallel arrays (t float64 seconds, x/y int64,
    polarity int64 in {-1,+1}) for vectorized accumulation. `t_start` and
    `t_end` bound the observation window; they may extend beyond the first
    and last event.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    polarity: np.ndarray
    width: int
    height: int
    t_start: float
    t_end: float

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.float64)
        self.x = np.asarray(self.x, dtype=np.int64)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.polarity = np.asarray(self.polarity, dtype=np.int64)
        n = len(self.t)
        if not (len(self.x) == len(self.y) == len(self.polarity) == n):
            raise ShapeMismatch("event columns must have equal length")
        if self.width < 1 or self.height < 1:
            raise InvalidDimensions(f"sensor must be at least 1x1, got {self.width}x{self.height}")
        if n:
            if np.any(np.diff(self.t) < 0):
                raise UnsortedStream("event timestamps decrease")
            if not np.all((self.polarity == 1) | (self.polarity == -1)):
                raise PolarityOutOfRange("polarities must be -1 or +1")
            if self.x.max() >= self.width or self.y.max() >= self.height:
                raise InvalidDimensions(
                    f"event coordinates exceed sensor {self.width}x{self.height}"
                )
            if self.x.min() < 0 or self.y.min() < 0:
                raise InvalidDimensions("negative event coordinates")
            if self.t[0] < self.t_start or self.t[-1] > self.t_end:
                raise InvalidWindow(f"event times fall outside [{self.t_start}, {self.t_end}]")
        if self.t_end < self.t_start:
            raise InvalidWindow(f"t_end {self.t_end} must be >= t_start {self.t_start}")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.t_start == other.t_start
            and self.t_end == other.t_end
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.polarity, other.polarity)
        )

    def slice_time(self, lo: float, hi: float, include_hi: bool = False) -> "EventStream":
        """Events with t in [lo, hi), or [lo, hi] when include_hi.

        The returned stream's window is exactly [lo, hi].
        """
        side = "right" if include_hi else "left"
        i0 = np.searchsorted(self.t, lo, side="left")
        i1 = np.searchsorted(self.t, hi, side=side)
        return EventStream(
            t=self.t[i0:i1].copy(),
            x=self.x[i0:i1].copy(),
            y=self.y[i0:i1].copy(),
            polarity=self.polarity[i0:i1].copy(),
            width=self.width,
            height=self.height,
            t_start=lo,
            t_end=hi,
        )


def first_not_increasing(t: np.ndarray) -> int | None:
    """Index of the first of the 1-D values `t` that does not exceed the
    one before it (NaN never does), or None when they strictly increase."""
    bad = np.flatnonzero(~(np.diff(t) > 0))
    return int(bad[0]) + 1 if bad.size else None


def check_increasing(t: np.ndarray) -> None:
    """Raise InvalidTimestamps at `first_not_increasing(t)`."""
    k = first_not_increasing(t)
    if k is not None:
        raise InvalidTimestamps(
            f"frame times must be strictly increasing: {t[k]} follows {t[k - 1]}", index=k
        )


def check_times(t) -> np.ndarray:
    """`t` as a float64 array, after checking that it is 1-D, non-empty,
    finite and strictly increasing. Raises InvalidTimestamps, with the
    `index` of the first time to blame when there is one."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1 or len(t) == 0:
        raise InvalidTimestamps("need a 1-D, non-empty array of times")
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        raise InvalidTimestamps(f"frame time {t[bad[0]]} is not finite", index=int(bad[0]))
    check_increasing(t)
    return t


def _negative_code(encoding: str) -> int:
    """The value that stands for polarity -1 in `encoding` (+1 is 1 in both)."""
    if encoding not in POLARITY_ENCODINGS:
        raise UnknownName(f"polarity encoding {encoding!r} is not one of {POLARITY_ENCODINGS}")
    return -1 if encoding == "signed" else 0


def _map_polarity(p_raw: np.ndarray, encoding: str) -> np.ndarray:
    neg = _negative_code(encoding)
    bad = ~((p_raw == neg) | (p_raw == 1))
    if np.any(bad):
        raise PolarityOutOfRange(f"{encoding} encoding expects {neg}/1, got {p_raw[bad][0]}")
    return p_raw if neg == -1 else np.where(p_raw == 0, -1, 1)


def parse_events(
    text: str,
    polarity_encoding: str = "zero_one",
    width: int | None = None,
    height: int | None = None,
) -> EventStream:
    """Parse the text of an event recording into an EventStream.

    Sensor size comes from (in priority order) the width/height arguments,
    a `# width W height H` header line, or max coordinate + 1. The stream
    window is [first event t, last event t]. An empty input yields an
    empty stream with a zero-length window.
    """
    ts, xs, ys, ps = [], [], [], []
    header_w = header_h = None
    for lineno, raw in enumerate(text_lines(text), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            if len(fields) == 4 and fields[0] == "width" and fields[2] == "height":
                try:
                    header_w, header_h = int(fields[1]), int(fields[3])
                except ValueError:
                    raise MalformedLine(lineno, raw, "bad header") from None
            continue
        fields = line.split()
        if len(fields) != 4:
            raise MalformedLine(lineno, raw, f"expected 4 fields, got {len(fields)}")
        try:
            t = float(fields[0])
            x = int(fields[1])
            y = int(fields[2])
            p = int(fields[3])
        except ValueError as exc:
            raise MalformedLine(lineno, raw, str(exc)) from None
        if not math.isfinite(t):
            raise MalformedLine(lineno, raw, f"time {t} is not finite")
        if ts and t < ts[-1]:
            raise UnsortedStream(f"line {lineno}: timestamp {t} after {ts[-1]}")
        ts.append(t)
        xs.append(x)
        ys.append(y)
        ps.append(p)

    t_arr = np.asarray(ts, dtype=np.float64)
    x_arr = np.asarray(xs, dtype=np.int64)
    y_arr = np.asarray(ys, dtype=np.int64)
    p_arr = _map_polarity(np.asarray(ps, dtype=np.int64), polarity_encoding)

    w = width if width is not None else header_w
    h = height if height is not None else header_h
    if w is None:
        w = int(x_arr.max()) + 1 if len(x_arr) else 1
    if h is None:
        h = int(y_arr.max()) + 1 if len(y_arr) else 1

    t0 = float(t_arr[0]) if len(t_arr) else 0.0
    t1 = float(t_arr[-1]) if len(t_arr) else 0.0
    return EventStream(t_arr, x_arr, y_arr, p_arr, width=w, height=h, t_start=t0, t_end=t1)


def write_events(stream: EventStream, polarity_encoding: str = "zero_one") -> str:
    """Serialize a stream to the text format, with its `# width W height H`
    header.

    Timestamps are written with 9 decimal places, so parse(write(s))
    reproduces s to nanosecond resolution. Event order is preserved.
    """
    if _negative_code(polarity_encoding) == 0:
        p_out = (stream.polarity > 0).astype(np.int64)
    else:
        p_out = stream.polarity
    out = [f"# width {stream.width} height {stream.height}"]
    for t, x, y, p in zip(stream.t, stream.x, stream.y, p_out):
        out.append(f"{t:.9f} {x} {y} {p}")
    return "\n".join(out) + "\n"


def text_lines(text: str) -> list:
    """The lines of `text`, without their ends, split as open() splits
    them: at "\\n", "\\r\\n" or a lone "\\r" (universal newlines)."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_utf8(path, error) -> str:
    """The UTF-8 text of the file at `path`; at a byte that is not UTF-8,
    raises error(line number, line) for its line (`text_lines`), decoded
    with U+FFFD."""
    data = Path(path).read_bytes()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        lineno = len(text_lines(data[:exc.start].decode()))
        raise error(lineno, text_lines(data.decode(errors="replace"))[lineno - 1]) from None


def read_times(path) -> np.ndarray:
    """Read a times.txt sidecar: one time (seconds) per line, strictly
    increasing. Raises InvalidTimestamps naming the file and line."""
    text = read_utf8(path, lambda n, line: InvalidTimestamps(
        f"{path}:{n}: not UTF-8 text: {line!r}"))
    vals, linenos = [], []
    for lineno, line in enumerate(text_lines(text), start=1):
        if not line.strip():
            continue
        try:
            vals.append(float(line))
        except ValueError:
            raise InvalidTimestamps(f"{path}:{lineno}: not a time: {line.strip()!r}") from None
        linenos.append(lineno)
    try:
        return check_times(vals)
    except InvalidTimestamps as exc:
        where = path if exc.index is None else f"{path}:{linenos[exc.index]}"
        raise InvalidTimestamps(f"{where}: {exc}") from None


def write_times(path, times: np.ndarray) -> None:
    with open(path, "w") as fh:
        for t in times:
            fh.write(f"{t:.9f}\n")
