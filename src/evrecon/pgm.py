"""Minimal portable graymap (PGM) I/O for 8-bit frames.

Binary P5 is written; both P5 and ASCII P2 are read. Output is byte-exact
and dependency free, which keeps frame artifacts diffable in tests.

A frame directory holds frame i of a video as `frame_filename(i)` and its
time as line i of `times.txt`, the directory's one index: reading and
sweeping walk i = 0, 1, ... and never list, glob or sort file names, so
files of any other name are never read or removed.
"""

from __future__ import annotations

import re
from itertools import count, takewhile
from pathlib import Path

import numpy as np

from .errors import InvalidPGM
from .events import read_times, write_times


def write_pgm(path, frame: np.ndarray) -> None:
    """Write a uint8 H x W array as binary PGM (P5, maxval 255)."""
    arr = np.asarray(frame)
    if arr.ndim != 2:
        raise InvalidPGM(f"expected 2-D frame, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        if np.issubdtype(arr.dtype, np.integer) and arr.min() >= 0 and arr.max() <= 255:
            arr = arr.astype(np.uint8)
        else:
            raise InvalidPGM("frame must be uint8 (or integer within [0, 255])")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit PGM (P5 binary or P2 ASCII) into a uint8 array."""
    data = Path(path).read_bytes()
    # header: magic, width, height, maxval, separated by whitespace/comments
    tokens = []
    pos = 0
    while len(tokens) < 4:
        m = re.match(rb"\s*(#[^\n]*\n|\S+)", data[pos:])
        if m is None:
            raise InvalidPGM(f"{path}: truncated PGM header")
        tok = m.group(1)
        pos += m.end()
        if not tok.startswith(b"#"):
            tokens.append(tok)
    magic = tokens[0]
    try:
        w, h, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise InvalidPGM(f"{path}: non-integer PGM header {b' '.join(tokens)!r}") from None
    if w < 1 or h < 1 or not 1 <= maxval <= 255:
        raise InvalidPGM(f"{path}: only 8-bit PGM of positive size supported "
                         f"({w}x{h}, maxval {maxval})")
    if magic == b"P5":
        raster = data[pos + 1 : pos + 1 + w * h]  # single whitespace after maxval
        if len(raster) < w * h:
            raise InvalidPGM(f"{path}: truncated PGM raster")
        vals = np.frombuffer(raster, dtype=np.uint8)
    elif magic == b"P2":
        try:
            vals = np.array(data[pos:].split(), dtype=np.int64)
        except ValueError:
            raise InvalidPGM(f"{path}: non-integer P2 sample") from None
        if vals.size != w * h:
            raise InvalidPGM(f"{path}: expected {w * h} samples, got {vals.size}")
    else:
        raise InvalidPGM(f"{path}: unsupported magic {magic!r}")
    bad = np.flatnonzero((vals < 0) | (vals > maxval))
    if bad.size:
        raise InvalidPGM(f"{path}: sample {bad[0]} is {vals[bad[0]]}, outside [0, {maxval}]")
    return vals.astype(np.uint8).reshape(h, w)


def frame_filename(index: int) -> str:
    return f"frame_{index:06d}.pgm"


def numbered_paths(directory, name, start: int, stop: int | None = None):
    """directory / name(i) for i = start, start + 1, ... below `stop`, up
    to the first that does not exist: the files of a run indexed by i."""
    indices = count(start) if stop is None else range(start, stop)
    return takewhile(Path.exists, (Path(directory) / name(i) for i in indices))


def write_frame_dir(out_dir, frames: np.ndarray, times: np.ndarray) -> None:
    """Write frame i as frame_filename(i), and line i of times.txt as its
    time. The frames of an earlier, longer write into the same directory,
    frame_filename(i) for i from len(frames) up to the first missing name,
    are removed; no other file is touched."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        write_pgm(out / frame_filename(i), frame)
    for path in numbered_paths(out, frame_filename, len(frames)):
        path.unlink()
    write_times(out / "times.txt", np.asarray(times))


def read_frame_dir(in_dir) -> tuple[np.ndarray, np.ndarray]:
    """Read a directory written by write_frame_dir. Returns (frames, times):
    frame_filename(i) for each line i of times.txt, at that line's time.
    Without times.txt, frames i = 0, 1, ... up to the first missing name,
    at times 0, 1, .... InvalidPGM when times.txt has more lines than
    there are frames; frames past its length are not read."""
    src = Path(in_dir)
    times_path = src / "times.txt"
    times = read_times(times_path) if times_path.exists() else None
    paths = list(numbered_paths(src, frame_filename, 0, None if times is None else len(times)))
    if not paths:
        raise FileNotFoundError(f"no {frame_filename(0)} in {src}")
    if times is None:
        times = np.arange(len(paths), dtype=np.float64)
    elif len(times) != len(paths):
        raise InvalidPGM(f"{src}: times.txt length {len(times)} != {len(paths)} frames")
    frames = [read_pgm(p) for p in paths]
    for p, frame in zip(paths, frames):
        if frame.shape != frames[0].shape:
            raise InvalidPGM(f"{p}: frame is {frame.shape[1]}x{frame.shape[0]}, "
                             f"{paths[0].name} is {frames[0].shape[1]}x{frames[0].shape[0]}")
    return np.stack(frames), times
