"""Minimal portable graymap (PGM) I/O for 8-bit frames.

Binary P5 is written; both P5 and ASCII P2 are read. Output is byte-exact
and dependency free, which keeps frame artifacts diffable in tests.
"""

from __future__ import annotations

import re
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


def write_frame_dir(out_dir, frames: np.ndarray, times: np.ndarray) -> None:
    """Write frames as frame_%06d.pgm plus a times.txt sidecar. The
    frame files of an earlier, longer write into the same directory, those
    named frame_filename(i) for i >= len(frames), are removed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        write_pgm(out / frame_filename(i), frame)
    for path in out.glob("frame_*.pgm"):
        index = re.fullmatch(r"frame_([0-9]+)\.pgm", path.name)
        if index and int(index[1]) >= len(frames) and frame_filename(int(index[1])) == path.name:
            path.unlink()
    write_times(out / "times.txt", np.asarray(times))


def read_frame_dir(in_dir) -> tuple[np.ndarray, np.ndarray]:
    """Read a directory written by write_frame_dir. Returns (frames, times)."""
    src = Path(in_dir)
    paths = sorted(src.glob("frame_*.pgm"))
    if not paths:
        raise FileNotFoundError(f"no frame_*.pgm files in {src}")
    frames = [read_pgm(p) for p in paths]
    for p, frame in zip(paths, frames):
        if frame.shape != frames[0].shape:
            raise InvalidPGM(f"{p}: frame is {frame.shape[1]}x{frame.shape[0]}, "
                             f"{paths[0].name} is {frames[0].shape[1]}x{frames[0].shape[0]}")
    frames = np.stack(frames)
    times_path = src / "times.txt"
    if times_path.exists():
        times = read_times(times_path)
        if len(times) != len(frames):
            raise InvalidPGM(f"{src}: times.txt length {len(times)} != {len(frames)} frames")
    else:
        times = np.arange(len(frames), dtype=np.float64)
    return frames, times
