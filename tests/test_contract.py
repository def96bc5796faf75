"""The command line's contract, as one property.

Any event file with any config either reconstructs, or fails with a typed
error: `cli.main` returns 0, or prints one `error: ...` line and returns
1. Tiny event files (1x1 to 4x4 pixels, 1-60 events) with heavy ties,
sub-ns spans, times near 1e9 s, either OFF code (0 or -1), and at times
a non-finite or unsorted time or both OFF codes in one file (which must
fail), go through `reconstruct`, then `enhance --checkpoints` on its
output, then `evaluate` of the run against itself.
An enhancement at a subset of its times must give the same bytes there:
a frame is a function of the run and its time.
Config, timestamp and partition-listing files are at times raw bytes,
and the scores file is named with or without a suffix.
At hidden width 4 nearly every stage trains in feature space. After each
case no helper process may be left running, and a self-evaluation, where
the frames are large enough to score, reads MSE 0 and SSIM 1.

A second property closes the loop from `simulate`: a small clip
(8-16 pixels a side, at most 1 s and 60 frames) with its frames dumped
reconstructs at the reference's times or fails typed, and where the
frames are large enough to score, `evaluate` against the reference
scores one row per reference frame.

The default profile keeps the property to a few seconds. Set
EVRECON_CONTRACT_PROFILE=thorough for a longer search.
"""

from __future__ import annotations

import contextlib
import csv
import io
import multiprocessing
import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from evrecon.cli import main
from evrecon.events import POLARITY_ENCODINGS, write_times
from evrecon.pgm import read_frame_dir
from evrecon.simulate import SCENE_KINDS

settings.register_profile("contract", max_examples=40, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("thorough", max_examples=300, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
PROFILE = settings.get_profile(os.environ.get("EVRECON_CONTRACT_PROFILE", "contract"))


@st.composite
def event_files(draw):
    """(text, the times the events tick at, whether it mixes OFF codes)."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = draw(st.integers(1, 60))
    base, unit = draw(st.sampled_from([(0.0, 0.05), (0.0, 1e-10), (1e9, 1e-3), (3.0, 0.25)]))
    grid = [base + tick * unit for tick in range(9)]
    ticks = sorted(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)))  # ties
    times = [repr(grid[tick]) for tick in ticks]
    flaw = draw(st.sampled_from([None] * 6 + ["nan", "inf", "unsorted", "mixed"]))
    if flaw == "unsorted" and n > 1 and ticks[0] != ticks[-1]:
        times[0], times[-1] = times[-1], times[0]
    elif flaw in ("nan", "inf"):
        times[draw(st.integers(0, n - 1))] = flaw
    off = draw(st.sampled_from(["0", "-1"]))
    codes = [draw(st.sampled_from(["1", off])) for _ in times]
    mixed = flaw == "mixed" and n > 1
    if mixed:
        codes[0], codes[-1] = "0", "-1"
    lines = [f"# width {width} height {height}"]
    for t, p in zip(times, codes):
        x, y = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        lines.append(f"{t} {x} {y} {p}")
    return "\n".join(lines) + "\n", grid, mixed


def raw_or(text: str, odds: int):
    """`text` as bytes, or once in `odds` + 1 draws arbitrary bytes."""
    return st.one_of(*[st.just(text.encode())] * odds, st.binary(max_size=40))


@st.composite
def config_texts(draw):
    """A tiny training config."""
    tau = draw(st.sampled_from([0.05, 0.5, 5.0]))
    lines = ["hidden_features = 4", "total_iters = 3",
             f"refine_at_iters = {draw(st.sampled_from(['', '1', '1, 2']))}",
             f"initial_bin = {draw(st.sampled_from([1e-3, 0.01, 1 / 32, 0.5]))!r}",
             f"partition_tau = {tau!r}",
             f"overlap = {draw(st.sampled_from([0.0, 0.01, 0.02]))!r}",
             f"lambda_reg = {draw(st.sampled_from([0.0, 0.05]))!r}"]
    return "\n".join(lines) + "\n"


@st.composite
def configs(draw):
    """(config file bytes, --threads)."""
    return draw(raw_or(draw(config_texts()), 9)), draw(st.sampled_from(["1", "2"]))


@st.composite
def frame_times(draw, grid):
    """--fps, or --timestamps with the bytes of a times file: times on
    and between the events' ticks, or arbitrary bytes."""
    if draw(st.booleans()):
        return ["--fps", draw(st.sampled_from(["1", "30", "1000"]))], None
    times = sorted(draw(st.lists(st.sampled_from(grid[:-1]), min_size=1, max_size=5)))
    text = "".join(f"{t!r}\n" for t in times)
    return ["--timestamps"], draw(raw_or(text, 4))


def run(argv) -> tuple[int, str]:
    """cli.main's exit code and what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_outcome(code: int, err: str) -> bool:
    """True for a success; a failure must be exit 1 with one error line."""
    assert code in (0, 1), code
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    return code == 0


def check_frames(out: Path) -> tuple:
    """One frame per requested time, all of them finite; returns (frames,
    times)."""
    frames, times = read_frame_dir(out)
    assert len(frames) == len(times) and np.all(np.isfinite(times))
    return frames, times


@settings(PROFILE)
@given(event_files(), configs(), st.data())
def test_every_run_reconstructs_or_fails_typed(events, config, data):
    (text, grid, mixed), (cfg, threads) = events, config
    frames, times = data.draw(frame_times(grid))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "events.txt").write_text(text)
        (d / "train.cfg").write_bytes(cfg)
        if times is not None:
            (d / "times.txt").write_bytes(times)
            frames = frames + [str(d / "times.txt")]
        run_dir, enhanced = d / "run", d / "enhanced"
        code, err = run(["reconstruct", "--events", str(d / "events.txt"), "--config",
                         str(d / "train.cfg"), *frames, "--threads", threads, "--out",
                         str(run_dir)])
        ok = check_outcome(code, err)
        assert multiprocessing.active_children() == []
        if mixed:
            assert not ok and "OFF code" in err, err
        event(f"reconstruct {'exits 0' if ok else 'fails typed'}")
        if not ok:
            return
        check_frames(run_dir)
        if data.draw(st.integers(0, 9)) == 0:
            (run_dir / "partitions.json").write_bytes(data.draw(st.binary(max_size=40)))
        enhance = ["enhance", "--checkpoints", str(run_dir), "--window-dt", "0.02"]
        if check_outcome(*run([*enhance, *frames, "--out", str(enhanced)])):
            grids, grid_times = check_frames(enhanced)
            picks = sorted(data.draw(st.sets(st.integers(0, len(grid_times) - 1), min_size=1)))
            write_times(d / "subset.txt", grid_times[picks])
            assert run([*enhance, "--timestamps", str(d / "subset.txt"),
                        "--out", str(d / "subset")]) == (0, "")
            assert np.array_equal(read_frame_dir(d / "subset")[0], grids[picks])
        scores = d / data.draw(st.sampled_from(["scores.csv", "scores"]))
        if check_outcome(*run(["evaluate", "--pred", str(run_dir), "--ref", str(run_dir),
                               "--out", str(scores)])):
            with open(scores, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert rows and all(float(r["mse"]) == 0 and float(r["ssim"]) == 1 for r in rows)
        assert multiprocessing.active_children() == []


@st.composite
def clips(draw):
    """simulate's options: a clip of 8-16 pixels a side, at most 1 s and
    at most 60 frames, with noise and both written encodings."""
    # sampled_from draws the sizes evenly: integers() leans to 8, which
    # is too small to score.
    width, height = draw(st.sampled_from(range(8, 17))), draw(st.sampled_from(range(8, 17)))
    fps = draw(st.sampled_from([10, 24, 25, 30, 60]))
    frames = draw(st.integers(2, min(fps, 60)))
    return ["--scene", draw(st.sampled_from(SCENE_KINDS)), "--size", f"{width}x{height}",
            "--duration", repr(frames / fps), "--fps", str(fps),
            "--noise", draw(st.sampled_from(["0", "0.5", "5"])),
            "--threshold", draw(st.sampled_from(["0.1", "0.25", "0.5"])),
            "--polarity", draw(st.sampled_from(POLARITY_ENCODINGS)),
            "--seed", str(draw(st.integers(0, 3)))], min(width, height)


@settings(PROFILE)
@given(clips(), config_texts(), st.sampled_from(["1", "2"]))
def test_a_simulated_clip_reconstructs_at_its_frame_times_or_fails_typed(clip, cfg, threads):
    options, side = clip
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "train.cfg").write_text(cfg)
        gt, run_dir, scores = d / "gt", d / "run", d / "scores.csv"
        assert run(["simulate", *options, "--dump-frames", str(gt),
                    "--out", str(d / "events.txt")]) == (0, "")
        ok = check_outcome(*run(["reconstruct", "--events", str(d / "events.txt"),
                                 "--config", str(d / "train.cfg"), "--timestamps",
                                 str(gt / "times.txt"), "--threads", threads,
                                 "--out", str(run_dir)]))
        assert multiprocessing.active_children() == []
        event(f"reconstruct {'exits 0' if ok else 'fails typed'}, "
              f"{'scored' if side >= 11 else 'too small to score'}")
        if not ok or side < 11:
            return
        assert run(["evaluate", "--pred", str(run_dir), "--ref", str(gt),
                    "--out", str(scores)]) == (0, "")
        with open(scores, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == len(read_frame_dir(gt)[1])
        assert multiprocessing.active_children() == []
