"""Command-line entry point.

Subcommands:
    simulate     render a synthetic scene and generate events from it
    reconstruct  train networks on events and emit frames + checkpoints
    enhance      derivative-based event frames from a reconstruct output directory
    evaluate     score reference frames against the predicted frames at their times
    selftest     run the closed-loop verification pipeline

Every run writes a manifest JSON next to its outputs with the resolved
configuration, seeds, and versions, sufficient to reproduce it exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    EvreconError,
    InvalidCheckpoint,
    InvalidConfig,
    InvalidDimensions,
    MalformedLine,
    TimeOutOfRange,
)
from .events import (POLARITY_ENCODINGS, check_times, parse_events, read_times, read_utf8,
                     text_lines, write_events)
from .pgm import numbered_paths, read_frame_dir, write_frame_dir
from .reconstruct import (
    LogVideo,
    anchor_offset,
    check_in_span,
    enhance_events,
    enhancement_scale,
    enhancement_to_bytes,
    sample_video,
    tone_map,
)
from .metrics import evaluate_frames
from .parallel import usable_cpus
from .selftest import run_selftest
from .simulate import (
    MAX_FRAMES,
    SCENE_KINDS,
    SimConfig,
    log_intensity,
    render_scene,
    simulate_events,
)
from .siren import load_checkpoint, save_checkpoint
from .training import Partition, TrainConfig, train_ensemble


def _write_manifest(path: Path, subcommand, config, inputs, outputs, seed, started) -> None:
    """Write the run's reproducibility record atomically to `path`: a
    command that writes a file `<name>` puts it in `<name>.manifest.json`
    beside it, one that writes a directory in `manifest.json` inside it."""
    record = {
        "subcommand": subcommand,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "versions": {
            "evrecon": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "wall_clock_s": time.perf_counter() - started,
        "created_unix": time.time(),
    }
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)


# -- config file -------------------------------------------------------------


def parse_config_file(path) -> dict:
    """Read the flat `key = value` training-config format.

    Blank lines and `#` comments are ignored. Keys mirror TrainConfig
    fields, and each value parses as the type of that field's default:
    an integer, a number, a comma-separated integer list
    (refine_at_iters), or an integer or `all` (full-batch) where the
    default is None (batch_frames).
    """
    defaults = {f.name: f.default for f in fields(TrainConfig)}
    out = {}
    text = read_utf8(path, lambda n, line: InvalidConfig(f"{path}:{n}: not UTF-8 text: {line!r}"))
    for lineno, raw in enumerate(text_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise InvalidConfig(f"{where}: expected `key = value`, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in defaults:
            raise InvalidConfig(f"{where}: unknown config key {key!r}")
        default = defaults[key]
        try:
            if default is None:
                out[key] = None if val == "all" else int(val)
            elif isinstance(default, tuple):
                out[key] = tuple(int(v) for v in val.split(",") if v.strip())
            else:
                out[key] = type(default)(val)
        except ValueError:
            raise InvalidConfig(f"{where}: cannot parse {key} from {val!r}") from None
    return out


def _train_config(args) -> TrainConfig:
    kw = parse_config_file(args.config) if args.config else {}
    if args.threshold is not None:
        kw["threshold_C"] = args.threshold
    if args.lambda_reg is not None:
        kw["lambda_reg"] = args.lambda_reg
    if args.seed is not None:
        kw["seed"] = args.seed
    return TrainConfig(**kw)


def _parse_size(text: str) -> tuple:
    try:
        w, h = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise InvalidDimensions(f"--size expects WxH, got {text!r}") from None
    return w, h


def _requested_times(args, t_start, t_end) -> np.ndarray:
    """The output frame times, those of --timestamps or every t_start +
    k / fps <= t_end, checked against the span [t_start, t_end] the
    networks cover (before reconstruct trains); InvalidDimensions when
    --fps asks for more than MAX_FRAMES frames."""
    if args.timestamps:
        times = read_times(args.timestamps)
    else:
        fps = args.fps or 30.0
        if (t_end - t_start) * fps >= MAX_FRAMES:
            raise InvalidDimensions(f"--fps {fps} over the span [{t_start}, {t_end}] makes "
                                    f"more than {MAX_FRAMES} frames")
        # One time past the floor's count: at a whole number of frame
        # intervals the product can fall short of it (29 / 25 * 25 < 29).
        times = t_start + np.arange(int(math.floor((t_end - t_start) * fps)) + 2) / fps
        times = check_times(times[times <= t_end])
    check_in_span(times, t_start, t_end)
    return times


# -- subcommands -------------------------------------------------------------


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    w, h = _parse_size(args.size)
    seed = args.seed or 0
    sim = SimConfig(
        threshold_C=args.threshold,
        noise_rate=args.noise,
        rng_seed=seed,
    )
    video = render_scene(args.scene, w, h, args.duration, args.fps, seed=seed)
    stream = simulate_events(video, sim)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(write_events(stream, polarity_encoding=args.polarity))
    outputs = [out]
    if args.dump_frames:
        bytes_ = tone_map(LogVideo(log_intensity(video), video.times), args.gamma)
        write_frame_dir(args.dump_frames, bytes_, video.times)
        outputs.append(args.dump_frames)
    cfg = {
        "scene": args.scene, "size": args.size, "duration": args.duration,
        "fps": args.fps, "threshold_C": args.threshold, "noise_rate": args.noise,
        "polarity": args.polarity, "gamma": args.gamma, "dump_frames": args.dump_frames,
        "events": len(stream),
    }
    _write_manifest(out.with_name(out.name + ".manifest.json"), "simulate", cfg, [], outputs,
                    seed, started)
    print(f"simulate: wrote {len(stream)} events to {out}")
    return 0


_CHECKPOINT_NAME, _REPORT_NAME = "partition_{:03d}.npz".format, "report_{:03d}.csv".format


def _write_partitions(partitions, out_dir: Path) -> list:
    """Write each partition's checkpoint and loss report, and the
    partitions.json listing them. The checkpoints and reports of an
    earlier run with more partitions, named for i from len(partitions) up
    to the first missing name, are removed."""
    meta = []
    for p in partitions:
        name = _CHECKPOINT_NAME(p.index)
        save_checkpoint(p.model, out_dir / name)
        meta.append({"index": p.index, "checkpoint": name})
        if p.report is not None:
            with open(out_dir / _REPORT_NAME(p.index), "w", newline="") as fh:
                wr = csv.writer(fh)
                wr.writerow(["iteration", "temporal", "regularization", "total", "stack_T"])
                for i, (lt, lr, tot, t_sz) in enumerate(
                    zip(p.report.temporal, p.report.regularization,
                        p.report.total, p.report.stack_sizes)
                ):
                    wr.writerow([i, f"{lt:.12g}", f"{lr:.12g}", f"{tot:.12g}", t_sz])
    for name in (_CHECKPOINT_NAME, _REPORT_NAME):
        for path in numbered_paths(out_dir, name, len(partitions)):
            path.unlink()
    (out_dir / "partitions.json").write_text(json.dumps(meta, indent=2) + "\n")
    return [out_dir / m["checkpoint"] for m in meta]


def load_partitions(run_dir) -> list:
    """Rehydrate trained partitions from a reconstruct output directory,
    in index order. partitions.json lists {"index": i, "checkpoint": file}
    for i = 0..n-1, n >= 1, in any order; other keys, such as the spans
    older versions wrote, are ignored: a partition's span is its network's
    t_domain. Raises InvalidCheckpoint naming partitions.json when it is
    not such a list, and naming a checkpoint whose frame size is not
    partition 0's or whose t_domain d does not follow the previous one p
    as p.lo < d.lo <= p.hi <= d.hi, the chain in which sampling evaluates
    each network inside its t_domain only."""
    path = Path(run_dir) / "partitions.json"
    bad = f"{path}: not a partition list"
    try:
        meta = sorted((m["index"], str(m["checkpoint"])) for m in json.loads(path.read_bytes()))
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidCheckpoint(f"{bad} ({type(exc).__name__}: {exc})") from None
    indices = [i for i, _ in meta]
    if not meta or [(type(i), i) for i in indices] != [(int, i) for i in range(len(meta))]:
        raise InvalidCheckpoint(f"{bad} (indices {indices} are not the ints 0..n-1 of n >= 1 "
                                "partitions)")
    partitions = []
    for i, name in meta:
        file = path.parent / name
        m = load_checkpoint(file)
        d = m.t_domain
        if partitions:
            first, b = partitions[0].model, partitions[-1].span
            if (m.height, m.width) != (first.height, first.width):
                raise InvalidCheckpoint(f"{file}: frames are {m.width}x{m.height}, "
                                        f"partition 0's are {first.width}x{first.height}")
            if not b[0] < d[0] <= b[1] <= d[1]:
                raise InvalidCheckpoint(f"{file}: t_domain {list(d)} of partition {i} does not "
                                        f"follow partition {i - 1}'s {list(b)}: need "
                                        f"{b[0]} < {d[0]} <= {b[1]} <= {d[1]}")
        partitions.append(Partition(index=i, span=d, model=m))
    return partitions


def cmd_reconstruct(args) -> int:
    started = time.perf_counter()
    text = read_utf8(args.events, lambda n, line: MalformedLine(
        n, line, f"{args.events} is not UTF-8 text"))
    stream = parse_events(text, width=args.width, height=args.height)
    cfg = _train_config(args)
    times = _requested_times(args, stream.t_start, stream.t_end)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    partitions = train_ensemble(stream, cfg, threads=args.threads)
    outputs = _write_partitions(partitions, out)
    video = anchor_offset(sample_video(partitions, times))
    bytes_ = tone_map(video, args.gamma)
    write_frame_dir(out, bytes_, times)
    outputs.append(out / "times.txt")
    report = partitions[0].report
    config = {**{f.name: getattr(cfg, f.name) for f in fields(TrainConfig)}, "gamma": args.gamma,
              "width": stream.width, "height": stream.height, "frames": len(times),
              "threads": args.threads, "workers": report.workers,
              "blas_threads": report.blas_threads}
    _write_manifest(out / "manifest.json", "reconstruct", config, [args.events], outputs, cfg.seed,
                    started)
    print(f"reconstruct: trained {len(partitions)} partition(s), "
          f"wrote {len(times)} frames to {out}")
    return 0


def cmd_enhance(args) -> int:
    started = time.perf_counter()
    partitions = load_partitions(args.checkpoints)
    times = _requested_times(args, partitions[0].span[0], partitions[-1].span[1])
    scale = args.scale or enhancement_scale(partitions, args.window_dt)
    grids = enhance_events(partitions, times, args.window_dt)
    out = Path(args.out)
    write_frame_dir(out, enhancement_to_bytes(grids, scale), times)
    config = {"window_dt": args.window_dt, "scale": scale, "frames": len(times)}
    _write_manifest(out / "manifest.json", "enhance", config, [args.checkpoints], [out], None,
                    started)
    print(f"enhance: wrote {len(times)} enhancement frames to {out}")
    return 0


def cmd_evaluate(args) -> int:
    started = time.perf_counter()
    pred, pred_times = read_frame_dir(args.pred)
    ref, ref_times = read_frame_dir(args.ref)
    # Both time lists are strictly increasing: each reference time finds
    # its predicted frame by binary search.
    at = np.minimum(np.searchsorted(pred_times, ref_times), len(pred_times) - 1)
    unmatched = np.flatnonzero(pred_times[at] != ref_times)
    if unmatched.size:
        raise TimeOutOfRange(f"reference time {float(ref_times[unmatched[0]])!r} of {args.ref} "
                             f"has no predicted frame in {args.pred}")
    report = evaluate_frames(pred[at], ref, apply_clahe=not args.no_clahe)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["frame_index", "time", "mse", "ssim"])
        for i, (t, m, s) in enumerate(
            zip(ref_times, report.mse_per_frame, report.ssim_per_frame)
        ):
            wr.writerow([i, repr(float(t)), f"{m:.9g}", f"{s:.9g}"])
    _write_manifest(out.with_name(out.name + ".manifest.json"), "evaluate",
                    {"clahe": not args.no_clahe, "frames": report.num_frames},
                    [args.pred, args.ref], [out], None, started)
    print(f"evaluate: {report.num_frames} frames  "
          f"mean MSE {report.mean_mse:.6f}  mean SSIM {report.mean_ssim:.6f}")
    return 0


def cmd_selftest(args) -> int:
    results = run_selftest(quick=args.quick, out=args.out)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  {r.detail}")
        ok &= r.passed
    print("selftest:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 1


# -- argument parsing --------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0.0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _add_frames(p):
    """The output frames reconstruct and enhance both write: at the times
    of --timestamps or at --fps, not both, into --out."""
    times = p.add_mutually_exclusive_group()
    times.add_argument("--timestamps", default=None, help="times.txt of output frames")
    times.add_argument("--fps", type=_positive_float, default=None, help="output frame rate")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="evrecon",
        description="Self-supervised event-to-video reconstruction toolkit",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="render a scene and generate events")
    ps.add_argument("--scene", choices=SCENE_KINDS, default="translating_gradient")
    ps.add_argument("--size", default="64x64", help="sensor size WxH")
    ps.add_argument("--duration", type=_positive_float, default=2.0, help="seconds")
    ps.add_argument("--fps", type=_positive_float, default=240.0, help="render rate")
    ps.add_argument("--threshold", type=_positive_float, default=0.25,
                    help="contrast threshold C")
    ps.add_argument("--noise", type=float, default=0.0, help="noise events/pixel/s")
    ps.add_argument("--polarity", choices=POLARITY_ENCODINGS, default="zero_one",
                    help="how the events file writes OFF: -1 (signed) or 0 (zero_one)")
    ps.add_argument("--gamma", type=_positive_float, default=0.6,
                    help="tone-map gamma for dumps")
    ps.add_argument("--dump-frames", default=None, help="also dump rendered frames here")
    ps.add_argument("--out", required=True, help="output events text file")
    ps.add_argument("--seed", type=int, default=None, help="RNG seed")
    ps.set_defaults(func=cmd_simulate)

    prc = sub.add_parser("reconstruct", help="train on events, emit frames")
    prc.add_argument("--events", required=True,
                     help="input events text file: its header gives the sensor size and "
                          "time window, and its OFF code, 0 or -1, is read from the data")
    prc.add_argument("--config", default=None, help="training config file")
    prc.add_argument("--width", type=int, default=None, help="sensor width override")
    prc.add_argument("--height", type=int, default=None, help="sensor height override")
    prc.add_argument("--threshold", type=_positive_float, default=None,
                     help="contrast threshold C")
    _add_frames(prc)
    prc.add_argument("--seed", type=int, default=None, help="RNG seed")
    prc.add_argument(
        "--threads", type=_positive_int, default=usable_cpus(),
        help="partitions trained at once (default: every CPU this process may "
             "use, as its affinity mask allows). Cores go to "
             "partitions first: while N > 1 partitions train together, numpy's "
             "OpenBLAS runs its threads // N per GEMM (at least 1) and is restored "
             "afterwards. A single partition keeps all BLAS threads.")
    prc.add_argument("--lambda", dest="lambda_reg", type=float, default=None,
                     help="spatial regularization weight")
    prc.add_argument("--gamma", type=_positive_float, default=0.6, help="tone-map gamma")
    prc.set_defaults(func=cmd_reconstruct)

    enhance_help = "derivative-based event frames from a reconstruct output directory"
    pe = sub.add_parser("enhance", help=enhance_help, description=enhance_help)
    pe.add_argument("--checkpoints", required=True, help="reconstruct output directory")
    _add_frames(pe)
    pe.add_argument("--window-dt", dest="window_dt", type=_positive_float, required=True,
                    help="time window the enhanced frames represent (seconds)")
    pe.add_argument("--scale", type=_positive_float, default=None,
                    help="gray mapping full scale (default: --window-dt times the run's "
                         "largest |derivative| on its partitions' anchor grids)")
    pe.set_defaults(func=cmd_enhance)

    evaluate_help = ("score each reference frame against the predicted frame at its time, on "
                     "every CPU this process may use")
    pv = sub.add_parser("evaluate", help=evaluate_help, description=evaluate_help)
    pv.add_argument("--pred", required=True, help="prediction frame directory")
    pv.add_argument("--ref", required=True, help="reference frame directory")
    pv.add_argument("--no-clahe", action="store_true", help="skip CLAHE preprocessing")
    pv.add_argument("--out", required=True, help="output CSV path")
    pv.set_defaults(func=cmd_evaluate)

    pt = sub.add_parser("selftest", help="closed-loop verification")
    pt.add_argument("--quick", action="store_true",
                    help="reduced fixture and relaxed thresholds, finishes fast")
    pt.add_argument("--out", default=None, help="directory for artifacts (optional)")
    pt.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EvreconError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
