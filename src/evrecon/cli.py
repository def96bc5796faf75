"""Command-line entry point.

Subcommands:
    simulate     render a synthetic scene and generate events from it
    reconstruct  train networks on events and emit frames + checkpoints
    enhance      emit derivative-based denoised event frames
    evaluate     score prediction frames against reference frames
    selftest     run the closed-loop verification pipeline

Every run writes a manifest JSON next to its outputs with the resolved
configuration, seeds, and versions, sufficient to reproduce it exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import EvreconError, InvalidCheckpoint, InvalidConfig, InvalidDimensions, MalformedLine
from .events import check_times, parse_events, read_times, read_utf8, text_lines, write_events
from .pgm import read_frame_dir, write_frame_dir
from .reconstruct import (
    LogVideo,
    anchor_offset,
    check_in_span,
    enhance_events,
    enhancement_to_bytes,
    sample_video,
    tone_map,
)
from .metrics import evaluate_frames
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
    if getattr(args, "lambda_reg", None) is not None:
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


def _read_stream(args):
    text = read_utf8(args.events, lambda n, line: MalformedLine(
        n, line, f"{args.events} is not UTF-8 text"))
    return parse_events(text, polarity_encoding=args.polarity, width=args.width,
                        height=args.height)


def _requested_times(args, t_start, t_end) -> np.ndarray:
    """The output frame times, from --timestamps or --fps, checked against
    the span [t_start, t_end] the networks cover before any training;
    InvalidDimensions when --fps asks for more than MAX_FRAMES frames."""
    if args.timestamps:
        times = read_times(args.timestamps)
    else:
        fps = args.fps or 30.0
        if (t_end - t_start) * fps >= MAX_FRAMES:
            raise InvalidDimensions(f"--fps {fps} over the span [{t_start}, {t_end}] makes "
                                    f"more than {MAX_FRAMES} frames")
        n = int(math.floor((t_end - t_start) * fps)) + 1
        times = check_times(t_start + np.arange(n) / fps)
    check_in_span(times, t_start, t_end)
    return times


# -- subcommands -------------------------------------------------------------


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    w, h = _parse_size(args.size)
    sim = SimConfig(
        threshold_C=args.threshold,
        noise_rate=args.noise,
        rng_seed=args.seed or 0,
    )
    video = render_scene(args.scene, w, h, args.duration, args.fps, seed=args.seed or 0)
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
        "polarity": args.polarity, "events": len(stream),
    }
    _write_manifest(out.with_name(out.name + ".manifest.json"), "simulate", cfg, [], outputs,
                    args.seed, started)
    print(f"simulate: wrote {len(stream)} events to {out}")
    return 0


def _write_partitions(partitions, out_dir: Path) -> list:
    meta = []
    for p in partitions:
        name = f"partition_{p.index:03d}.npz"
        save_checkpoint(p.model, out_dir / name)
        meta.append({
            "index": p.index,
            "core_span": list(p.core_span),
            "span": list(p.span),
            "checkpoint": name,
        })
        if p.report is not None:
            with open(out_dir / f"report_{p.index:03d}.csv", "w", newline="") as fh:
                wr = csv.writer(fh)
                wr.writerow(["iteration", "temporal", "regularization", "total", "stack_T"])
                for i, (lt, lr, tot, t_sz) in enumerate(
                    zip(p.report.temporal, p.report.regularization,
                        p.report.total, p.report.stack_sizes)
                ):
                    wr.writerow([i, f"{lt:.12g}", f"{lr:.12g}", f"{tot:.12g}", t_sz])
    (out_dir / "partitions.json").write_text(json.dumps(meta, indent=2) + "\n")
    return [out_dir / m["checkpoint"] for m in meta]


def _listing_problem(meta) -> str | None:
    """Why a partitions.json listing of (index, core_span, span, checkpoint),
    sorted by index, is unusable, or None: the indices must be the ints
    0..n-1, each span two finite numbers lo < hi that contains its core
    span, and each core span must end where the next one starts."""
    if not meta:
        return "no partitions"
    for index, core, span, _ in meta:
        if type(index) is not int:
            return f"index {index!r} is not an integer"
        for key, v in (("core_span", core), ("span", span)):
            if not (type(v) is list and len(v) == 2 and {type(x) for x in v} <= {int, float}
                    and -math.inf < float(v[0]) < float(v[1]) < math.inf):
                return f"{key} {v!r} is not two finite numbers lo < hi"
        if not span[0] <= core[0] < core[1] <= span[1]:
            return f"span {span!r} of partition {index} does not contain its core_span {core!r}"
    indices = [m[0] for m in meta]
    if indices != list(range(len(meta))):
        return f"indices {indices} are not 0..{len(meta) - 1}"
    for (i, core, *_), (_, after, *_) in zip(meta, meta[1:]):
        if core[1] != after[0]:
            return f"core_span {core!r} of partition {i} does not end where {after!r} starts"
    return None


def load_partitions(run_dir) -> list:
    """Rehydrate trained partitions from a reconstruct output directory,
    in index order. Raises InvalidCheckpoint naming partitions.json when it
    is not JSON text listing at least one partition with a checkpoint, or
    when `_listing_problem` finds the listing unusable; and naming a
    checkpoint whose t_domain is not its listed span, or whose frame size
    is not partition 0's."""
    path = Path(run_dir) / "partitions.json"
    try:
        meta = sorted(((m["index"], m["core_span"], m["span"], str(m["checkpoint"]))
                       for m in json.loads(path.read_bytes())), key=lambda m: m[0])
        problem = _listing_problem(meta)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        problem = f"{type(exc).__name__}: {exc}"
    if problem:
        raise InvalidCheckpoint(f"{path}: not a partition list ({problem})")
    partitions = [Partition(index=i, core_span=tuple(map(float, core)),
                            span=tuple(map(float, span)), model=load_checkpoint(path.parent / name))
                  for i, core, span, name in meta]
    # Sampling routes times by the listed span and the network normalizes
    # them by its own t_domain; JSON round-trips floats, so both are exact.
    size = (partitions[0].model.height, partitions[0].model.width)
    for p, (*_, name) in zip(partitions, meta):
        m = p.model
        if (m.height, m.width) != size:
            raise InvalidCheckpoint(f"{path.parent / name}: frames are {m.width}x{m.height}, "
                                    f"partition 0's are {size[1]}x{size[0]}")
        if m.t_domain != p.span:
            raise InvalidCheckpoint(f"{path.parent / name}: t_domain {list(m.t_domain)} is not "
                                    f"its listed span {list(p.span)}")
    return partitions


def _threading(partitions) -> dict:
    """The partition workers and BLAS threads training used, for the
    manifest; both null for partitions loaded from checkpoints."""
    report = partitions[0].report
    return {
        "workers": report.workers if report else None,
        "blas_threads": report.blas_threads if report else None,
    }


def cmd_reconstruct(args) -> int:
    started = time.perf_counter()
    stream = _read_stream(args)
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
    config = {**{f.name: getattr(cfg, f.name) for f in fields(TrainConfig)}, "gamma": args.gamma,
              "frames": len(times), "threads": args.threads, **_threading(partitions)}
    _write_manifest(out / "manifest.json", "reconstruct", config, [args.events], outputs, cfg.seed,
                    started)
    print(f"reconstruct: trained {len(partitions)} partition(s), "
          f"wrote {len(times)} frames to {out}")
    return 0


def cmd_enhance(args) -> int:
    started = time.perf_counter()
    if args.checkpoints:
        partitions = load_partitions(args.checkpoints)
        times = _requested_times(args, partitions[0].span[0], partitions[-1].span[1])
        inputs = [args.checkpoints]
    else:
        if not args.events:
            print("enhance: need --events (to train) or --checkpoints", file=sys.stderr)
            return 2
        stream = _read_stream(args)
        cfg = _train_config(args)
        times = _requested_times(args, stream.t_start, stream.t_end)
        partitions = train_ensemble(stream, cfg, threads=args.threads)
        inputs = [args.events]
    grids = enhance_events(partitions, times, args.window_dt)
    out = Path(args.out)
    bytes_ = enhancement_to_bytes(grids, scale=args.scale)
    write_frame_dir(out, bytes_, times)
    config = {"window_dt": args.window_dt, "scale": args.scale, "frames": len(times),
              **_threading(partitions)}
    _write_manifest(out / "manifest.json", "enhance", config, inputs, [out], args.seed, started)
    print(f"enhance: wrote {len(times)} enhancement frames to {out}")
    return 0


def cmd_evaluate(args) -> int:
    started = time.perf_counter()
    pred, pred_times = read_frame_dir(args.pred)
    ref, _ = read_frame_dir(args.ref)
    report = evaluate_frames(pred, ref, apply_clahe=not args.no_clahe)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["frame_index", "time", "mse", "ssim"])
        for i, (t, m, s) in enumerate(
            zip(pred_times, report.mse_per_frame, report.ssim_per_frame)
        ):
            wr.writerow([i, f"{t:.9f}", f"{m:.9g}", f"{s:.9g}"])
    _write_manifest(out.with_name(out.name + ".manifest.json"), "evaluate",
                    {"clahe": not args.no_clahe, "frames": report.num_frames},
                    [args.pred, args.ref], [out], None, started)
    print(f"evaluate: {report.num_frames} frames  "
          f"mean MSE {report.mean_mse:.6f}  mean SSIM {report.mean_ssim:.6f}")
    return 0


def cmd_selftest(args) -> int:
    results = run_selftest(quick=args.quick, threads=args.threads, out=args.out)
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


def _add_threads(p):
    p.add_argument(
        "--threads", type=_positive_int, default=os.cpu_count() or 1,
        help="partitions trained at once (default: all cores). Cores go to "
             "partitions first: while N > 1 partitions train together, numpy's "
             "OpenBLAS runs its threads // N per GEMM (at least 1) and is restored "
             "afterwards. A single partition keeps all BLAS threads.")


def _add_train_and_frames(p, events_help: str, events_required: bool):
    """Arguments reconstruct and enhance share: the events to train on,
    the training config, and the output frames."""
    p.add_argument("--events", required=events_required, default=None, help=events_help)
    p.add_argument("--config", default=None, help="training config file")
    p.add_argument("--polarity", choices=("signed", "zero_one"), default="zero_one")
    p.add_argument("--width", type=int, default=None, help="sensor width override")
    p.add_argument("--height", type=int, default=None, help="sensor height override")
    p.add_argument("--threshold", type=_positive_float, default=None,
                   help="contrast threshold C")
    p.add_argument("--timestamps", default=None, help="times.txt of output frames")
    p.add_argument("--fps", type=_positive_float, default=None, help="output frame rate")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="RNG seed")
    _add_threads(p)


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
    ps.add_argument("--polarity", choices=("signed", "zero_one"), default="zero_one")
    ps.add_argument("--gamma", type=_positive_float, default=0.6,
                    help="tone-map gamma for dumps")
    ps.add_argument("--dump-frames", default=None, help="also dump rendered frames here")
    ps.add_argument("--out", required=True, help="output events text file")
    ps.add_argument("--seed", type=int, default=None, help="RNG seed")
    ps.set_defaults(func=cmd_simulate)

    pr = sub.add_parser("reconstruct", help="train on events, emit frames")
    _add_train_and_frames(pr, "input events text file", events_required=True)
    pr.add_argument("--lambda", dest="lambda_reg", type=float, default=None,
                    help="spatial regularization weight")
    pr.add_argument("--gamma", type=_positive_float, default=0.6, help="tone-map gamma")
    pr.set_defaults(func=cmd_reconstruct)

    pe = sub.add_parser("enhance", help="derivative-based event enhancement")
    _add_train_and_frames(pe, "events file (trains first)", events_required=False)
    pe.add_argument("--checkpoints", default=None, help="reconstruct output dir to reuse")
    pe.add_argument("--window-dt", dest="window_dt", type=_positive_float, required=True,
                    help="time window the enhanced frames represent (seconds)")
    pe.add_argument("--scale", type=_positive_float, default=None,
                    help="gray mapping full scale")
    pe.set_defaults(func=cmd_enhance)

    pv = sub.add_parser("evaluate", help="score prediction frames against reference")
    pv.add_argument("--pred", required=True, help="prediction frame directory")
    pv.add_argument("--ref", required=True, help="reference frame directory")
    pv.add_argument("--no-clahe", action="store_true", help="skip CLAHE preprocessing")
    pv.add_argument("--out", required=True, help="output CSV path")
    pv.set_defaults(func=cmd_evaluate)

    pt = sub.add_parser("selftest", help="closed-loop verification")
    pt.add_argument("--quick", action="store_true",
                    help="reduced fixture and relaxed thresholds, finishes fast")
    pt.add_argument("--out", default=None, help="directory for artifacts (optional)")
    _add_threads(pt)
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
