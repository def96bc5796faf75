"""evrecon benchmark: closed-loop reconstruction workloads.

Run from the repository root:

    python3 perfbench/run.py --workload clip64 --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 0

A run makes its input from --seed (render + simulate + serialize, repeated
SETUP_REPEATS times: the set-up), then repeats closed-loop passes until
--seconds have been measured, at least one pass:

    reconstruct: train_ensemble -> sample_video -> anchor_offset ->
                 tone_map -> write_frame_dir      (reconstruct_s, `evrecon reconstruct`)
    evaluate:    evaluate_frames against the tone-mapped ground truth
                                                  (+ reconstruct = closed_loop_s)

Quality is scored with `selftest.closed_loop_scores`, the selftest's own
protocol. The program runs at its user-facing defaults: the partition
thread count is the CLI's `--threads` default and the BLAS environment is
left as found (it is only recorded). Output checks run in every run.

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end ones; with --trace 1 public functions are wrapped in spans
(tracing.py) and the per-layer metrics are reported instead, together with
what tracing added. Earlier lines are a human-readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import evrecon as ev
    from evrecon import pgm
    from evrecon.cli import build_parser
    from evrecon.selftest import closed_loop_scores, make_fixture
except ImportError as exc:
    sys.exit(f"perfbench: cannot import evrecon from {ROOT / 'src'}: {exc}")
if Path(ev.__file__).resolve().parent != ROOT / "src" / "evrecon":
    sys.exit(f"perfbench: evrecon imported from {ev.__file__}, not from {ROOT / 'src'}")

import numpy as np  # noqa: E402  (after the evrecon import check)

import tracing  # noqa: E402

SETUP_REPEATS = 5
SSIM_STRIDE = 4  # the full selftest's stride
SHORT_BIN_S = 1e-9
ROUND_TRIP_TOL_S = 1e-9

# The evaluation alone is not an end-to-end metric: on a shared 2-core VM
# this single-threaded code ran 1.6x slower in phases lasting from seconds
# to whole runs, so its time spread 0.3-0.56 across ten runs, beyond any
# bound. It is gated inside closed_loop_s, printed, and traced.
END_TO_END = {
    "reconstruct_s": "s",
    "closed_loop_s": "s",
    "setup_s": "s",
    "log_mse": "mse",
    "ssim": "ssim",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    """One closed-loop input: a rendered scene, its events, and the
    training schedule (selftest's TrainConfig plus `train` overrides)."""

    scene: str
    size: int
    duration: float
    fps: float
    threshold_C: float
    noise_rate: float
    train: dict = field(default_factory=dict)
    scene_seed: int | None = None  # None: --seed
    sim_seed: int | None = None  # None: --seed
    selftest_fixture: bool = False  # checked to equal selftest.make_fixture's

    def seeds(self, seed: int) -> tuple:
        """(scene seed, simulator seed) of the input for --seed."""
        return (seed if self.scene_seed is None else self.scene_seed,
                seed if self.sim_seed is None else self.sim_seed)

    def train_config(self):
        kw = {"threshold_C": self.threshold_C, "seed": 0, "total_iters": 300,
              "refine_at_iters": (100, 200)}
        return ev.TrainConfig(**{**kw, **self.train})


# Why each workload exists is recorded in BENCHMARK.json and README.md. The
# cheapest comes first, since a harness may repeat the first one.
#
# clip64 is the selftest fixture at the selftest's seeds, so its log-MSE is
# the one `evrecon selftest` prints; --seed changes nothing in it.
# multipart32 keeps scene seed 1 and takes --seed for its noise events: on
# other scene seeds timestamp ties crash refine_bins with a ValueError
# (16 of scene seeds 1-40), and no seed would be safe to run.
WORKLOADS = {
    "hires128": Workload("rotating_bars", 128, 2.0, 240.0, 0.1, 2.0,
                         {"total_iters": 90, "refine_at_iters": (30, 60),
                          "hidden_features": 64}),
    "multipart32": Workload("moving_checker", 32, 12.0, 120.0, 0.25, 0.5,
                            {"total_iters": 150, "refine_at_iters": (50, 100),
                             "partition_tau": 2.0, "overlap": 0.5,
                             "hidden_features": 128}, scene_seed=1),
    "clip64": Workload("translating_gradient", 64, 2.0, 240.0, 0.25, 0.0,
                       scene_seed=1, sim_seed=1, selftest_fixture=True),
}


def default_threads() -> int:
    """The partition thread count `evrecon reconstruct` uses by default."""
    args = build_parser().parse_args(["reconstruct", "--events", "-", "--out", "-"])
    return args.threads


def env_block() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "threads_default": default_threads(),
        "threadpoolctl": ("installed" if importlib.util.find_spec("threadpoolctl")
                          else "not installed"),
    }


def make_input(wl: Workload, scene_seed: int, sim_seed: int):
    """The set-up: render, simulate and serialize the workload's input."""
    video = ev.render_scene(wl.scene, wl.size, wl.size, wl.duration, wl.fps, seed=scene_seed)
    sim = ev.SimConfig(threshold_C=wl.threshold_C, noise_rate=wl.noise_rate,
                       rng_seed=sim_seed)
    stream = ev.simulate_events(video, sim)
    return video, stream, ev.write_events(stream)


@dataclass
class Pass:
    """Outcome of one closed-loop pass."""

    attempted: int = 0
    failed: int = 0
    reconstruct_s: float | None = None
    evaluate_s: float | None = None
    partitions: list | None = None
    frames: np.ndarray | None = None
    log_frames: np.ndarray | None = None


def _failed(op: str) -> None:
    print(f"perfbench: {op} failed", file=sys.stderr)
    traceback.print_exc()


def closed_loop_pass(video, stream, cfg, threads: int, reference, out_dir: Path) -> Pass:
    """Reconstruct and evaluate once. Each partition trained, the sampling
    and the evaluation count as one operation; a raised error is counted
    and ends the pass."""
    res = Pass()
    t0 = time.perf_counter()
    try:
        partitions = ev.train_ensemble(stream, cfg, threads=threads)
    except Exception:
        _failed("train_ensemble")
        res.attempted += 1
        res.failed += 1
        return res
    res.attempted += len(partitions) + 1
    try:
        log_video = ev.anchor_offset(ev.sample_video(partitions, video.times))
        frames = ev.tone_map(log_video)
        pgm.write_frame_dir(out_dir, frames, video.times)
    except Exception:
        _failed("sample")
        res.failed += 1
        return res
    t1 = time.perf_counter()
    res.attempted += 1
    try:
        ev.evaluate_frames(frames, reference)
    except Exception:
        _failed("evaluate")
        res.failed += 1
        return res
    t2 = time.perf_counter()
    res.reconstruct_s, res.evaluate_s = t1 - t0, t2 - t1
    res.partitions, res.frames, res.log_frames = partitions, frames, log_video.frames
    return res


def exact_counts(stream, partitions) -> dict:
    durs = np.concatenate([p.stack.durations for p in partitions])
    return {
        "events.count": len(stream),
        "frames.bins_final": int(len(durs)),
        "frames.short_bins": int(np.sum(durs < SHORT_BIN_S)),
        "frames.min_bin_s": float(durs.min()),
    }


def output_checks(wl, video, stream, cfg, parsed, res: Pass) -> list:
    """(name, passed, detail) for each output check of one pass."""
    checks = []
    want = (len(video.times), video.height, video.width)
    ok = res.frames.shape == want and bool(np.all(np.isfinite(res.log_frames)))
    checks.append(("frames finite, one per ground-truth time", ok,
                   f"shape {res.frames.shape}, want {want}"))
    conserved = True
    last = len(res.partitions) - 1
    for p in res.partitions:
        piece = stream.slice_time(p.span[0], p.span[1], include_hi=(p.index == last))
        first = ev.stack_uniform(piece, cfg.initial_bin, cfg.threshold_C)
        conserved &= bool(np.array_equal(p.stack.pixel_sums(), first.pixel_sums()))
    checks.append(("refine_bins keeps pixel sums bit-identical", conserved,
                   f"{len(res.partitions)} partition(s)"))
    same = (len(parsed) == len(stream)
            and np.array_equal(parsed.x, stream.x) and np.array_equal(parsed.y, stream.y)
            and np.array_equal(parsed.polarity, stream.polarity))
    dt = float(np.max(np.abs(parsed.t - stream.t))) if same and len(stream) else 0.0
    checks.append(("parse_events(write_events(s)) == s", same and dt <= ROUND_TRIP_TOL_S,
                   f"max |dt| {dt:.2e} s"))
    if wl.selftest_fixture:
        _, fixture = make_fixture(size=wl.size, duration=wl.duration, fps=wl.fps,
                                  threshold_C=wl.threshold_C, noise_rate=wl.noise_rate)
        checks.append(("input is the selftest fixture", fixture == stream,
                       f"make_fixture(size={wl.size}, duration={wl.duration})"))
    return checks


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> value (None when absent)
    units: dict
    checks: list
    counts: dict
    quality: tuple | None  # (log-MSE, SSIM) of the last pass
    evaluate_s: float | None
    absent: list


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: Path) -> RunResult:
    """Set up, measure passes for `seconds`, check and score one workload."""
    threads = default_threads()
    cfg = wl.train_config()
    rec = tracing.Recorder()
    passes, pass_spans = [], []

    with rec.installed() if trace else contextlib.nullcontext():
        rec.active = trace
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            video, stream, text = make_input(wl, *wl.seeds(seed))
            setup_times.append(time.perf_counter() - t0)
        rec.active = False
        reference = ev.tone_map(ev.LogVideo(ev.log_intensity(video), video.times))

        started = time.perf_counter()
        while not passes or time.perf_counter() - started < seconds:
            rec.active = trace
            with rec.span("bench.pass") as span:
                res = closed_loop_pass(video, stream, cfg, threads, reference, out_dir)
            rec.active = False
            passes.append(res)
            pass_spans.append(span)
            if len(passes) == 1:  # later passes would only add allocator slack
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if res.failed:
                break

        rec.active = trace
        parsed = ev.parse_events(text)
        rec.active = False
        span_cost = rec.span_cost_s() if trace else 0.0

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    good = [p for p in passes if not p.failed]
    counts = [exact_counts(stream, p.partitions) for p in good]
    quality = [closed_loop_scores(video, p.partitions, ssim_stride=SSIM_STRIDE) for p in good]
    checks = output_checks(wl, video, stream, cfg, parsed, good[-1]) if good else []
    if len(good) > 1:
        checks.append(("quality and counts repeat exactly across passes",
                       all(q == quality[0] for q in quality)
                       and all(c == counts[0] for c in counts),
                       f"{len(good)} passes"))

    def med(values):
        return float(statistics.median(values)) if values else None

    if trace:
        units = tracing.per_layer_units()
        metrics = tracing.derive(rec.spans, pass_spans)
        metrics.update(counts[-1] if counts else {})
        traced_s = [p.reconstruct_s + p.evaluate_s for p in good]
        n_spans = len([s for s in rec.spans if any(
            u.start <= s.start and s.end <= u.end for u in pass_spans)]) - len(pass_spans)
        metrics.update({
            "trace.reconstruct_s": med([p.reconstruct_s for p in good]),
            "trace.evaluate_s": med([p.evaluate_s for p in good]),
            "trace.spans": n_spans / len(pass_spans),
            "trace.overhead_frac": (n_spans / len(pass_spans)) * span_cost / med(traced_s)
            if traced_s else None,
        })
    else:
        units = dict(END_TO_END)
        metrics = {
            "reconstruct_s": med([p.reconstruct_s for p in good]),
            "closed_loop_s": med([p.reconstruct_s + p.evaluate_s for p in good]),
            "setup_s": med(setup_times),
            "log_mse": med([q[0] for q in quality]),
            "ssim": med([q[1] for q in quality]),
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = {name: metrics.get(name) for name in units}
    correct = failed == 0 and bool(good) and all(ok for _, ok, _ in checks)
    return RunResult(correct, attempted, failed, metrics, units, checks,
                     counts[-1] if counts else {}, quality[-1] if quality else None,
                     med([p.evaluate_s for p in good]), rec.absent)


def report(name: str, res: RunResult) -> dict:
    """Print the human-readable report; return the result JSON object."""
    print(f"== workload {name}")
    for check, ok, detail in res.checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {check}: {detail}")
    print(f"failed_frac {res.failed / max(res.attempted, 1):.6g} "
          f"({res.failed} of {res.attempted} operations)")
    if res.evaluate_s is not None:
        print(f"evaluate_s {res.evaluate_s:.6g} s (median over passes; inside closed_loop_s)")
    for key, val in res.counts.items():
        print(f"count {key} = {val}")
    for metric, unit in res.units.items():
        val = res.metrics[metric]
        shown = "absent" if val is None else f"{val:.6g}"
        extra = ""
        if metric.endswith("_tail_ms") and res.metrics.get(metric[:-8] + "_n"):
            extra = f"  (p{tracing.tail_percentile(res.metrics[metric[:-8] + '_n']):g})"
        print(f"  {metric:<44} {shown:>14} {unit}{extra}")
    if res.absent:
        print("absent targets: " + ", ".join(res.absent))
    return {
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {m: {"value": v, "unit": res.units[m]} for m, v in res.metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    print("env " + json.dumps(env_block(), sort_keys=True))
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        res = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(report(args.workload, res)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
