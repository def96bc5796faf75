"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from its spans.

`Recorder.installed()` wraps public evrecon functions and methods from
outside the package. Each call made while the recorder is active records a
span: name, start, end, the enclosing span on the same thread, and an
optional probe value. Spans stay in memory; metrics are derived after the
run. A function is replaced in every evrecon module that holds it, so a
call is caught however its caller imported the name. A target that no
longer exists is listed as absent, and the metrics that need it are
reported as null instead of failing the run.

Self time of a span is its duration minus the part of that interval its
child spans cover. Children are spans opened on the same thread while the
parent was open; partition worker threads therefore start their own
trees, rooted at `training.train_partition`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import sys
import threading
import time
from bisect import bisect_right
from collections import defaultdict

import numpy as np

STAGES = (0, 1, 2)


def _nbytes(obj) -> int:
    """Bytes held by the arrays in obj (an array, a list/tuple of them, or
    an object whose attributes hold them)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(o) for o in obj)
    if hasattr(obj, "__dict__"):
        return sum(_nbytes(o) for o in vars(obj).values())
    return 0


def _adam_bytes(args) -> int:
    """Parameters plus optimizer state (Adam moments) of one adam_step."""
    return _nbytes(args[:2])


# (module, attribute path, probe): the span name is "<module>.<path>", or
# the path alone for methods.
TARGETS = (
    ("simulate", "simulate_events", None),
    ("events", "parse_events", None),
    ("training", "train_ensemble", None),
    ("training", "train_partition", None),
    ("training", "temporal_loss", None),
    ("training", "adam_step", _adam_bytes),
    ("training", "refine_bins", None),
    ("frames", "stack_uniform", None),
    ("siren", "SirenModel.forward", None),
    ("siren", "SirenModel.forward_with_tangent", None),
    ("siren", "SirenModel.backward", None),
    ("reconstruct", "sample_video", None),
    ("reconstruct", "tone_map", None),
    ("pgm", "write_frame_dir", None),
    ("metrics", "evaluate_frames", None),
    ("metrics", "clahe", None),
    ("metrics", "ssim", None),
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "probe")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.probe = None


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.active = False
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span, child of the innermost open span on this thread."""
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, probe=None):
        """fn, recording a span per call while the recorder is active."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            with rec.span(name) as span:
                if probe is not None:
                    span.probe = probe(args)
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in every evrecon module that holds it; restore
        the originals on exit."""
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "evrecon" or n.startswith("evrecon."))]
        restore = []

        def patch(owner, attr, new):
            restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            for mod_name, path, probe in TARGETS:
                name = path if "." in path else f"{mod_name}.{path}"
                try:
                    owner = importlib.import_module(f"evrecon.{mod_name}")
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    orig = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.absent.append(name)
                    continue
                wrapper = self.wrap(name, orig, probe)
                if outer:  # a method: patch the class that defines it
                    patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            patch(mod, key, wrapper)
            yield self
        finally:
            for owner, attr, old in reversed(restore):
                setattr(owner, attr, old)

    def span_cost_s(self, calls: int = 20000) -> float:
        """Measured extra seconds one recorded span adds to a call."""

        def noop():
            return None

        wrapped = self.wrap("calibration", noop)
        kept = len(self.spans)
        was_active, self.active = self.active, True
        try:
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
        finally:
            self.active = was_active
            del self.spans[kept:]
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


# -- per-layer metrics -------------------------------------------------------

PER_CALL = (
    [(f"siren.forward_with_tangent.stage{s}", "SirenModel.forward_with_tangent", s) for s in STAGES]
    + [(f"siren.backward.stage{s}", "SirenModel.backward", s) for s in STAGES]
    + [("siren.adam_step", "training.adam_step", None),
       ("siren.forward", "SirenModel.forward", None)]
    + [(f"training.iter.stage{s}", "iteration", s) for s in STAGES]
    + [(f"training.temporal_loss_self.stage{s}", "temporal_loss_self", s) for s in STAGES]
    + [("metrics.clahe", "metrics.clahe", None),
       ("metrics.ssim", "metrics.ssim", None)]
)

SCALARS = (
    ("siren.param_bytes", "count"),
    ("training.other_self_ms", "ms"),
    ("training.partition_s.max", "s"),
    ("training.concurrency", "ratio"),
    ("frames.stack_uniform_s", "s"),
    ("frames.refine_bins_s", "s"),
    ("frames.bins_final", "count"),
    ("frames.short_bins", "count"),
    ("frames.min_bin_s", "s"),
    ("reconstruct.sample_video_s", "s"),
    ("reconstruct.forward_calls", "count"),
    ("reconstruct.tone_map_s", "s"),
    ("events.parse_s", "s"),
    ("events.count", "count"),
    ("pgm.write_frame_dir_s", "s"),
    ("simulate.simulate_events_s", "s"),
    ("trace.reconstruct_s", "s"),
    ("trace.evaluate_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for base, _, _ in PER_CALL:
        units[f"{base}_ms"] = "ms"
        units[f"{base}_tail_ms"] = "ms"
        units[f"{base}_n"] = "count"
    units.update(SCALARS)
    return units


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples beyond it;
    100 (the maximum) when n is too small for any."""
    if n <= 10:
        return 100
    return math.floor(100.0 * (1.0 - 10.0 / n))


def _union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _ancestor(span: Span, name: str):
    p = span.parent
    while p is not None and p.name != name:
        p = p.parent
    return p


def _median(values):
    return statistics.median(values) if values else None


def derive(spans: list, passes: list) -> dict:
    """Per-layer metric values (None when absent) from the recorded spans.

    passes holds one benchmark-side span per closed-loop pass; quantities
    measured per pass are medians over passes, per-call timings pool all
    calls of the run. A metric whose spans were never recorded (its
    target is absent or was not called) is None.
    """
    children = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[id(s.parent)].append(s)

    def self_time(s: Span) -> float:
        return (s.end - s.start) - _union((c.start, c.end) for c in children[id(s)])

    # Refinement stage of a span = refinements its partition finished before it.
    refine_ends = {
        id(p): sorted(c.end for c in children[id(p)] if c.name == "training.refine_bins")
        for p in by_name["training.train_partition"]
    }

    def stage(s: Span):
        part = _ancestor(s, "training.train_partition")
        return None if part is None else bisect_right(refine_ends[id(part)], s.start)

    calls = defaultdict(list)  # (source, stage) -> seconds
    for name in ("SirenModel.forward_with_tangent", "SirenModel.backward"):
        for s in by_name[name]:
            calls[(name, stage(s))].append(s.end - s.start)
    for name in ("training.adam_step", "SirenModel.forward", "metrics.clahe", "metrics.ssim"):
        calls[(name, None)] = [s.end - s.start for s in by_name[name]]
    for s in by_name["training.temporal_loss"]:
        calls[("temporal_loss_self", stage(s))].append(self_time(s))

    # An iteration runs from a temporal_loss call to the adam_step that
    # follows it in the same partition; it excludes refinement.
    iters, other_self = 0, 0.0
    for part in by_name["training.train_partition"]:
        opened = None
        for c in sorted(children[id(part)], key=lambda c: c.start):
            if c.name == "training.temporal_loss":
                opened = c
            elif c.name == "training.adam_step" and opened is not None:
                calls[("iteration", stage(opened))].append(c.end - opened.start)
                iters += 1
                opened = None
        other_self += self_time(part)

    out = {}
    for base, source, stg in PER_CALL:
        ms = np.asarray(calls.get((source, stg), []), dtype=np.float64) * 1e3
        if len(ms) == 0:
            out[f"{base}_ms"] = out[f"{base}_tail_ms"] = out[f"{base}_n"] = None
            continue
        out[f"{base}_ms"] = float(np.median(ms))
        out[f"{base}_tail_ms"] = float(np.percentile(ms, tail_percentile(len(ms))))
        out[f"{base}_n"] = len(ms)

    def within(p: Span, name: str):
        return [s for s in by_name[name] if p.start <= s.start and s.end <= p.end]

    def per_pass(fn):
        return _median([v for v in map(fn, passes) if v is not None])

    def total_s(name):
        return per_pass(lambda p: sum(s.end - s.start for s in within(p, name)) or None)

    def param_bytes(p):
        per_part = defaultdict(int)
        for s in within(p, "training.adam_step"):
            part = id(_ancestor(s, "training.train_partition"))
            per_part[part] = max(per_part[part], s.probe)
        return sum(per_part.values()) or None

    def concurrency(p):
        ens = within(p, "training.train_ensemble")
        parts = within(p, "training.train_partition")
        if not ens or not parts:
            return None
        return sum(s.end - s.start for s in parts) / sum(s.end - s.start for s in ens)

    def forward_calls(p):
        samples = within(p, "reconstruct.sample_video")
        if not samples:
            return None
        inside = [s for name in ("SirenModel.forward", "SirenModel.forward_with_tangent")
                  for s in within(p, name) if _ancestor(s, "reconstruct.sample_video")]
        return len(inside) / len(samples)

    def durations(name):
        return _median([s.end - s.start for s in by_name[name]])

    out["siren.param_bytes"] = per_pass(param_bytes)
    out["training.other_self_ms"] = 1e3 * other_self / iters if iters else None
    out["training.partition_s.max"] = per_pass(
        lambda p: max((s.end - s.start for s in within(p, "training.train_partition")),
                      default=None))
    out["training.concurrency"] = per_pass(concurrency)
    out["frames.stack_uniform_s"] = total_s("frames.stack_uniform")
    out["frames.refine_bins_s"] = total_s("training.refine_bins")
    out["reconstruct.sample_video_s"] = total_s("reconstruct.sample_video")
    out["reconstruct.forward_calls"] = per_pass(forward_calls)
    out["reconstruct.tone_map_s"] = total_s("reconstruct.tone_map")
    out["pgm.write_frame_dir_s"] = total_s("pgm.write_frame_dir")
    out["simulate.simulate_events_s"] = durations("simulate.simulate_events")
    out["events.parse_s"] = durations("events.parse_events")
    return out
