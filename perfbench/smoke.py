"""Smoke test of the benchmark at a tiny size (about a minute on 2 cores).

    python3 perfbench/smoke.py

Checks, for a tiny copy of every workload, that a plain and a traced run
are correct with no failed operation, that every end-to-end and per-layer
metric is present, that tracing changes no result, and that the exact
counts repeat across runs at a fixed seed. It then checks that the
benchmark's pipeline reproduces the log-MSE `evrecon selftest --quick`
prints, and that BENCHMARK.json lists the metrics and workloads the code
reports. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import tracing
from evrecon.selftest import run_selftest

SEED = 1
EXACT = ("events.count", "frames.bins_final", "frames.short_bins", "frames.min_bin_s",
         "siren.param_bytes", "reconstruct.forward_calls")

TINY = {
    "clip64": run.Workload("translating_gradient", 16, 0.5, 60.0, 0.25, 0.0,
                           {"total_iters": 12, "refine_at_iters": (4, 8),
                            "hidden_features": 16}, scene_seed=1, sim_seed=1,
                           selftest_fixture=True),
    "multipart32": run.Workload("moving_checker", 16, 3.0, 30.0, 0.25, 0.5,
                                {"total_iters": 12, "refine_at_iters": (4, 8),
                                 "partition_tau": 1.25, "overlap": 0.25,
                                 "hidden_features": 16}, scene_seed=1),
    "hires128": run.Workload("rotating_bars", 24, 0.5, 60.0, 0.1, 2.0,
                             {"total_iters": 9, "refine_at_iters": (3, 6),
                              "hidden_features": 8}),
}

# The `selftest --quick` fixture and schedule.
QUICK = run.Workload("translating_gradient", 32, 1.0, 240.0, 0.25, 0.0,
                     {"total_iters": 60, "refine_at_iters": (20, 40)},
                     scene_seed=1, sim_seed=1, selftest_fixture=True)


def main() -> int:
    out_dir = run.ROOT / ".perfbench_out" / "smoke"
    failures = []

    def check(name, ok, detail=""):
        print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
        if not ok:
            failures.append(name)

    def one(wl, trace):
        return run.run_workload(wl, SEED, 0.0, trace, out_dir)

    try:
        for name, wl in TINY.items():
            plain, traced, again = one(wl, False), one(wl, True), one(wl, True)
            for label, res in (("plain", plain), ("traced", traced)):
                check(f"{name} {label} run correct", res.correct and res.failed == 0,
                      f"({res.failed}/{res.attempted} failed; "
                      f"{[c for c, ok, _ in res.checks if not ok]} failing)")
                missing = [m for m, v in res.metrics.items() if v is None]
                check(f"{name} {label} metrics present", not missing and not res.absent,
                      f"missing {missing}, absent {res.absent}")
            check(f"{name} tracing changes no result",
                  plain.quality is not None and traced.quality == plain.quality,
                  f"{traced.quality} vs {plain.quality}")
            differ = [k for k in EXACT if traced.metrics[k] != again.metrics[k]]
            check(f"{name} exact counts repeat", not differ and traced.quality == again.quality,
                  f"differ: {differ}")

        quick = one(QUICK, False)
        printed = run_selftest(quick=True, threads=run.default_threads())[0].detail
        check("log-MSE equals selftest --quick", printed.startswith(f"{quick.quality[0]:.5f} "),
              f"(benchmark {quick.quality[0]:.5f}, selftest '{printed}')")
    finally:
        shutil.rmtree(out_dir.parent, ignore_errors=True)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check("BENCHMARK.json workloads match",
          [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS))
    check("BENCHMARK.json end_to_end metrics match",
          {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END)
    check("BENCHMARK.json per_layer metrics match",
          {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units())
    print("smoke:", "all checks passed" if not failures else f"{len(failures)} FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
