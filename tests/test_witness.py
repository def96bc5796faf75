"""Pinned results: the numbers a pure refactor must leave unchanged.

`witness.json` records, for the host it was made on:
- the quick closed loop of `evrecon selftest --quick` (the 32x32, 1 s
  fixture, 60 iterations refined at 20 and 40): full-precision log-MSE and
  SSIM, and a sha256 of the trained float32 parameters;
- the selftest's gradient oracle: both maximum relative errors;
- a tiny 16x16 run at hidden width 32 whose first stage (32 bins) trains
  on frame rows and whose later stages (64 and 128 bins) compute the
  spatial term in feature space: the same scores and digest.

BLAS kernels round differently on other CPUs, so the file also records a
host key: numpy's version and the core and config strings of the OpenBLAS
numpy loaded, read through ctypes as `training._openblas_threads_api`
finds its thread controls. On a host with that key every number must be
equal; elsewhere the scores must agree within 1e-6 relative, the oracle
errors must stay under the selftest's bounds, and digests are not
compared. Each test id names the mode that ran.

A change that alters results updates `witness.json` in the same diff:

    PYTHONPATH=src python tests/test_witness.py
"""

from __future__ import annotations

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from evrecon.selftest import closed_loop_scores, gradient_oracle_errors, make_fixture
from evrecon.training import TrainConfig, train_ensemble

WITNESS = Path(__file__).with_name("witness.json")
REL = 1e-6

# name -> (make_fixture keywords, TrainConfig keywords, SSIM stride)
RUNS = {
    "quick": ({"size": 32, "duration": 1.0},
              {"total_iters": 60, "refine_at_iters": (20, 40)}, 8),
    "feature_space": ({"size": 16, "duration": 1.0},
                      {"total_iters": 30, "refine_at_iters": (10, 20), "hidden_features": 32}, 1),
}


def host_key() -> dict:
    """numpy's version and its OpenBLAS's core and config strings (None
    where they cannot be read)."""
    key = {"numpy": np.__version__, "openblas_core": None, "openblas_config": None}
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return key
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        core, config = f"{prefix}get_corename{suffix}", f"{prefix}get_config{suffix}"
        if hasattr(lib, core) and hasattr(lib, config):
            for field, name in (("openblas_core", core), ("openblas_config", config)):
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                key[field] = fn().decode()
            break
    return key


def run(name: str) -> dict:
    """Train one of RUNS on the selftest's fixture and seeds, as the quick
    selftest does, and score it with the selftest's protocol."""
    fixture, train, stride = RUNS[name]
    video, stream = make_fixture(**fixture)
    cfg = TrainConfig(threshold_C=0.25, seed=0, **train)
    partitions = train_ensemble(stream, cfg)
    log_mse, ssim = closed_loop_scores(video, partitions, ssim_stride=stride)
    digest = hashlib.sha256(b"".join(p.model.params.tobytes() for p in partitions)).hexdigest()
    return {"log_mse": log_mse, "ssim": ssim, "params_sha256": digest}


def oracle() -> dict:
    params, tangent = gradient_oracle_errors()
    return {"params": params, "tangent": tangent}


def record() -> dict:
    return {"host": host_key(), **{name: run(name) for name in RUNS}, "oracle": oracle()}


# Without the file (it is being recorded) every test fails, naming it.
PINNED = json.loads(WITNESS.read_text()) if WITNESS.exists() else None
MODE = "exact" if PINNED is not None and PINNED["host"] == host_key() else "tolerant"


def pinned(entry: str) -> dict:
    assert PINNED is not None, f"{WITNESS} is missing"
    return PINNED[entry]


@pytest.mark.parametrize("mode", [MODE])
@pytest.mark.parametrize("name", list(RUNS))
def test_closed_loop_witness(name, mode):
    want, got = pinned(name), run(name)
    if mode == "exact":
        assert got == want
    else:
        for score in ("log_mse", "ssim"):
            assert got[score] == pytest.approx(want[score], rel=REL, abs=0)


@pytest.mark.parametrize("mode", [MODE])
def test_gradient_oracle_witness(mode):
    want, got = pinned("oracle"), oracle()
    if mode == "exact":
        assert got == want
    else:
        assert got["params"] < 1e-3 and got["tangent"] < 1e-4  # the selftest's bounds


if __name__ == "__main__":
    WITNESS.write_text(json.dumps(record(), indent=2) + "\n")
    print(f"wrote {WITNESS}")
