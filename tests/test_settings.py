"""The settings contract: every numeric setting of TrainConfig and SimConfig,
given an extreme value, either constructs or raises InvalidConfig naming
the setting, and the command that takes it rejects it before writing any
output. NaN, the infinities and -1 are valid for no setting."""

import contextlib
import io
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evrecon.cli import main
from evrecon.errors import InvalidConfig
from evrecon.simulate import SimConfig
from evrecon.training import TrainConfig

EXTREMES = [math.nan, math.inf, -math.inf, 0, -1, 1e300]
# A tiny training config, so that nothing here trains for long; in a
# config file a later line for the same key wins.
TRAIN_BASE = {"threshold_C": 0.25, "hidden_features": 4, "total_iters": 3,
              "refine_at_iters": (1,)}
TRAIN_BASE_FILE = "threshold_C = 0.25\nhidden_features = 4\ntotal_iters = 3\nrefine_at_iters = 1\n"
SIM_FLAGS = {"threshold_C": "--threshold", "noise_rate": "--noise", "rng_seed": "--seed"}
NUMERIC = [(cls, f) for cls in (TrainConfig, SimConfig) for f in fields(cls)
           if f.default is None or isinstance(f.default, (int, float))]


def as_text(value, field) -> str:
    """`value` written as the config file or command line would give it:
    integers for integer settings where it is one, else as a float."""
    integral = field.default is None or isinstance(field.default, int)
    if integral and math.isfinite(value) and value == int(value):
        return str(int(value))
    return repr(float(value))


@pytest.mark.parametrize("cls, field", NUMERIC,
                         ids=[f"{cls.__name__}.{f.name}" for cls, f in NUMERIC])
@given(value=st.sampled_from(EXTREMES))
@settings(deadline=None, max_examples=len(EXTREMES))
def test_every_numeric_setting_constructs_or_is_rejected_before_any_output(
        tmp_path_factory, cls, field, value):
    base = TRAIN_BASE if cls is TrainConfig else {}
    try:
        cls(**{**base, field.name: value})
    except InvalidConfig as exc:
        assert str(exc).startswith(f"{field.name} ")
    else:
        assert value in (0, 1e300), "no setting takes NaN, an infinity or -1"
        return

    tmp = tmp_path_factory.mktemp("run")
    out = tmp / "out"
    text = as_text(value, field)
    if cls is TrainConfig:
        config = tmp / "run.cfg"
        config.write_text(f"{TRAIN_BASE_FILE}{field.name} = {text}\n")
        events = tmp / "events.txt"
        events.write_text("# width 2 height 2\n0.1 0 0 1\n0.2 1 1 0\n")
        argv = ["reconstruct", "--events", str(events), "--config", str(config)]
    else:
        argv = ["simulate", "--size", "8x8", "--duration", "0.5",
                f"{SIM_FLAGS[field.name]}={text}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:  # a usage error: the flag's type rejects the value
            code = exc.code
    if code == 2:
        assert cls is SimConfig and SIM_FLAGS[field.name] in err.getvalue()
    else:
        assert code == 1
        assert (err.getvalue().startswith(f"error: {field.name} ")
                or f"cannot parse {field.name} from {text!r}" in err.getvalue())
    assert not out.exists()
