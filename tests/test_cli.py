import json

import pytest

from evrecon.cli import build_parser, main
from evrecon.training import blas_threads


@pytest.mark.parametrize("command", [["reconstruct", "--events", "e", "--out", "o"],
                                     ["enhance", "--window-dt", "0.1", "--out", "o"],
                                     ["selftest"]])
@pytest.mark.parametrize("value", ["0", "-2", "two"])
def test_threads_below_one_is_a_usage_error(command, value, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(command + ["--threads", value])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_threads_default_and_explicit_value():
    parser = build_parser()
    assert parser.parse_args(["selftest"]).threads >= 1
    assert parser.parse_args(["selftest", "--threads", "3"]).threads == 3


def test_manifests_record_workers_and_blas_threads(tmp_path):
    events = tmp_path / "events.txt"
    config = tmp_path / "tiny.cfg"
    config.write_text("threshold_C = 0.25\ntotal_iters = 12\nrefine_at_iters = 4, 8\n"
                      "hidden_features = 16\npartition_tau = 0.5\noverlap = 0.1\n")
    assert main(["simulate", "--size", "12x12", "--duration", "1", "--fps", "120",
                 "--seed", "2", "--out", str(events)]) == 0
    prev = blas_threads()
    pinned = prev // 2 if prev is not None and prev > 1 else None
    train = ["--events", str(events), "--config", str(config), "--fps", "30"]

    rec = tmp_path / "rec"
    assert main(["reconstruct", *train, "--threads", "2", "--out", str(rec)]) == 0
    cfg = json.loads((rec / "manifest.json").read_text())["config"]
    assert (cfg["workers"], cfg["blas_threads"]) == (2, pinned)

    enh = tmp_path / "enh"
    assert main(["enhance", *train, "--window-dt", "0.05", "--threads", "1",
                 "--out", str(enh)]) == 0
    cfg = json.loads((enh / "manifest.json").read_text())["config"]
    assert (cfg["workers"], cfg["blas_threads"]) == (1, None)

    reuse = tmp_path / "reuse"
    assert main(["enhance", "--checkpoints", str(rec), "--window-dt", "0.05",
                 "--fps", "30", "--out", str(reuse)]) == 0
    cfg = json.loads((reuse / "manifest.json").read_text())["config"]
    assert (cfg["workers"], cfg["blas_threads"]) == (None, None)
    assert blas_threads() == prev
