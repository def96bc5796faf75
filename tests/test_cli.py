import json

import numpy as np
import pytest

from evrecon.cli import build_parser, main
from evrecon.siren import init_siren, save_checkpoint
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


@pytest.mark.parametrize("command, flag", [
    (["enhance", "--checkpoints", "c", "--out", "o", "--window-dt", "0.1"], "--window-dt"),
    (["enhance", "--checkpoints", "c", "--out", "o", "--window-dt", "0.1"], "--scale"),
    (["enhance", "--checkpoints", "c", "--out", "o", "--window-dt", "0.1"], "--fps"),
    (["enhance", "--checkpoints", "c", "--out", "o", "--window-dt", "0.1"], "--threshold"),
    (["reconstruct", "--events", "e", "--out", "o"], "--gamma"),
    (["reconstruct", "--events", "e", "--out", "o"], "--fps"),
    (["reconstruct", "--events", "e", "--out", "o"], "--threshold"),
    (["simulate", "--out", "o"], "--threshold"),
    (["simulate", "--out", "o"], "--fps"),
    (["simulate", "--out", "o"], "--gamma"),
])
@pytest.mark.parametrize("value", ["0", "-5", "nan", "inf", "fast"])
def test_nonpositive_numbers_are_usage_errors(command, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + [flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_simulate_has_no_threads_option(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["simulate", "--out", "o", "--threads", "2"])
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


def test_enhance_reports_a_bad_checkpoint_as_an_error(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "partitions.json").write_text(json.dumps(
        [{"index": 0, "core_span": [0.0, 1.0], "span": [0.0, 1.0],
          "checkpoint": "partition_000.npz"}]))
    np.savez(run / "partition_000.npz", version=np.asarray(2))
    assert main(["enhance", "--checkpoints", str(run), "--window-dt", "0.05",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "version 2" in err


@pytest.mark.parametrize("line, reason", [("stages_s = 2", "unknown config key 'stages_s'"),
                                          ("total_iters 12", "expected `key = value`"),
                                          ("total_iters = twelve", "cannot parse total_iters"),
                                          ("overlap = 9", "partition_tau > overlap")])
def test_reconstruct_reports_a_bad_config_as_an_error(tmp_path, capsys, line, reason):
    config = tmp_path / "old.cfg"
    config.write_text(f"threshold_C = 0.25\n{line}\n")
    events = tmp_path / "events.txt"
    events.write_text("# width 2 height 2\n0.1 0 0 1\n0.2 1 1 0\n")
    assert main(["reconstruct", "--events", str(events), "--config", str(config),
                 "--out", str(tmp_path / "rec")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err


def test_enhance_reports_a_truncated_checkpoint_as_an_error(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "partitions.json").write_text(json.dumps(
        [{"index": 0, "core_span": [0.0, 1.0], "span": [0.0, 1.0],
          "checkpoint": "partition_000.npz"}]))
    save_checkpoint(init_siren([1, 32, 32, 64], seed=0, height=8, width=8),
                    run / "partition_000.npz")
    data = (run / "partition_000.npz").read_bytes()
    (run / "partition_000.npz").write_bytes(data[:5000])
    assert main(["enhance", "--checkpoints", str(run), "--window-dt", "0.05",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "partition_000.npz" in err
