import json
from dataclasses import fields

import numpy as np
import pytest

from evrecon.cli import build_parser, main, parse_config_file
from evrecon.siren import init_siren, save_checkpoint
from evrecon.training import TrainConfig, blas_threads


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
    (["simulate", "--out", "o"], "--duration"),
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


def test_seed_belongs_to_training_commands_only(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["selftest", "--seed", "5"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert parser.parse_args(["reconstruct", "--events", "e", "--out", "o",
                              "--seed", "5"]).seed == 5
    assert parser.parse_args(["enhance", "--window-dt", "0.1", "--out", "o",
                              "--seed", "5"]).seed == 5


def test_simulate_reports_negative_noise_as_an_error(tmp_path, capsys):
    events = tmp_path / "events.txt"
    assert main(["simulate", "--size", "8x8", "--duration", "0.5", "--noise", "-1",
                 "--out", str(events)]) == 1
    assert capsys.readouterr().err == "error: noise_rate must be >= 0, got -1.0\n"
    assert not events.exists()


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_simulate_reports_a_nonfinite_noise_rate_as_an_error(tmp_path, capsys, rate):
    events = tmp_path / "events.txt"
    assert main(["simulate", "--size", "8x8", "--duration", "0.5", "--noise", rate,
                 "--out", str(events)]) == 1
    assert capsys.readouterr().err == f"error: noise_rate must be finite, got {rate}\n"
    assert not events.exists()


def test_simulate_reports_too_many_frames_as_an_error(tmp_path, capsys):
    events = tmp_path / "events.txt"
    assert main(["simulate", "--size", "8x8", "--duration", "1e300", "--out", str(events)]) == 1
    assert capsys.readouterr().err == ("error: duration 1e+300 s at fps 240.0 makes more than "
                                       "1000000 frames\n")
    assert not events.exists()


def test_simulate_reports_a_size_numpy_cannot_allocate(tmp_path, capsys):
    """The 142 PiB video is past any 64-bit address space, so numpy's
    MemoryError comes at once, whatever the host's overcommit mode."""
    events = tmp_path / "events.txt"
    assert main(["simulate", "--size", "100000000x100000000", "--duration", "0.01", "--fps",
                 "200", "--out", str(events)]) == 1
    assert capsys.readouterr().err == ("error: cannot allocate 2 frames of "
                                       "100000000x100000000 pixels\n")
    assert not events.exists()


@pytest.mark.parametrize("command", [["reconstruct"], ["enhance", "--window-dt", "0.05"]])
def test_missing_timestamps_fail_before_training(tmp_path, capsys, monkeypatch, command):
    def train_ensemble(*args, **kwargs):
        raise AssertionError("trained before reading --timestamps")

    monkeypatch.setattr("evrecon.cli.train_ensemble", train_ensemble)
    events = tmp_path / "events.txt"
    events.write_text("# width 2 height 2\n0.1 0 0 1\n0.2 1 1 0\n")
    out = tmp_path / "out"
    for name, text, where in [("none.txt", None, "none.txt"),
                              ("words.txt", "0.1\nsoon\n", "words.txt:2: not a time"),
                              ("backwards.txt", "0.1\n\n0.15\n0.12\n",
                               "backwards.txt:4: frame times must be strictly increasing"),
                              ("endless.txt", "0.1\n0.2\ninf\n",
                               "endless.txt:3: frame time inf is not finite"),
                              ("latin1.txt", "0.1\n0.15\u00e9\n",
                               "latin1.txt:2: not UTF-8 text: '0.15\ufffd'"),
                              ("old_mac.txt", "0.1\r0.2\r0.3\u00e9\n",
                               "old_mac.txt:3: not UTF-8 text: '0.3\ufffd'")]:
        times = tmp_path / name
        if text is not None:
            times.write_bytes(text.encode("latin-1"))
        assert main([*command, "--events", str(events), "--timestamps", str(times),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err
    assert not list(tmp_path.glob("out/partition_*.npz"))


@pytest.mark.parametrize("command", [["reconstruct"], ["enhance", "--window-dt", "0.05"]])
def test_times_outside_the_stream_fail_before_training(tmp_path, capsys, monkeypatch, command):
    def train_ensemble(*args, **kwargs):
        raise AssertionError("trained before checking the requested times")

    monkeypatch.setattr("evrecon.cli.train_ensemble", train_ensemble)
    events = tmp_path / "events.txt"
    events.write_text("# width 2 height 2\n0.1 0 0 1\n0.2 1 1 0\n")
    out = tmp_path / "out"
    for text, first in [("0.0\n0.15\n", "0.0"), ("0.1\n0.2\n0.25\n", "0.25")]:
        times = tmp_path / "times.txt"
        times.write_text(text)
        assert main([*command, "--events", str(events), "--timestamps", str(times),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: time {first} outside trained span [0.1, 0.2]\n"
    assert not list(tmp_path.glob("out/partition_*.npz"))
    assert not list(tmp_path.glob("out/report_*.csv"))


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
    # The checkpoints reproduce the networks they were written from.
    frames = sorted(p.name for p in enh.glob("*.pgm"))
    assert frames and frames == sorted(p.name for p in reuse.glob("*.pgm"))
    assert all((enh / f).read_bytes() == (reuse / f).read_bytes() for f in frames)


def test_file_outputs_without_a_suffix_get_a_manifest_beside_them(tmp_path):
    sim, gt, scores = tmp_path / "sim", tmp_path / "gt", tmp_path / "scores"
    assert main(["simulate", "--size", "16x16", "--duration", "0.5", "--dump-frames", str(gt),
                 "--out", str(sim)]) == 0
    assert main(["evaluate", "--pred", str(gt), "--ref", str(gt), "--out", str(scores)]) == 0
    assert sim.is_file() and scores.is_file()
    for out, command in [(sim, "simulate"), (scores, "evaluate")]:
        manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
        assert manifest["subcommand"] == command and manifest["outputs"][0] == str(out)


def test_enhance_reports_a_bad_checkpoint_as_an_error(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    entry = {"index": 0, "core_span": [0.0, 1.0], "span": [0.0, 1.0],
             "checkpoint": "partition_000.npz"}
    np.savez(run / "partition_000.npz", version=np.asarray(2))
    no_core = {k: v for k, v in entry.items() if k != "core_span"}
    for listing, reason in [(json.dumps([entry]), "version 2"),
                            (json.dumps([entry])[:-3], "partitions.json: not a partition list"),
                            (json.dumps([no_core]), "partitions.json: not a partition list "
                                                    "(KeyError: 'core_span')")]:
        (run / "partitions.json").write_text(listing)
        assert main(["enhance", "--checkpoints", str(run), "--window-dt", "0.05",
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["reconstruct"], ["enhance", "--window-dt", "0.05"]])
def test_unreadable_event_files_are_errors(tmp_path, capsys, command):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("# width 2 height 2\n# caf\u00e9\n0.1 0 0 1\n".encode("latin-1"))
    old_mac = tmp_path / "old_mac.txt"
    old_mac.write_bytes("0.1 0 0 1\r0.2 0 0 1\r0.3 0 0 1\u00e9\n".encode("latin-1"))
    out = tmp_path / "out"
    for events, reason in [(latin1, f"line 2: cannot parse event from '# caf\ufffd' "
                                    f"({latin1} is not UTF-8 text)"),
                           (old_mac, f"line 3: cannot parse event from '0.3 0 0 1\ufffd' "
                                     f"({old_mac} is not UTF-8 text)"),
                           (tmp_path, f"Is a directory: '{tmp_path}'")]:
        assert main([*command, "--events", str(events), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"{reason}\n")
    assert not out.exists()


@pytest.mark.parametrize("line, reason", [("stages_s = 2", "unknown config key 'stages_s'"),
                                          ("adam_beta1 = 0.8", "unknown config key 'adam_beta1'"),
                                          ("adam_beta2 = 0.99", "unknown config key 'adam_beta2'"),
                                          ("adam_eps = 1e-6", "unknown config key 'adam_eps'"),
                                          ("total_iters 12", "expected `key = value`"),
                                          ("total_iters = twelve", "cannot parse total_iters"),
                                          ("overlap = 9", "partition_tau > overlap"),
                                          ("lr_decay_every = 0", "lr_decay_every must be >= 1"),
                                          ("initial_bin = nan", "initial_bin must be finite"),
                                          ("lambda_reg = nan", "lambda_reg must be finite"),
                                          ("threshold_C = nan", "threshold_C must be finite"),
                                          ("lr = nan", "lr must be finite"),
                                          ("lr = 0", "lr must be positive"),
                                          ("lr_decay = -0.5", "lr_decay must be positive"),
                                          ("partition_tau = inf", "partition_tau must be finite"),
                                          ("omega0 = inf", "omega0 must be finite"),
                                          ("# caf\u00e9",
                                           "old.cfg:5: not UTF-8 text: '# caf\ufffd'"),
                                          ("lambda_reg = 0.1\rseed = 2\u00e9",
                                           "old.cfg:6: not UTF-8 text: 'seed = 2\ufffd'")])
def test_reconstruct_reports_a_bad_config_as_an_error(tmp_path, capsys, line, reason):
    config = tmp_path / "old.cfg"
    config.write_bytes("threshold_C = 0.25\nhidden_features = 4\ntotal_iters = 3\n"
                       f"refine_at_iters = 1\n{line}\n".encode("latin-1"))
    events = tmp_path / "events.txt"
    events.write_text("# width 2 height 2\n0.1 0 0 1\n0.2 1 1 0\n")
    assert main(["reconstruct", "--events", str(events), "--config", str(config),
                 "--out", str(tmp_path / "rec")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err
    assert not (tmp_path / "rec").exists()  # rejected before any output is made


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_reconstruct_reports_a_nonfinite_lambda_as_an_error(tmp_path, capsys, value):
    events = tmp_path / "events.txt"
    events.write_text("# width 2 height 2\n0.1 0 0 1\n0.2 1 1 0\n")
    assert main(["reconstruct", "--events", str(events), "--lambda", value,
                 "--out", str(tmp_path / "rec")]) == 1
    assert capsys.readouterr().err == f"error: lambda_reg must be finite, got {value}\n"


def test_every_default_round_trips_through_a_config_file(tmp_path):
    defaults = {f.name: f.default for f in fields(TrainConfig)}
    lines = []
    for key, value in defaults.items():
        if value is None:
            text = "all"
        elif isinstance(value, tuple):
            text = ", ".join(map(str, value))
        else:
            text = repr(value)
        lines.append(f"{key} = {text}\n")
    config = tmp_path / "defaults.cfg"
    config.write_text("".join(lines))
    parsed = parse_config_file(config)
    assert parsed == defaults
    assert {k: type(v) for k, v in parsed.items()} == {k: type(v) for k, v in defaults.items()}
    assert TrainConfig(**parsed) == TrainConfig()


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


@pytest.mark.parametrize("command", [["reconstruct"], ["enhance", "--window-dt", "0.05"]])
@pytest.mark.parametrize("body, line", [("0.10 0 0 1\nnan 1 1 0\n0.12 1 0 1\n", "line 3: "),
                                        ("nan 1 0 1\n", "line 2: "),
                                        ("0.10 0 0 1\n0.12 1 1 0\ninf 1 0 1\n", "line 4: ")])
def test_nonfinite_event_times_are_errors(tmp_path, capsys, command, body, line):
    events = tmp_path / "events.txt"
    events.write_text("# width 2 height 2\n" + body)
    out = tmp_path / "out"
    assert main([*command, "--events", str(events), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + line) and "is not finite" in err
    assert not out.exists()


def test_a_stream_shorter_than_one_frame_gets_one_frame(tmp_path):
    events = tmp_path / "events.txt"
    events.write_text("# width 2 height 2\n0.10 0 0 1\n0.12 1 1 0\n")
    config = tmp_path / "tiny.cfg"
    config.write_text("total_iters = 12\nrefine_at_iters = 4, 8\nhidden_features = 16\n")
    for command in (["reconstruct"], ["enhance", "--window-dt", "0.01"]):
        out = tmp_path / command[0]
        assert main([*command, "--events", str(events), "--config", str(config),
                     "--out", str(out)]) == 0
        assert (out / "times.txt").read_text() == "0.100000000\n"
        assert [p.name for p in out.glob("*.pgm")] == ["frame_000000.pgm"]
        assert json.loads((out / "manifest.json").read_text())["config"]["frames"] == 1


def test_a_span_a_rounding_error_past_a_bin_multiple_reconstructs(tmp_path):
    """The middle partition spans 32.00000000000001 bin widths: its final
    sliver merges into the last bin instead of becoming a 33rd bin that
    refinement splits to zero width."""
    events = tmp_path / "events.txt"
    assert main(["simulate", "--size", "32x32", "--duration", "2", "--seed", "1",
                 "--threshold", "0.25", "--out", str(events)]) == 0
    config = tmp_path / "run.cfg"
    config.write_text("total_iters = 60\nrefine_at_iters = 30\npartition_tau = 0.8\n"
                      "overlap = 0.2\nthreshold_C = 0.25\nhidden_features = 128\n")
    rec = tmp_path / "rec"
    assert main(["reconstruct", "--events", str(events), "--config", str(config),
                 "--out", str(rec)]) == 0
    rows = (rec / "report_001.csv").read_text().splitlines()
    assert rows[1].endswith(",32") and rows[-1].endswith(",64")
