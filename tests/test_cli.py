import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import evrecon
import output_reference as ref
from conftest import make_stream
from evrecon.cli import _write_partitions, build_parser, load_partitions, main, parse_config_file
from evrecon.pgm import read_frame_dir, write_frame_dir
from evrecon.reconstruct import enhance_events, enhancement_to_bytes, sample_video
from evrecon.siren import init_siren, save_checkpoint
from evrecon.training import TrainConfig, blas_threads, build_partitions


ENHANCE = ["enhance", "--checkpoints", "c", "--window-dt", "0.1", "--out", "o"]


@pytest.mark.parametrize("value", ["0", "-2", "two"])
def test_threads_below_one_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["reconstruct", "--events", "e", "--out", "o",
                                   "--threads", value])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    (["enhance", "--checkpoints", "c", "--out", "o", "--window-dt", "0.1"], "--window-dt"),
    (["enhance", "--checkpoints", "c", "--out", "o", "--window-dt", "0.1"], "--scale"),
    (["enhance", "--checkpoints", "c", "--out", "o", "--window-dt", "0.1"], "--fps"),
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
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(ENHANCE + ["--seed", "5"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [
    *((ENHANCE, option) for option in [["--events", "e"], ["--config", "c"],
                                       ["--polarity", "signed"], ["--width", "3"],
                                       ["--height", "3"], ["--threshold", "0.1"],
                                       ["--seed", "5"], ["--threads", "7"]]),
    (["selftest"], ["--threads", "1"]),
])
def test_training_options_belong_to_reconstruct_only(command, option, capsys):
    """enhance reads a reconstruct output directory and trains nothing."""
    with pytest.raises(SystemExit) as exc:
        main(command + option)
    assert exc.value.code == 2
    assert option[0] in capsys.readouterr().err


def test_enhance_needs_checkpoints(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enhance", "--window-dt", "0.1", "--out", "o"])
    assert exc.value.code == 2
    assert "--checkpoints" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["reconstruct", "--events", "e", "--out", "o"], ENHANCE])
def test_timestamps_and_fps_together_are_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--timestamps", "t.txt", "--fps", "60"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


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


def test_missing_timestamps_fail_before_training(tmp_path, capsys, monkeypatch):
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
        assert main(["reconstruct", "--events", str(events), "--timestamps", str(times),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err
    assert not list(tmp_path.glob("out/partition_*.npz"))


def test_too_many_frames_at_the_fps_fail_before_training(tmp_path, capsys, monkeypatch):
    """numpy cannot make the times of 1e300 frames per second."""
    def train_ensemble(*args, **kwargs):
        raise AssertionError("trained before counting the requested frames")

    monkeypatch.setattr("evrecon.cli.train_ensemble", train_ensemble)
    events = tmp_path / "events.txt"
    events.write_text("# width 2 height 2\n0.1 0 0 1\n0.2 1 1 0\n")
    out = tmp_path / "out"
    for fps in ["1e300", "2e7"]:
        assert main(["reconstruct", "--events", str(events), "--fps", fps,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: --fps {float(fps)} over the span [0.1, 0.2] "
                                           "makes more than 1000000 frames\n")
    assert not out.exists()


def test_times_outside_the_stream_fail_before_training(tmp_path, capsys, monkeypatch):
    def train_ensemble(*args, **kwargs):
        raise AssertionError("trained before checking the requested times")

    monkeypatch.setattr("evrecon.cli.train_ensemble", train_ensemble)
    events = tmp_path / "events.txt"
    events.write_text("# width 2 height 2\n0.1 0 0 1\n0.2 1 1 0\n")
    out = tmp_path / "out"
    for text, first in [("0.0\n0.15\n", "0.0"), ("0.1\n0.2\n0.25\n", "0.25")]:
        times = tmp_path / "times.txt"
        times.write_text(text)
        assert main(["reconstruct", "--events", str(events), "--timestamps", str(times),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: time {first} outside trained span [0.1, 0.2]\n"
    assert not list(tmp_path.glob("out/partition_*.npz"))
    assert not list(tmp_path.glob("out/report_*.csv"))


def test_threads_default_and_explicit_value():
    parser = build_parser()
    rec = ["reconstruct", "--events", "e", "--out", "o"]
    assert parser.parse_args(rec).threads >= 1
    assert parser.parse_args(rec + ["--threads", "3"]).threads == 3


def test_threads_default_is_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    args = build_parser().parse_args(["reconstruct", "--events", "e", "--out", "o"])
    assert args.threads == 1


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

    assert blas_threads() == prev

    # enhance trains nothing: the run's own manifest holds its threading.
    reuse = tmp_path / "reuse"
    assert main(["enhance", "--checkpoints", str(rec), "--window-dt", "0.05",
                 "--fps", "30", "--out", str(reuse)]) == 0
    manifest = json.loads((reuse / "manifest.json").read_text())
    assert (manifest["inputs"], manifest["seed"]) == ([str(rec)], None)
    assert manifest["config"].keys() == {"window_dt", "scale", "frames"}
    frames, times = read_frame_dir(reuse)
    assert np.array_equal(frames, enhancement_to_bytes(
        enhance_events(load_partitions(rec), times, 0.05)))


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
    entry = {"index": 0, "checkpoint": "partition_000.npz"}
    np.savez(run / "partition_000.npz", version=np.asarray(2))
    bad = "partitions.json: not a partition list"
    listings = [(json.dumps([entry]), "version 2"),
                (json.dumps([entry])[:-3], bad),
                (json.dumps([{"index": 0}]), f"{bad} (KeyError: 'checkpoint')"),
                ("[]", f"{bad} (indices [] are not the ints 0..n-1 of n >= 1 partitions)")]
    for indices in [[0.0], [True], [0, 0], [1, 2]]:
        listings.append((json.dumps([{**entry, "index": i} for i in indices]),
                         f"{bad} (indices {indices!r} are not the ints 0..n-1"))
    # Checkpoints that load but do not chain: a gap between two domains,
    # two files swapped, two domains that start together, a network of
    # another frame size, and a span nested in the one before, listed as
    # older versions wrote it, with cores [0, 1], [1, 2], [2, 3] that tile
    # and spans equal to the t_domains.
    for name, span, size in [("early.npz", (0.0, 0.6), 4), ("late.npz", (0.4, 1.0), 4),
                             ("gap.npz", (0.7, 1.0), 4), ("small.npz", (0.4, 1.0), 3),
                             ("outer.npz", (0.0, 3.0), 4), ("nested.npz", (0.5, 2.0), 4),
                             ("last.npz", (1.5, 3.0), 4)]:
        save_checkpoint(init_siren([1, 8, size * size], seed=0, height=size, width=size,
                                   t_domain=span), run / name)

    def listing(*names):
        return json.dumps([{"index": i, "checkpoint": n} for i, n in enumerate(names)])

    # A checkpoint whose t_domain never ends, which would sample flat frames.
    with np.load(run / "early.npz") as data:
        np.savez(run / "endless.npz", **{**data, "t_domain": np.asarray([0.0, np.inf])})
    listings.append((listing("endless.npz"),
                     f"{run / 'endless.npz'}: t_domain [0.0, inf] is not two finite times"))

    def unchained(name, i, d, b):
        return (f"{run / name}: t_domain {d} of partition {i} does not follow partition "
                f"{i - 1}'s {b}: need {b[0]} < {d[0]} <= {b[1]} <= {d[1]}")

    listings += [(listing("early.npz", "gap.npz"),
                  unchained("gap.npz", 1, [0.7, 1.0], [0.0, 0.6])),
                 (listing("late.npz", "early.npz"),
                  unchained("early.npz", 1, [0.0, 0.6], [0.4, 1.0])),
                 (listing("early.npz", "outer.npz"),
                  unchained("outer.npz", 1, [0.0, 3.0], [0.0, 0.6])),
                 (listing("early.npz", "small.npz"),
                  f"{run / 'small.npz'}: frames are 3x3, partition 0's are 4x4"),
                 (json.dumps([{"index": i, "core_span": [i, i + 1.0], "span": span,
                               "checkpoint": name}
                              for i, (name, span) in enumerate([("outer.npz", [0.0, 3.0]),
                                                                ("nested.npz", [0.5, 2.0]),
                                                                ("last.npz", [1.5, 3.0])])]),
                  unchained("nested.npz", 1, [0.5, 2.0], [0.0, 3.0]))]
    for listing_text, reason in listings:
        (run / "partitions.json").write_text(listing_text)
        assert main(["enhance", "--checkpoints", str(run), "--window-dt", "0.05",
                     "--fps", "10", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err
    assert not (tmp_path / "out").exists()


def written_and_loaded(partitions, run, listing=None) -> list:
    """`partitions` written as reconstruct writes them, with their
    partitions.json replaced by `listing` when given, and loaded back."""
    run.mkdir()
    _write_partitions(partitions, run)
    if listing is not None:
        (run / "partitions.json").write_text(json.dumps(listing))
    return load_partitions(run)


def test_a_window_clamped_layout_round_trips(tmp_path):
    """A 1.05 s stream at tau 1 and overlap 0.5 gives two spans that end
    together, (0, 1.05) and (0.75, 1.05): the chain rule must take an end
    equal to the one before."""
    stream = make_stream([0.0, 0.5, 1.05], [0, 1, 0], [0, 1, 1], [1, -1, 1], width=2,
                         height=2)
    built = build_partitions(stream, TrainConfig(partition_tau=1.0, overlap=0.5,
                                                 hidden_features=8, hidden_layers=1))
    loaded = written_and_loaded(built, tmp_path / "run")
    assert [p.span for p in loaded] == [p.span for p in built] == [(0.0, 1.05), (0.75, 1.05)]
    times = np.linspace(0.0, 1.05, 22)
    assert np.array_equal(sample_video(loaded, times).frames, sample_video(built, times).frames)


def test_an_old_listing_loads_with_the_old_routing(tmp_path):
    """A listing that still carries each partition's core and span loads
    from its checkpoints alone and samples the bits that routing by those
    cores gives, which is how sampling routed times when listings had
    them: three 0.5 s partitions at overlap 0.1 over 1.3 s."""
    stream = make_stream(np.linspace(0.0, 1.3, 40), np.arange(40) % 3, np.arange(40) % 2,
                         np.where(np.arange(40) % 2, 1, -1), width=3, height=2)
    built = build_partitions(stream, TrainConfig(partition_tau=0.5, overlap=0.1,
                                                 hidden_features=8, hidden_layers=1))
    cores = [(0.0, 0.5), (0.5, 1.0), (1.0, 1.3)]
    old = [{"index": p.index, "core_span": list(core), "span": list(p.span),
            "checkpoint": f"partition_{p.index:03d}.npz"} for p, core in zip(built, cores)]
    loaded = written_and_loaded(built, tmp_path / "run", old[::-1])
    assert [p.span for p in loaded] == [(0.0, 0.55), (0.45, 1.05), (0.95, 1.3)]
    edges = [core[0] for core in cores[1:]]
    times = np.unique(np.concatenate([np.linspace(0.0, 1.3, 53), edges,
                                      np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
                                      [s for p in loaded for s in p.span]]))
    assert np.array_equal(sample_video(loaded, times).frames,
                          ref.sample(built, times, False, edges))
    assert np.array_equal(enhance_events(loaded, times, 0.02),
                          ref.enhance_events(built, times, 0.02, edges))


def test_unreadable_event_files_are_errors(tmp_path, capsys):
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
        assert main(["reconstruct", "--events", str(events), "--out", str(out)]) == 1
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


@pytest.mark.parametrize("body, line", [("0.10 0 0 1\nnan 1 1 0\n0.12 1 0 1\n", "line 3: "),
                                        ("nan 1 0 1\n", "line 2: "),
                                        ("0.10 0 0 1\n0.12 1 1 0\ninf 1 0 1\n", "line 4: ")])
def test_nonfinite_event_times_are_errors(tmp_path, capsys, body, line):
    events = tmp_path / "events.txt"
    events.write_text("# width 2 height 2\n" + body)
    out = tmp_path / "out"
    assert main(["reconstruct", "--events", str(events), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + line) and "is not finite" in err
    assert not out.exists()


def test_a_stream_shorter_than_one_frame_gets_one_frame(tmp_path):
    events = tmp_path / "events.txt"
    events.write_text("# width 2 height 2\n0.10 0 0 1\n0.12 1 1 0\n")
    config = tmp_path / "tiny.cfg"
    config.write_text("total_iters = 12\nrefine_at_iters = 4, 8\nhidden_features = 16\n")
    rec = tmp_path / "reconstruct"
    assert main(["reconstruct", "--events", str(events), "--config", str(config),
                 "--out", str(rec)]) == 0
    assert main(["enhance", "--checkpoints", str(rec), "--window-dt", "0.01",
                 "--out", str(tmp_path / "enhance")]) == 0
    for out in (rec, tmp_path / "enhance"):
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


def _python(*args):
    """A fresh interpreter that finds this `evrecon` package, run on args."""
    src = str(Path(evrecon.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def test_evaluate_runs_with_scipy_unimportable(tmp_path):
    """`sys.modules["scipy"] = None` makes every scipy import raise, so the
    package and its scoring path load numpy alone."""
    frames = tmp_path / "frames"
    rng = np.random.default_rng(0)
    write_frame_dir(frames, rng.integers(0, 256, (2, 16, 16)).astype(np.uint8),
                    np.array([0.0, 0.1]))
    scores = tmp_path / "scores.csv"
    argv = ["evaluate", "--pred", str(frames), "--ref", str(frames), "--out", str(scores)]
    run = _python("-c", "import sys; sys.modules['scipy'] = None; from evrecon.cli import main; "
                        f"raise SystemExit(main({argv!r}))")
    assert run.returncode == 0, run.stderr
    assert len(scores.read_text().splitlines()) == 3


def test_python_dash_m_evrecon_runs_the_command_line():
    run = _python("-m", "evrecon", "--version")
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"evrecon {evrecon.__version__}\n"
