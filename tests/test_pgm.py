import numpy as np
import pytest

from evrecon import pgm
from evrecon.cli import main
from evrecon.errors import InvalidPGM
from evrecon.pgm import read_frame_dir, read_pgm, write_frame_dir, write_pgm


def test_p5_round_trip_is_byte_exact(tmp_path):
    frame = np.arange(12, dtype=np.uint8).reshape(3, 4) * 21
    path = tmp_path / "f.pgm"
    write_pgm(path, frame)
    assert path.read_bytes() == b"P5\n4 3\n255\n" + frame.tobytes()
    back = read_pgm(path)
    assert back.dtype == np.uint8 and np.array_equal(back, frame)


def test_p2_read_skips_comments(tmp_path):
    path = tmp_path / "f.pgm"
    path.write_bytes(b"P2\n# ascii\n3 2\n255\n0 10 20\n30 40 255\n")
    assert np.array_equal(read_pgm(path), [[0, 10, 20], [30, 40, 255]])


@pytest.mark.parametrize("data, reason", [
    (b"P5\n4 3\n", "truncated PGM header"),
    (b"P5\n4 3\n255\n" + bytes(11), "truncated PGM raster"),
    (b"P5\n4 3\n65535\n" + bytes(24), "maxval 65535"),
    (b"P5\n4 3\n0\n" + bytes(12), "maxval 0"),
    (b"P2\n2 1\n255\n", "expected 2 samples"),
    (b"P2\n2 1\n255\n300 10\n", "sample 0 is 300, outside \\[0, 255\\]"),
    (b"P5\n2 1\n15\n\x0f\xc8", "sample 1 is 200, outside \\[0, 15\\]"),
    (b"P2\n2 1\n15\n15 200\n", "sample 1 is 200, outside \\[0, 15\\]"),
    (b"P2\n2 1\n15\n3 -1\n", "sample 1 is -1, outside \\[0, 15\\]"),
])
def test_malformed_pgm_raises(tmp_path, data, reason):
    path = tmp_path / "f.pgm"
    path.write_bytes(data)
    with pytest.raises(InvalidPGM, match=reason):
        read_pgm(path)


def test_a_shorter_frame_dir_write_removes_only_its_own_stale_frames(tmp_path):
    foreign = ["frame_7.pgm", "frame_0000003.pgm", "frame_000002.pgm.bak", "other.pgm"]
    for name in foreign:
        (tmp_path / name).write_bytes(b"")
    write_frame_dir(tmp_path, np.zeros((3, 2, 2), np.uint8), np.array([0.0, 0.5, 1.0]))
    write_frame_dir(tmp_path, np.ones((1, 2, 2), np.uint8), np.array([0.25]))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["frame_000000.pgm", "times.txt", *foreign])
    assert read_pgm(tmp_path / "frame_000000.pgm").tolist() == [[1, 1], [1, 1]]


def test_frame_dir_rejects_a_times_length_mismatch(tmp_path):
    write_frame_dir(tmp_path, np.zeros((2, 3, 4), np.uint8), np.array([0.0, 0.5]))
    (tmp_path / "times.txt").write_text("0.0\n0.5\n1.0\n")
    with pytest.raises(InvalidPGM, match="times.txt length 3 != 2 frames"):
        read_frame_dir(tmp_path)


def test_frame_dir_reads_frames_in_index_order_whatever_the_names_sort_as(tmp_path, monkeypatch):
    """Unpadded names sort frame_10 before frame_2, as six-digit names
    sort frame_1000000 before frame_999999."""
    monkeypatch.setattr(pgm, "frame_filename", lambda i: f"frame_{i}.pgm")
    frames = np.arange(11, dtype=np.uint8).reshape(11, 1, 1)
    write_frame_dir(tmp_path, frames, np.arange(11) / 10)
    back, times = read_frame_dir(tmp_path)
    assert np.array_equal(back, frames) and np.array_equal(times, np.arange(11) / 10)


def test_a_frame_dir_without_times_reads_up_to_the_first_missing_frame(tmp_path):
    write_frame_dir(tmp_path, np.arange(3, dtype=np.uint8).reshape(3, 1, 1), np.arange(3.0))
    (tmp_path / "times.txt").unlink()
    (tmp_path / "frame_000001.pgm").unlink()
    frames, times = read_frame_dir(tmp_path)
    assert frames.tolist() == [[[0]]] and times.tolist() == [0.0]


def test_evaluate_reads_only_the_frames_times_txt_indexes(tmp_path):
    """A foreign frame_7.pgm beside a two-frame run is not read, nor is a
    frame past the end of times.txt."""
    frames = np.full((2, 16, 16), 128, np.uint8)
    for name in ("pred", "ref"):
        write_frame_dir(tmp_path / name, frames, np.array([0.0, 0.5]))
    out = tmp_path / "scores.csv"
    for extra in ("frame_7.pgm", "frame_000002.pgm"):
        write_pgm(tmp_path / "pred" / extra, np.zeros((4, 4), np.uint8))
        assert main(["evaluate", "--pred", str(tmp_path / "pred"),
                     "--ref", str(tmp_path / "ref"), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3


def test_evaluate_reports_a_truncated_frame_as_an_error(tmp_path, capsys):
    frames = np.full((2, 16, 16), 128, np.uint8)
    for name in ("pred", "ref"):
        write_frame_dir(tmp_path / name, frames, np.array([0.0, 0.5]))
    out = tmp_path / "scores.csv"
    bad = tmp_path / "pred" / "frame_000001.pgm"
    for damage, reason in [(lambda: bad.write_bytes(bad.read_bytes()[:100]),
                            "frame_000001.pgm: truncated PGM raster"),
                           (lambda: write_pgm(bad, np.zeros((16, 12), np.uint8)),
                            "frame_000001.pgm: frame is 12x16, frame_000000.pgm is 16x16")]:
        damage()
        assert main(["evaluate", "--pred", str(tmp_path / "pred"),
                     "--ref", str(tmp_path / "ref"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err
        assert not out.exists()
