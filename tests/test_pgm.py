import numpy as np
import pytest

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
    (b"P2\n2 1\n255\n", "expected 2 samples"),
    (b"P2\n2 1\n255\n300 10\n", "samples in \\[0, 255\\], got 2"),
])
def test_malformed_pgm_raises(tmp_path, data, reason):
    path = tmp_path / "f.pgm"
    path.write_bytes(data)
    with pytest.raises(InvalidPGM, match=reason):
        read_pgm(path)


def test_frame_dir_rejects_a_times_length_mismatch(tmp_path):
    write_frame_dir(tmp_path, np.zeros((2, 3, 4), np.uint8), np.array([0.0, 0.5]))
    (tmp_path / "times.txt").write_text("0.0\n0.5\n1.0\n")
    with pytest.raises(InvalidPGM, match="times.txt length 3 != 2 frames"):
        read_frame_dir(tmp_path)


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
