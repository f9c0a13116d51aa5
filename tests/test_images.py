from __future__ import annotations

import re

import numpy as np
import pytest

from situsearch.cli import main
from situsearch.errors import ParseError
from situsearch.images import read_pnm, write_pgm


def write_ppm(path, image: np.ndarray) -> None:
    """Write an (H, W, 3) float array in [0, 1] as a binary 8-bit PPM."""
    pixels = np.clip(np.round(np.asarray(image, dtype=float) * 255), 0, 255).astype(np.uint8)
    header = f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + pixels.tobytes())


def test_pgm_round_trip_within_quantization(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, size=(17, 23))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pnm(path)
    assert back.shape == img.shape
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-9


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 1, size=(9, 11, 3))
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    back = read_pnm(path)
    assert back.shape == img.shape
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-9


def test_ascii_pgm_with_comments(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_text("P2\n# a comment\n3 2\n255\n0 128 255\n64 32 16\n")
    img = read_pnm(path)
    assert img.shape == (2, 3)
    assert img[0, 2] == pytest.approx(1.0)
    assert img[0, 1] == pytest.approx(128 / 255)


def test_bad_magic_is_parse_error(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P9\n1 1\n255\n\x00")
    with pytest.raises(ParseError):
        read_pnm(path)


def test_truncated_pixels_is_parse_error(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x01\x02")
    with pytest.raises(ParseError):
        read_pnm(path)


@pytest.mark.parametrize("maxval", [b"0255", b"00255"])
def test_binary_payload_starts_after_the_maxval_token_as_written(tmp_path, maxval):
    path = tmp_path / "padded.pgm"
    path.write_bytes(b"P5\n2 2\n" + maxval + b"\n" + bytes([10, 20, 30, 40]))
    np.testing.assert_array_equal(read_pnm(path) * 255, [[10, 20], [30, 40]])


@pytest.mark.parametrize("header", [b"2 2\n+255", b"2 2\n2_55", b"+2 2\n255", b"2 -2\n255"])
def test_header_token_that_is_not_digits_is_parse_error(tmp_path, capsys, header):
    path = tmp_path / "signed.pgm"
    path.write_bytes(b"P5\n" + header + b"\n" + bytes(4))
    message = re.escape(f"{path}: header token ") + ".* is not a number"
    with pytest.raises(ParseError, match=message):
        read_pnm(path)
    assert main(["salience", "--image", str(path), "--out", str(tmp_path / "s.sal")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: header token")
