"""Minimal PGM/PPM image reading and writing.

Netpbm is the one image format the toolchain speaks: it is trivially
parseable, dependency-free, and enough to feed the salience computation.
Pixel values are exposed as floats in [0, 1]; RGB images come back as
(height, width, 3); a sample above maxval is rejected.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ParseError


def _tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping # comments."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i : i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
        else:
            start = i
            while i < n and not data[i : i + 1].isspace():
                i += 1
            yield start, data[start:i]


def _number(path: Path, what: str, tok: bytes) -> int:
    """A token of decimal digits as an int; int() would also take a sign or an underscore."""
    if not tok.isdigit():
        raise ParseError(f"{path}: {what} {tok.decode('latin-1')!r} is not a number")
    return int(tok)


def read_pnm(path: str | Path) -> np.ndarray:
    """Read a PGM (P2/P5) or PPM (P3/P6) file as floats in [0, 1]."""
    path = Path(path)
    data = path.read_bytes()
    toks = _tokens(data)
    try:
        _, magic = next(toks)
        magic = magic.decode("ascii")
        if magic not in ("P2", "P3", "P5", "P6"):
            raise ParseError(f"{path}: unsupported magic {magic!r}")
        header = []
        while len(header) < 3:
            start, tok = next(toks)
            header.append(_number(path, "header token", tok))
        width, height, maxval = header
        if width < 1 or height < 1 or maxval < 1 or maxval > 65535:
            raise ParseError(f"{path}: bad header {width}x{height} maxval {maxval}")
        channels = 3 if magic in ("P3", "P6") else 1
        count = width * height * channels
        if magic in ("P2", "P3"):
            values = []
            for _, tok in toks:
                # Capped, a sample too large for a float is rejected with the rest below.
                values.append(min(_number(path, "sample", tok), maxval + 1))
                if len(values) == count:
                    break
            if len(values) != count:
                raise ParseError(f"{path}: expected {count} samples, got {len(values)}")
            raw = np.array(values, dtype=float)
        else:
            # Binary payload starts after exactly one whitespace byte past maxval's token.
            offset = start + len(tok) + 1
            dtype = np.dtype(">u2") if maxval > 255 else np.uint8
            raw = np.frombuffer(data, dtype=dtype, count=count, offset=offset).astype(float)
            if raw.size != count:
                raise ParseError(f"{path}: truncated pixel data")
    except (StopIteration, ValueError) as exc:
        raise ParseError(f"{path}: malformed netpbm header ({exc})") from exc
    if raw.max() > maxval:
        raise ParseError(f"{path}: a sample exceeds maxval {maxval}")
    img = raw / maxval
    if channels == 3:
        return img.reshape(height, width, 3)
    return img.reshape(height, width)


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a 2-D float array in [0, 1] as a binary 8-bit PGM."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2 or img.size == 0:
        raise ParseError(f"write_pgm needs a non-empty 2-d array, got shape {img.shape}")
    pixels = np.clip(np.round(img * 255), 0, 255).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())
