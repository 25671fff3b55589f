"""Binary checkpoints for 2D vorticity states.

Layout (all multi-byte values little-endian):

    bytes 0..3    magic "ALFL"
    bytes 4..7    version, u32 (currently 1)
    bytes 8..19   experiment tag, ASCII, NUL-padded to 12 bytes
    bytes 20..27  nx, ny: u32 each
    bytes 28..83  alpha, nu, t, mean_ux, mean_uy, lx, ly: f64 each
    bytes 84..    payload: nx*ny complex coefficients of q as f64 pairs
                  (real, imag interleaved), row-major over (k_x, k_y)

The payload is spectral.full_coeffs(q); in memory q holds its jy >= 0 half.
Write-then-read reproduces coefficients bit-exactly.  Reading rejects, with
CheckpointError, any header field a state cannot carry and a payload that is
not finite, whose jy < 0 half is not the conjugate mirror of its jy > 0
half, or that is not realizable as a potential vorticity.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .dynamics import VorticityState
from .spectral import AlphaParam, SpectralField, full_coeffs, make_grid

MAGIC = b"ALFL"
VERSION = 1
_HEADER = struct.Struct("<4sI12sII7d")


class CheckpointError(ValueError):
    pass


_GRID_SIZE = ("an even grid size >= 4", lambda v: v >= 4 and v % 2 == 0)
_NONNEG = ("finite and >= 0", lambda v: 0.0 <= v < math.inf)
_FINITE = ("finite", math.isfinite)
_POSITIVE = ("positive and finite", lambda v: 0.0 < v < math.inf)

# header fields in file order -> (what a valid value is, its test)
_HEADER_RULES = {
    "nx": _GRID_SIZE,
    "ny": _GRID_SIZE,
    "alpha": _NONNEG,
    "nu": _NONNEG,
    "t": _FINITE,
    "mean_ux": _FINITE,
    "mean_uy": _FINITE,
    "lx": _POSITIVE,
    "ly": _POSITIVE,
}


def write_checkpoint(state: VorticityState, path, tag: str = "", nu: float = 0.0) -> None:
    g = state.grid
    tag_bytes = tag.encode("ascii")[:12].ljust(12, b"\0")
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        tag_bytes,
        g.nx,
        g.ny,
        state.alpha.alpha,
        nu,
        state.t,
        state.mean_velocity[0],
        state.mean_velocity[1],
        g.Lx,
        g.Ly,
    )
    payload = np.ascontiguousarray(full_coeffs(state.q), dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_checkpoint(path) -> tuple[VorticityState, dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise CheckpointError("truncated header")
    magic, version, tag, *values = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}; not a checkpoint file")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    header = dict(zip(_HEADER_RULES, values))
    for name, (valid, ok) in _HEADER_RULES.items():
        if not ok(header[name]):
            raise CheckpointError(f"header field {name} = {header[name]!r} is not {valid}")
    try:
        tag = tag.rstrip(b"\0").decode("ascii")
    except UnicodeDecodeError:
        raise CheckpointError(f"header field tag {tag!r} is not ASCII") from None
    nx, ny = header["nx"], header["ny"]
    expected = _HEADER.size + nx * ny * 16
    if len(raw) != expected:
        raise CheckpointError(f"payload length {len(raw) - _HEADER.size} does not match {nx}x{ny} grid")
    coeffs = np.frombuffer(raw[_HEADER.size:], dtype="<c16").reshape(nx, ny).astype(np.complex128)
    if not np.isfinite(coeffs).all():
        raise CheckpointError("payload holds non-finite coefficients")
    grid = make_grid(nx, ny, header["lx"], header["ly"])
    q = SpectralField(grid, coeffs[:, : ny // 2 + 1])
    if not np.array_equal(full_coeffs(q), coeffs):
        raise CheckpointError("payload: the jy < 0 half of q is not the conjugate mirror of its jy > 0 half")
    try:
        state = VorticityState(q, AlphaParam(header["alpha"]), header["t"], (header["mean_ux"], header["mean_uy"]))
    except ValueError as e:  # q with a nonzero mean
        raise CheckpointError(f"payload: {e}") from None
    return state, {"tag": tag, "nu": header["nu"]}
