"""Binary checkpoint format: bit-exact round trips and format guards."""

import struct

import numpy as np
import pytest

from alpha_fluids.checkpoint import MAGIC, CheckpointError, read_checkpoint, write_checkpoint
from alpha_fluids.dynamics import VorticityState, state_from_velocity
from alpha_fluids.spectral import AlphaParam, cosine_field, derivative, make_grid


def sample_state(n=32, a=0.35):
    g = make_grid(n, n)
    psi = cosine_field(g, (1, 0), 0.4) + cosine_field(g, (2, 1), 0.3, 1.1)
    st = state_from_velocity(derivative(psi, "perp_gradient"), AlphaParam(a))
    return VorticityState(st.q, st.alpha, t=0.625, mean_velocity=(0.125, -0.25))


def test_round_trip_bit_exact(tmp_path):
    st = sample_state()
    path = tmp_path / "state.ckpt"
    write_checkpoint(st, path, tag="simulate2d", nu=0.01)
    back, meta = read_checkpoint(path)
    assert np.array_equal(back.q.coeffs, st.q.coeffs)  # bitwise
    assert back.t == st.t
    assert back.alpha.alpha == st.alpha.alpha
    assert np.array_equal(back.mean_velocity, st.mean_velocity)
    assert meta["tag"] == "simulate2d"
    assert meta["nu"] == 0.01


def test_wrong_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    write_checkpoint(sample_state(), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        read_checkpoint(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "short.ckpt"
    write_checkpoint(sample_state(), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(CheckpointError, match="payload"):
        read_checkpoint(path)


def test_version_guard(tmp_path):
    path = tmp_path / "vers.ckpt"
    write_checkpoint(sample_state(), path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        read_checkpoint(path)


def test_magic_constant():
    assert MAGIC == b"ALFL"


# header field -> (struct format, byte offset); see the layout in alpha_fluids.checkpoint
HEADER_FIELDS = {
    "tag": ("12s", 8),
    "nx": ("<I", 20),
    "ny": ("<I", 24),
    "alpha": ("<d", 28),
    "nu": ("<d", 36),
    "t": ("<d", 44),
    "mean_ux": ("<d", 52),
    "mean_uy": ("<d", 60),
    "lx": ("<d", 68),
    "ly": ("<d", 76),
}


@pytest.mark.parametrize(
    "name, value",
    [
        ("tag", b"sim\xff"),
        ("nx", 5),
        ("nx", 2),
        ("ny", 31),
        ("alpha", float("nan")),
        ("alpha", -1.0),
        ("alpha", float("inf")),
        ("nu", float("nan")),
        ("nu", -0.5),
        ("t", float("nan")),
        ("t", float("-inf")),
        ("mean_ux", float("nan")),
        ("mean_uy", float("inf")),
        ("lx", float("nan")),
        ("lx", float("inf")),
        ("lx", 0.0),
        ("ly", -1.0),
    ],
)
def test_tampered_header_field_is_named(tmp_path, name, value):
    path = tmp_path / "tampered.ckpt"
    write_checkpoint(sample_state(), path)
    raw = bytearray(path.read_bytes())
    fmt, offset = HEADER_FIELDS[name]
    struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=rf"header field {name}\b"):
        read_checkpoint(path)


def test_non_finite_payload(tmp_path):
    path = tmp_path / "nan.ckpt"
    write_checkpoint(sample_state(), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, len(raw) - 16, float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="non-finite"):
        read_checkpoint(path)


def test_payload_that_is_not_a_conjugate_mirror(tmp_path):
    """A jy < 0 coefficient that differs from conj of its mirror has no place in the stored half."""
    path = tmp_path / "mirror.ckpt"
    st = sample_state()
    write_checkpoint(st, path)
    raw = bytearray(path.read_bytes())
    ny = st.grid.ny
    offset = 84 + 16 * (1 * ny + ny - 1)  # q at (jx, jy) = (1, -1), real part
    (re,) = struct.unpack_from("<d", raw, offset)
    struct.pack_into("<d", raw, offset, re + 1e-3)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="payload: the jy < 0 half of q is not the conjugate mirror"):
        read_checkpoint(path)
