"""Vortex-blob kernel, dynamics, and invariants."""

import numpy as np
import pytest
from test_dynamics import assert_same_bits

from alpha_fluids.bessel import k1
from alpha_fluids.blobs import (
    BlobEnsemble,
    blob_diagnostics,
    blob_rhs,
    blob_ring,
    corotation_rate,
    run_blobs,
    step_blobs_rk4,
)


def two_blob(d=1.0, gamma=1.0, alpha=0.35):
    pos = np.array([[-d / 2, 0.0], [d / 2, 0.0]])
    return BlobEnsemble(pos, np.array([gamma, gamma]), alpha)


def predecessor_step_blobs_rk4(ens, dt):
    """The hand-written RK4 stage sum that integrate.rk4 replaced, kept as a bitwise oracle."""
    if dt == 0.0:
        return ens
    x = ens.positions
    k1_ = blob_rhs(ens)
    k2 = blob_rhs(ens.with_positions(x + 0.5 * dt * k1_))
    k3 = blob_rhs(ens.with_positions(x + 0.5 * dt * k2))
    k4 = blob_rhs(ens.with_positions(x + dt * k3))
    return ens.with_positions(x + (dt / 6.0) * (k1_ + 2.0 * k2 + 2.0 * k3 + k4))


class TestKernel:
    def test_single_blob_at_rest(self):
        ens = BlobEnsemble(np.array([[0.3, -0.7]]), np.array([2.0]), 0.5)
        assert np.abs(blob_rhs(ens)).max() == 0.0

    def test_two_blob_speed_formula(self):
        d, gamma, alpha = 1.3, 0.8, 0.4
        ens = two_blob(d, gamma, alpha)
        u = blob_rhs(ens)
        speed = gamma / (2 * np.pi * d) * (1 - (d / alpha) * k1(d / alpha))
        # velocities perpendicular to the separation (x-axis), equal and opposite
        assert np.abs(u[:, 0]).max() < 1e-15
        assert u[0, 1] == pytest.approx(-speed, rel=1e-12)
        assert u[1, 1] == pytest.approx(speed, rel=1e-12)

    def test_point_vortex_limit(self):
        d, gamma = 1.0, 1.0
        ens = two_blob(d, gamma, alpha=d / 100)
        speed = np.abs(blob_rhs(ens)[0, 1])
        assert speed == pytest.approx(gamma / (2 * np.pi * d), rel=1e-4)

    def test_coincident_blobs_no_exception(self):
        pos = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        ens = BlobEnsemble(pos, np.array([1.0, 1.0, -0.5]), 0.3)
        u = blob_rhs(ens)
        assert np.isfinite(u).all()

    def test_velocity_vanishes_at_small_separation(self):
        # induced speed decays like r log r near coincidence
        for d, bound in ((1e-3, 1e-2), (1e-6, 1e-4), (1e-9, 1e-6)):
            ens = two_blob(d=d, alpha=0.3)
            assert np.abs(blob_rhs(ens)).max() < bound


class TestDynamics:
    def test_corotation_rate(self):
        d, gamma, alpha = 1.0, 1.0, 0.35
        omega = corotation_rate(gamma, d, alpha)
        period = 2 * np.pi / omega
        ens = two_blob(d, gamma, alpha)
        out = run_blobs(ens, period / 2048, period)
        # after one period the pair returns to the start
        assert np.abs(out.positions - ens.positions).max() < 1e-4 * d

    def test_measured_angular_rate(self):
        d, gamma, alpha = 1.0, 1.0, 0.35
        omega = corotation_rate(gamma, d, alpha)
        ens = two_blob(d, gamma, alpha)
        T = 0.5
        out = run_blobs(ens, 1e-4, T)
        angle = np.arctan2(out.positions[1, 1], out.positions[1, 0])
        assert angle == pytest.approx(omega * T, rel=1e-6)

    def test_hamiltonian_conserved_two_blob(self):
        ens = two_blob()
        h0 = blob_diagnostics(ens)["hamiltonian"]
        out = run_blobs(ens, 1e-3, 2.0)
        h1 = blob_diagnostics(out)["hamiltonian"]
        assert abs(h1 - h0) <= 1e-10 * max(abs(h0), 1.0)

    def test_four_blob_invariants(self):
        ens = blob_ring(4, 1.0, 1.0, 0.3)
        d0 = blob_diagnostics(ens)
        out = run_blobs(ens, 1e-3, 2.0)
        d1 = blob_diagnostics(out)
        gam = np.abs(ens.circulations).sum()
        assert abs(d1["hamiltonian"] - d0["hamiltonian"]) < 1e-9 * gam**2
        for i in range(2):
            assert abs(d1["linear_impulse"][i] - d0["linear_impulse"][i]) < 1e-10 * gam
        assert abs(d1["angular_impulse"] - d0["angular_impulse"]) < 1e-10 * gam
        assert d1["total_circulation"] == d0["total_circulation"]

    def test_backward_run_returns_to_start(self):
        ens = blob_ring(4, 1.0, 1.0, 0.3)
        steps = []
        fwd = run_blobs(ens, 1e-3, 0.5, on_step=lambda n, e: steps.append(n))
        back = run_blobs(fwd, -1e-3, 0.5, on_step=lambda n, e: steps.append(n))
        assert steps == 2 * list(range(1, 501))  # round(|T / dt|) steps each way
        assert np.abs(back.positions - ens.positions).max() < 1e-15

    def test_zero_dt_run_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            run_blobs(two_blob(), 0.0, 1.0)

    @pytest.mark.parametrize("dt", [2e-3, -2e-3])
    def test_step_matches_predecessor_bitwise(self, dt):
        rng = np.random.default_rng(5)
        start = new = old = BlobEnsemble(rng.standard_normal((6, 2)), rng.standard_normal(6), 0.4)
        for _ in range(25):
            new, old = step_blobs_rk4(new, dt), predecessor_step_blobs_rk4(old, dt)
            assert_same_bits(new.positions, old.positions)
        assert np.abs(new.positions - start.positions).max() > 1e-3

    def test_time_reversal(self):
        ens = blob_ring(3, 0.8, 1.2, 0.4)
        dt, T = 1e-3, 0.5
        fwd = run_blobs(ens, dt, T)
        back = run_blobs(BlobEnsemble(fwd.positions, -fwd.circulations, fwd.alpha), dt, T)
        assert np.abs(back.positions - ens.positions).max() < 1e-10


class TestDiagnostics:
    def test_single_blob_values(self):
        ens = BlobEnsemble(np.array([[0.5, -1.5]]), np.array([2.0]), 0.3)
        d = blob_diagnostics(ens)
        assert d["hamiltonian"] == 0.0
        assert d["linear_impulse"] == (pytest.approx(1.0), pytest.approx(-3.0))
        assert d["angular_impulse"] == pytest.approx(2.0 * (0.25 + 2.25))
        assert d["total_circulation"] == 2.0

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(0)
        pos = rng.standard_normal((5, 2))
        gam = rng.standard_normal(5)
        a = 0.45
        h = blob_diagnostics(BlobEnsemble(pos, gam, a))["hamiltonian"]
        mirrored = pos * np.array([-1.0, 1.0])
        h_m = blob_diagnostics(BlobEnsemble(mirrored, gam, a))["hamiltonian"]
        assert h_m == pytest.approx(h, rel=1e-14)


class TestValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BlobEnsemble(np.zeros((3, 3)), np.zeros(3), 0.1)
        with pytest.raises(ValueError):
            BlobEnsemble(np.zeros((3, 2)), np.zeros(4), 0.1)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            BlobEnsemble(np.zeros((2, 2)), np.ones(2), 0.0)

    def test_rejects_nonfinite(self):
        pos = np.array([[0.0, np.inf], [1.0, 0.0]])
        with pytest.raises(ValueError):
            BlobEnsemble(pos, np.ones(2), 0.3)
