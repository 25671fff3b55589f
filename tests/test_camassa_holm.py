"""Camassa-Holm suite: Eulerian and spray forms, energy, 1D geometry."""

import numpy as np
import pytest
from test_dynamics import assert_same_bits

from alpha_fluids.camassa_holm import (
    CHLagrangianState,
    CHState,
    MonotonicityError,
    ch_energy,
    ch_rhs_eulerian,
    ch_sectional_curvature,
    ch_spray_step,
    cd_1d,
    eulerian_from_lagrangian,
    frakU_1d,
    inner_h1,
    lagrangian_from_velocity,
    run_ch,
    run_spray,
    step_ch_rk4,
)
from alpha_fluids.camassa_holm import _spray_acceleration


def periodic_grid(n, L=2 * np.pi):
    return np.arange(n) * (L / n)


def dirichlet_grid(n):
    return np.arange(1, n + 1) / (n + 1)


# -- the hand-written RK4 stage sums that integrate.rk4 replaced, kept as bitwise oracles --


def predecessor_step_ch_rk4(state, dt):
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    u, t = state.u, state.t
    k1 = ch_rhs_eulerian(state)
    k2 = ch_rhs_eulerian(state.with_u(u + 0.5 * dt * k1, t + 0.5 * dt))
    k3 = ch_rhs_eulerian(state.with_u(u + 0.5 * dt * k2, t + 0.5 * dt))
    k4 = ch_rhs_eulerian(state.with_u(u + dt * k3, t + dt))
    return state.with_u(u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), t + dt)


def predecessor_ch_spray_step(ls, dt):
    """RK4 on (eta, etadot); aborts with MonotonicityError on particle crossing."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_work = ls.n_interior

    def accel(eta, etadot):
        if not (np.diff(eta) > 0.0).all():
            raise MonotonicityError(ls.t)
        a = _spray_acceleration(eta, etadot, n_work)
        a[0] = a[-1] = 0.0
        return a

    e, v = ls.eta, ls.etadot
    a1 = accel(e, v)
    e2, v2 = e + 0.5 * dt * v, v + 0.5 * dt * a1
    a2 = accel(e2, v2)
    e3, v3 = e + 0.5 * dt * v2, v + 0.5 * dt * a2
    a3 = accel(e3, v3)
    e4, v4 = e + dt * v3, v + dt * a3
    a4 = accel(e4, v4)
    eta_new = e + (dt / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
    etadot_new = v + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    eta_new[0], eta_new[-1] = 0.0, 1.0
    etadot_new[0] = etadot_new[-1] = 0.0
    return CHLagrangianState(eta_new, etadot_new, ls.t + dt)


class TestSharedRk4MatchesPredecessor:
    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_step_ch_rk4_bitwise(self, bc):
        n = 128
        x = dirichlet_grid(n) if bc == "dirichlet" else periodic_grid(n)
        rng = np.random.default_rng(6)
        new = old = CHState(0.3 * np.sin(np.pi * x) + 0.01 * rng.standard_normal(n), bc)
        for _ in range(25):
            new, old = step_ch_rk4(new, 2e-3), predecessor_step_ch_rk4(old, 2e-3)
            assert_same_bits(new.u, old.u)
            assert new.t == old.t
        assert new.t > 0.0

    def test_ch_spray_step_bitwise(self):
        n = 63
        u0 = CHState(0.3 * np.sin(np.pi * dirichlet_grid(n)) + 0.1 * np.sin(3 * np.pi * dirichlet_grid(n)), "dirichlet")
        new = old = lagrangian_from_velocity(u0)
        for _ in range(25):
            new, old = ch_spray_step(new, 2e-3), predecessor_ch_spray_step(old, 2e-3)
            assert_same_bits(new.eta, old.eta)
            assert_same_bits(new.etadot, old.etadot)
            assert new.t == old.t
        assert np.abs(new.eta - lagrangian_from_velocity(u0).eta).max() > 1e-3

    def test_spray_crossing_raises_at_step_start(self):
        nodes = np.linspace(0.0, 1.0, 11)
        vel = np.zeros_like(nodes)
        vel[5], vel[6] = 40.0, -40.0  # particles 5 and 6 cross within one step
        with pytest.raises(MonotonicityError) as exc:
            ch_spray_step(CHLagrangianState(nodes, vel, 0.25), 0.01)
        assert exc.value.t == 0.25


class TestEulerianRhs:
    def test_zero_state(self):
        st = CHState(np.zeros(64), "periodic")
        assert np.abs(ch_rhs_eulerian(st)).max() == 0.0

    def test_periodic_sine_hand_value(self):
        errs = []
        for n in (256, 512):
            x = periodic_grid(n)
            r = ch_rhs_eulerian(CHState(np.sin(x), "periodic"))
            errs.append(np.abs(r + 0.6 * np.sin(2 * x)).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] < 1e-5

    def test_dirichlet_self_convergence(self):
        # rhs against a 4x-refined reference, sampled at shared nodes
        def rhs_at(n):
            x = dirichlet_grid(n)
            return x, ch_rhs_eulerian(CHState(np.sin(np.pi * x), "dirichlet"))

        x_c, r_c = rhs_at(127)
        x_f, r_f = rhs_at(511)  # refinement by 4: every 4th interior node coincides
        shared = np.isin(np.round(x_f * 512), np.round(x_c * 128 * 4))
        err_c = np.abs(r_c - r_f[shared]).max()
        x_m, r_m = rhs_at(255)
        shared_m = np.isin(np.round(x_f * 512), np.round(x_m * 256 * 2))
        err_m = np.abs(r_m - r_f[shared_m]).max()
        assert err_c / err_m > 3.0  # O(h^2) against the near-reference


class TestEnergy:
    def test_hand_value(self):
        st = CHState(np.sin(np.pi * dirichlet_grid(511)), "dirichlet")
        assert ch_energy(st) == pytest.approx((1 + np.pi**2) / 2, abs=2e-4)

    def test_zero(self):
        assert ch_energy(CHState(np.zeros(32), "periodic")) == 0.0

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_conservation_short_run(self, bc):
        n = 256
        if bc == "dirichlet":
            st = CHState(0.1 * np.sin(np.pi * dirichlet_grid(n)), bc)
        else:
            st = CHState(0.1 * np.sin(periodic_grid(n)), bc)
        e0 = ch_energy(st)
        st = run_ch(st, 1e-3, 0.5)
        assert abs(ch_energy(st) - e0) / e0 < 1e-6


class TestSprayForm:
    def test_rest_stays_identity(self):
        st = CHState(np.zeros(63), "dirichlet")
        ls = lagrangian_from_velocity(st)
        out = run_spray(ls, 1e-2, 0.5)
        assert np.abs(out.eta - ls.eta).max() == 0.0
        assert np.abs(out.etadot).max() == 0.0

    def test_cross_check_against_eulerian(self):
        n = 255
        u0 = CHState(0.1 * np.sin(np.pi * dirichlet_grid(n)), "dirichlet")
        ls = run_spray(lagrangian_from_velocity(u0), 1e-3, 0.5)
        eulerian = run_ch(u0, 1e-3, 0.5)
        back = eulerian_from_lagrangian(ls, n)
        assert np.abs(back.u - eulerian.u).max() < 1e-4

    def test_geodesic_homogeneity(self):
        # (2 u0, T, dt/2) and (u0, 2T, dt) give the same endpoint configuration
        n = 127
        u = 0.08 * np.sin(np.pi * dirichlet_grid(n))
        a = run_spray(lagrangian_from_velocity(CHState(2 * u, "dirichlet")), 5e-4, 0.25)
        b = run_spray(lagrangian_from_velocity(CHState(u, "dirichlet")), 1e-3, 0.5)
        assert np.abs(a.eta - b.eta).max() < 1e-10

    def test_monotonicity_guard(self):
        nodes = np.linspace(0.0, 1.0, 11)
        crossing = nodes.copy()
        crossing[5] = crossing[6] + 0.01  # fold the map
        with pytest.raises(MonotonicityError):
            CHLagrangianState(crossing, np.zeros_like(nodes))

    def test_endpoints_must_be_pinned(self):
        nodes = np.linspace(0.1, 1.0, 11)
        with pytest.raises(ValueError):
            CHLagrangianState(nodes, np.zeros_like(nodes))


class TestFrakU1D:
    def test_periodic_hand_value(self):
        n = 512
        x = periodic_grid(n)
        out = frakU_1d(np.sin(x), np.sin(x), "periodic")
        assert np.abs(out - 0.1 * np.sin(2 * x)).max() < 1e-4

    def test_zero_argument(self):
        x = periodic_grid(64)
        assert np.abs(frakU_1d(np.sin(x), np.zeros_like(x), "periodic")).max() == 0.0

    def test_dirichlet_dense_oracle(self):
        n = 101
        rng = np.random.default_rng(3)
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        out = frakU_1d(u, v, "dirichlet")
        # oracle: same second-order stencils, dense LU solve
        h = 1.0 / (n + 1)
        fu = np.concatenate([[0.0], u, [0.0]])
        fv = np.concatenate([[0.0], v, [0.0]])

        def d(full):
            out_ = np.empty_like(full)
            out_[1:-1] = (full[2:] - full[:-2]) / (2 * h)
            out_[0] = (-3 * full[0] + 4 * full[1] - full[2]) / (2 * h)
            out_[-1] = (3 * full[-1] - 4 * full[-2] + full[-3]) / (2 * h)
            return out_

        w = fu * fv + 0.5 * d(fu) * d(fv)
        rhs = (w[2:] - w[:-2]) / (2 * h)
        c = 1.0 / h**2
        dense = np.diag(np.full(n, 1 + 2 * c)) + np.diag(np.full(n - 1, -c), 1) + np.diag(np.full(n - 1, -c), -1)
        oracle = np.linalg.solve(dense, rhs)
        assert np.abs(out - oracle).max() < 1e-10

    def test_symmetry_and_bilinearity(self):
        n = 128
        rng = np.random.default_rng(4)
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        s = frakU_1d(u, v, "periodic")
        scale = max(np.abs(s).max(), 1.0)
        assert np.abs(s - frakU_1d(v, u, "periodic")).max() < 1e-11 * scale
        assert np.abs(frakU_1d(2.0 * u, v, "periodic") - 2.0 * frakU_1d(u, v, "periodic")).max() < 1e-11 * scale

    def test_mismatched_grids(self):
        with pytest.raises(ValueError):
            frakU_1d(np.zeros(16), np.zeros(32), "periodic")


class TestCurvature1D:
    def test_collinear_rejected(self):
        x = np.sin(periodic_grid(128))
        with pytest.raises(ValueError):
            ch_sectional_curvature(x, 1.0001 * x, "periodic")

    def test_scale_invariance(self):
        xg = periodic_grid(256)
        x, y = np.sin(xg), np.cos(2 * xg)
        k1 = ch_sectional_curvature(x, y, "periodic")
        k2 = ch_sectional_curvature(2.0 * x, 0.5 * y, "periodic")
        assert k2 == pytest.approx(k1, rel=1e-9)

    def test_grid_refinement_stability(self):
        vals = []
        for n in (256, 512, 1024):
            xg = periodic_grid(n)
            vals.append(ch_sectional_curvature(np.sin(xg), np.cos(2 * xg), "periodic"))
        d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
        assert d1 / d2 >= 3.5  # second-order self-convergence

    def test_covariant_derivative_metric_compatibility(self):
        # <cd(x,y), z> + <y, cd(x,z)> = 0 for the right-invariant H^1 metric
        n = 1024
        xg = periodic_grid(n)
        x, y, z = np.sin(xg), np.cos(2 * xg), np.sin(3 * xg)
        s = inner_h1(cd_1d(x, y, "periodic"), z, "periodic")
        s += inner_h1(y, cd_1d(x, z, "periodic"), "periodic")
        scale = np.sqrt(inner_h1(x, x, "periodic") * inner_h1(y, y, "periodic") * inner_h1(z, z, "periodic"))
        assert abs(s) < 1e-4 * scale  # second-order discretization residual


class TestValidation:
    def test_bad_bc(self):
        with pytest.raises(ValueError):
            CHState(np.zeros(16), "free-slip")

    def test_nonfinite_rejected(self):
        u = np.zeros(16)
        u[3] = np.inf
        with pytest.raises(ValueError):
            CHState(u, "periodic")

    def test_bad_dt(self):
        st = CHState(np.zeros(16), "periodic")
        with pytest.raises(ValueError):
            step_ch_rk4(st, 0.0)

    def test_zero_dt_runs_rejected(self):
        st = CHState(np.zeros(16), "dirichlet")
        with pytest.raises(ValueError, match="dt"):
            run_ch(st, 0.0, 1.0)
        with pytest.raises(ValueError, match="dt"):
            run_spray(lagrangian_from_velocity(st), 0.0, 1.0)
