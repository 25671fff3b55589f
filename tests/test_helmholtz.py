"""Smoothing inverse, Leray/Stokes projections, and the 1D Dirichlet solve."""

import numpy as np
import pytest

from alpha_fluids.helmholtz import (
    DirichletGrid1D,
    helmholtz_apply,
    helmholtz_inverse,
    helmholtz_solve_dirichlet_1d,
    leray_project,
    stokes_project,
)
from alpha_fluids.spectral import (
    AlphaParam,
    SpectralField,
    cosine_field,
    derivative,
    divergence_defect,
    inner_product_alpha,
    make_grid,
    to_physical,
    to_spectral,
)

from test_spectral import random_real, random_stream


def test_results_read_only_and_unaliased():
    g = make_grid(16, 16)
    f = random_real(g, seed=2)
    u = random_real(g, seed=3, rank="vector")
    a = AlphaParam(0.4)
    for out, x in [
        (helmholtz_apply(f, a), f),
        (helmholtz_apply(f, AlphaParam(0.0)), f),
        (helmholtz_inverse(u, a), u),
        (leray_project(u), u),
        (stokes_project(u, a), u),
    ]:
        assert not out.coeffs.flags.writeable
        assert not np.shares_memory(out.coeffs, x.coeffs)


class TestHelmholtzInverse:
    def test_single_mode_eigenvalue(self):
        g = make_grid(32, 32)
        f = cosine_field(g, (1, 0))
        out = helmholtz_inverse(f, AlphaParam(1.0))
        X, _ = g.nodes()
        assert np.abs(to_physical(out) - 0.5 * np.cos(X)).max() < 1e-13

    def test_constant_passthrough(self):
        g = make_grid(16, 16)
        f = to_spectral(g, np.full((16, 16), 2.5))
        out = helmholtz_inverse(f, AlphaParam(3.0))
        assert np.abs(to_physical(out) - 2.5).max() < 1e-13

    def test_round_trip(self):
        g = make_grid(64, 64)
        f = random_real(g, seed=1)
        a = AlphaParam(0.6)
        out = helmholtz_apply(helmholtz_inverse(f, a), a)
        assert np.abs(out.coeffs - f.coeffs).max() < 1e-12

    def test_commutes_with_derivative(self):
        g = make_grid(32, 32)
        f = random_real(g, seed=2)
        a = AlphaParam(0.8)
        lhs = derivative(helmholtz_inverse(f, a), "x")
        rhs = helmholtz_inverse(derivative(f, "x"), a)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-12


class TestLerayProjection:
    def test_pure_gradient_killed(self):
        g = make_grid(32, 32)
        X, Y = g.nodes()
        p = to_spectral(g, np.sin(X) * np.cos(Y))
        gp = derivative(p, "gradient")
        assert np.abs(leray_project(gp).coeffs).max() < 1e-13

    def test_divergence_free_fixed(self):
        g = make_grid(32, 32)
        u = derivative(cosine_field(g, (0, 1)), "perp_gradient")
        assert np.abs(leray_project(u).coeffs - u.coeffs).max() < 1e-14

    def test_sum_decomposition(self):
        g = make_grid(32, 32)
        X, _ = g.nodes()
        u = derivative(cosine_field(g, (0, 1)), "perp_gradient")  # (sin y, 0)
        grad = derivative(to_spectral(g, np.cos(2 * X)), "gradient")
        out = leray_project(u + grad)
        assert np.abs(out.coeffs - u.coeffs).max() < 1e-13

    def test_idempotent_and_solenoidal(self):
        g = make_grid(48, 48)
        w = random_real(g, seed=3, rank="vector")
        once = leray_project(w)
        twice = leray_project(once)
        assert np.abs(once.coeffs - twice.coeffs).max() < 1e-12
        assert divergence_defect(once) < 1e-12

    def test_mean_momentum_passthrough(self):
        g = make_grid(16, 16)
        w = to_spectral(g, np.stack([np.full((16, 16), 1.5), np.full((16, 16), -0.5)]))
        out = leray_project(w)
        assert out.coeffs[0, 0, 0] == pytest.approx(1.5)
        assert out.coeffs[1, 0, 0] == pytest.approx(-0.5)


class TestStokesProjection:
    def test_fixed_point_on_divergence_free(self):
        g = make_grid(32, 32)
        u = random_stream(g, seed=4)
        out = stokes_project(u, AlphaParam(0.7))
        assert np.abs(out.coeffs - u.coeffs).max() < 1e-12

    def test_smoothed_gradient_killed(self):
        # F = (1 - a^2 L)^{-1} grad(cos x) = grad(cos x) / (1 + 2 a^2): pure complement
        g = make_grid(32, 32)
        a = AlphaParam(0.9)
        X, _ = g.nodes()
        grad = derivative(to_spectral(g, np.cos(X)), "gradient")
        F = (1.0 / (1.0 + 2.0 * a.alpha_sq)) * grad
        assert np.abs(stokes_project(F, a).coeffs).max() < 1e-13

    def test_agrees_with_leray_on_torus(self):
        g = make_grid(48, 48)
        w = random_real(g, seed=5, rank="vector")
        for a in (0.0, 0.4, 1.3):
            diff = stokes_project(w, AlphaParam(a)).coeffs - leray_project(w).coeffs
            assert np.abs(diff).max() < 1e-12

    def test_summands_metric_orthogonal(self):
        g = make_grid(48, 48)
        w = random_real(g, seed=6, rank="vector")
        a = AlphaParam(0.6)
        v = stokes_project(w, a)
        resid = w - v
        ip = inner_product_alpha(v, resid, a)
        scale = inner_product_alpha(w, w, a)
        assert abs(ip) < 1e-11 * scale

    def test_idempotent(self):
        g = make_grid(32, 32)
        w = random_real(g, seed=7, rank="vector")
        a = AlphaParam(0.5)
        once = stokes_project(w, a)
        assert np.abs(stokes_project(once, a).coeffs - once.coeffs).max() < 1e-12


class TestDirichlet1D:
    def test_eigenfunction_second_order(self):
        errs = []
        for n in (63, 127, 255):
            grid = DirichletGrid1D(n)
            x = grid.x
            w = helmholtz_solve_dirichlet_1d((1 + np.pi**2) * np.sin(np.pi * x), AlphaParam(1.0), grid)
            errs.append(np.abs(w - np.sin(np.pi * x)).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    def test_zero_maps_to_zero(self):
        grid = DirichletGrid1D(31)
        w = helmholtz_solve_dirichlet_1d(np.zeros(31), AlphaParam(1.0), grid)
        assert np.abs(w).max() == 0.0

    def test_against_dense_lu_oracle(self):
        n = 101
        grid = DirichletGrid1D(n)
        rng = np.random.default_rng(8)
        f = rng.standard_normal(n)
        a = AlphaParam(0.85)
        w = helmholtz_solve_dirichlet_1d(f, a, grid)
        # oracle: dense assembly of the same tridiagonal operator, LU solve
        c = a.alpha_sq / grid.h**2
        dense = np.diag(np.full(n, 1 + 2 * c)) + np.diag(np.full(n - 1, -c), 1) + np.diag(np.full(n - 1, -c), -1)
        w_oracle = np.linalg.solve(dense, f)
        assert np.abs(w - w_oracle).max() < 1e-12

    def test_norm_nonexpansive(self):
        grid = DirichletGrid1D(63)
        rng = np.random.default_rng(9)
        f = rng.standard_normal(63)
        w = helmholtz_solve_dirichlet_1d(f, AlphaParam(2.0), grid)
        assert np.linalg.norm(w) <= np.linalg.norm(f)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            DirichletGrid1D(2)
        with pytest.raises(ValueError):
            helmholtz_solve_dirichlet_1d(np.zeros(5), AlphaParam(1.0), DirichletGrid1D(7))
