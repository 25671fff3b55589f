"""The per-grid multiplier and mask tables against the per-call formulas they replaced.

Every torus operator reads its Fourier multipliers and dealias masks from the
grid (and 1 + alpha^2 |k|^2 from spectral.smoothing).  The operators that built
them on every call live on here verbatim as bitwise oracles: each result must
have the same bytes, so also the sign of every zero, which checkpoints store.
"""

import math

import numpy as np
import pytest
import scipy.fft

from alpha_fluids import geometry, spectral
from alpha_fluids.dynamics import VorticityState, energy_alpha, state_from_velocity
from alpha_fluids.helmholtz import helmholtz_apply, helmholtz_inverse, leray_project, stokes_project
from alpha_fluids.spectral import (
    AlphaParam,
    SpectralField,
    _zero_nyquist,
    cosine_field,
    dealias_half,
    dealias_two_thirds,
    derivative,
    divergence_defect,
    inner_product_alpha,
    make_grid,
    smoothing,
    sum_modes,
    to_physical_padded,
    to_spectral,
)

SHAPES = [(16, 16, 2 * math.pi, 2 * math.pi), (128, 128, 2 * math.pi, 2 * math.pi), (24, 40, 3.0, 7.5)]
ALPHAS = [0.0, 0.3, 0.5]
OPS = ["x", "y", "laplacian", "gradient", "perp_gradient", "divergence", "curl"]


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()


# -- the per-call formulas that the tables replaced: bitwise oracles -----------------


_SCALAR_TO_SCALAR = ("x", "y", "laplacian")
_SCALAR_TO_VECTOR = ("gradient", "perp_gradient")
_VECTOR_TO_SCALAR = ("divergence", "curl")


def predecessor_derivative(f: SpectralField, op: str) -> SpectralField:
    """Exact spectral differentiation; Nyquist coefficients are zeroed."""
    g = f.grid
    c = f.coeffs
    if op in _SCALAR_TO_SCALAR:
        if op == "x":
            out = 1j * g.kx * c
        elif op == "y":
            out = 1j * g.ky * c
        else:
            out = -g.k_sq * c
    elif op in _SCALAR_TO_VECTOR:
        if f.is_vector:
            raise ValueError(f"{op} expects a scalar field")
        out = np.empty((2,) + c.shape, dtype=np.complex128)
        if op == "gradient":
            np.multiply(1j * g.kx, c, out=out[0])
            np.multiply(1j * g.ky, c, out=out[1])
        else:
            np.multiply(-1j * g.ky, c, out=out[0])
            np.multiply(1j * g.kx, c, out=out[1])
    elif op in _VECTOR_TO_SCALAR:
        if not f.is_vector:
            raise ValueError(f"{op} expects a vector field")
        if op == "divergence":
            out = 1j * g.kx * c[0] + 1j * g.ky * c[1]
        else:
            out = 1j * g.kx * c[1] - 1j * g.ky * c[0]
    else:
        raise ValueError(f"unknown derivative op {op!r}")
    _zero_nyquist(out)
    return SpectralField._adopt(g, out)


def predecessor_dealias_modes(f: SpectralField, jx_max: int, jy_max: int) -> SpectralField:
    """Zero all coefficients with |jx| > jx_max or |jy| > jy_max."""
    g = f.grid
    keep = (np.abs(g.jx)[:, None] <= jx_max) & (np.abs(g.jy)[None, :] <= jy_max)
    return SpectralField._adopt(g, np.where(keep, f.coeffs, 0.0))


def predecessor_dealias_two_thirds(f: SpectralField) -> SpectralField:
    """2/3-rule truncation for quadratic pseudospectral products."""
    return predecessor_dealias_modes(f, f.grid.nx // 3, f.grid.ny // 3)


def predecessor_dealias_half(f: SpectralField) -> SpectralField:
    """1/2-rule truncation for cubic products."""
    return predecessor_dealias_modes(f, (f.grid.nx - 1) // 4, (f.grid.ny - 1) // 4)


def predecessor_symmetrize_ends(grid, c: np.ndarray) -> np.ndarray:
    """c with the self-conjugate columns jy = 0, ny/2 set to (c[jx] + conj(c[-jx]))/2 in place."""
    ends = c[..., :: grid.ny // 2]
    ends[...] = 0.5 * (ends + np.conj(ends[..., -grid.jx, :]))
    return c


def predecessor_helmholtz_apply(f: SpectralField, alpha: AlphaParam) -> SpectralField:
    """(1 - alpha^2 Laplacian) f, componentwise multiplier 1 + alpha^2 |k|^2."""
    return SpectralField._adopt(f.grid, (1.0 + alpha.alpha_sq * f.grid.k_sq) * f.coeffs)


def predecessor_helmholtz_inverse(f: SpectralField, alpha: AlphaParam) -> SpectralField:
    """(1 - alpha^2 Laplacian)^{-1} f; uniformly invertible for alpha >= 0."""
    return SpectralField._adopt(f.grid, f.coeffs / (1.0 + alpha.alpha_sq * f.grid.k_sq))


def predecessor_leray_project(u: SpectralField) -> SpectralField:
    """L^2-orthogonal projection onto divergence-free fields, u - grad p."""
    if not u.is_vector:
        raise ValueError("leray_project expects a vector field")
    g = u.grid
    ksq = np.where(g.k_sq > 0.0, g.k_sq, 1.0)
    kdot = (g.kx * u.coeffs[0] + g.ky * u.coeffs[1]) / ksq
    out = np.stack([u.coeffs[0] - g.kx * kdot, u.coeffs[1] - g.ky * kdot])
    out[:, 0, 0] = u.coeffs[:, 0, 0]
    return SpectralField._adopt(g, out)


def predecessor_stokes_project(F: SpectralField, alpha: AlphaParam) -> SpectralField:
    """Projection onto divergence-free fields along (1 - alpha^2 L)^{-1} grad terms."""
    if not F.is_vector:
        raise ValueError("stokes_project expects a vector field")
    g = F.grid
    a2 = alpha.alpha_sq
    m = 1.0 + a2 * g.k_sq
    kdotF = g.kx * F.coeffs[0] + g.ky * F.coeffs[1]
    # rhs g = (1 - a2 L) F = m F + a2 k (k.F)   (the grad-div part adds a2 k (k.F))
    g0 = m * F.coeffs[0] + a2 * g.kx * kdotF
    g1 = m * F.coeffs[1] + a2 * g.ky * kdotF
    # pressure from div v = 0: i |k|^2 phat = (1 + 2 a2 |k|^2)(k.F)
    ksq = np.where(g.k_sq > 0.0, g.k_sq, 1.0)
    phat = -1j * (1.0 + 2.0 * a2 * g.k_sq) * kdotF / ksq
    v0 = (g0 - 1j * g.kx * phat) / m
    v1 = (g1 - 1j * g.ky * phat) / m
    out = np.stack([v0, v1])
    out[:, 0, 0] = F.coeffs[:, 0, 0]
    return SpectralField._adopt(g, out)


def predecessor_smoothed_divergence(g, S: np.ndarray, alpha: AlphaParam) -> SpectralField:
    """alpha^2 (1 - alpha^2 L)^{-1} div S for the tensor S stacked as S[2i+j] = S_ij."""
    vec = 1j * g.kx * S[0::2] + 1j * g.ky * S[1::2]
    return alpha.alpha_sq * predecessor_helmholtz_inverse(SpectralField._adopt(g, vec), alpha)


def predecessor_energy_alpha(state: VorticityState) -> float:
    """E = (1/2) <u, u>_alpha = (1/2) S sum_k (1 + alpha^2 |k|^2) |uhat|^2."""
    u = state.velocity()
    w = 1.0 + state.alpha.alpha_sq * state.grid.k_sq
    return 0.5 * state.grid.area * sum_modes(state.grid, w * np.abs(u.coeffs) ** 2)


def predecessor_inner_product_alpha(
    u: SpectralField, v: SpectralField, alpha: AlphaParam, method: str = "auto"
) -> float:
    """Metric pairing <u,v> = int(u.v) + (alpha^2/2) int(Def-tensor contraction)."""
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    if not (u.is_vector and v.is_vector):
        raise ValueError("inner_product_alpha expects vector fields")
    if method == "auto":
        solenoidal = divergence_defect(u) < 1e-10 and divergence_defect(v) < 1e-10
        method = "fourier" if solenoidal else "deformation"
    g = u.grid
    if method == "fourier":
        w = 1.0 + alpha.alpha_sq * g.k_sq
        return g.area * sum_modes(g, w * (u.coeffs * np.conj(v.coeffs)).real)
    if method != "deformation":
        raise ValueError(f"unknown method {method!r}")
    # Def-tensor quadrature on the doubled grid: exact for band-limited inputs
    fine = (2 * g.nx, 2 * g.ny)
    du = [to_physical_padded(derivative(u.component(i), ax), fine) for i in range(2) for ax in ("x", "y")]
    dv = [to_physical_padded(derivative(v.component(i), ax), fine) for i in range(2) for ax in ("x", "y")]
    us = to_physical_padded(u, fine)
    vs = to_physical_padded(v, fine)
    # A = grad + grad^T entries: A11 = 2 d1u1, A12 = d2u1 + d1u2, A22 = 2 d2u2
    a11, a12, a22 = 2.0 * du[0], du[1] + du[2], 2.0 * du[3]
    b11, b12, b22 = 2.0 * dv[0], dv[1] + dv[2], 2.0 * dv[3]
    integrand = (
        us[0] * vs[0]
        + us[1] * vs[1]
        + 0.5 * alpha.alpha_sq * (a11 * b11 + 2.0 * a12 * b12 + a22 * b22)
    )
    return float(g.area * integrand.mean())


# -- inputs: every mode live, 2/3-dealiased (exact +0.0 zeros), its negative (-0.0),
# and the derivative of a single mode (exact zeros off its two modes) --


def inputs(g, rank, seed):
    samples_shape = g.shape if rank == "scalar" else (2,) + g.shape
    f = to_spectral(g, np.random.default_rng(seed).standard_normal(samples_shape))
    d = predecessor_dealias_two_thirds(f)
    single = predecessor_derivative(cosine_field(g, (1, 2), 0.7, 0.3), "y" if rank == "scalar" else "perp_gradient")
    return [f, d, -d, single]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
class TestOperatorsMatchPredecessors:
    def test_derivative(self, shape):
        g = make_grid(*shape)
        for op in OPS:
            rank = "vector" if op in _VECTOR_TO_SCALAR else "scalar"
            for f in inputs(g, rank, 1):
                assert_same_bits(derivative(f, op).coeffs, predecessor_derivative(f, op).coeffs)
        # rank-preserving ops on a vector field
        for f in inputs(g, "vector", 2):
            for op in _SCALAR_TO_SCALAR:
                assert_same_bits(derivative(f, op).coeffs, predecessor_derivative(f, op).coeffs)

    def test_dealias(self, shape):
        g = make_grid(*shape)
        for rank in ("scalar", "vector"):
            for f in inputs(g, rank, 3):
                assert_same_bits(dealias_two_thirds(f).coeffs, predecessor_dealias_two_thirds(f).coeffs)
                assert_same_bits(dealias_half(f).coeffs, predecessor_dealias_half(f).coeffs)

    def test_symmetrize_ends(self, shape):
        g = make_grid(*shape)
        for rank_shape in (g.shape, (2,) + g.shape, (5,) + g.shape):
            raw = scipy.fft.rfft2(np.random.default_rng(4).standard_normal(rank_shape), norm="forward")
            assert_same_bits(spectral._symmetrize_ends(g, raw.copy()), predecessor_symmetrize_ends(g, raw.copy()))

    @pytest.mark.parametrize("a", ALPHAS)
    def test_helmholtz_and_projections(self, shape, a):
        g, alpha = make_grid(*shape), AlphaParam(a)
        for f in inputs(g, "scalar", 5) + inputs(g, "vector", 6):
            assert_same_bits(helmholtz_apply(f, alpha).coeffs, predecessor_helmholtz_apply(f, alpha).coeffs)
            assert_same_bits(helmholtz_inverse(f, alpha).coeffs, predecessor_helmholtz_inverse(f, alpha).coeffs)
        for u in inputs(g, "vector", 7):
            assert_same_bits(leray_project(u).coeffs, predecessor_leray_project(u).coeffs)
            assert_same_bits(stokes_project(u, alpha).coeffs, predecessor_stokes_project(u, alpha).coeffs)
            S = np.concatenate([u.coeffs, -u.coeffs[::-1]])
            assert_same_bits(
                geometry._smoothed_divergence(g, S, alpha).coeffs, predecessor_smoothed_divergence(g, S, alpha).coeffs
            )

    @pytest.mark.parametrize("a", ALPHAS)
    def test_energy_and_inner_product(self, shape, a):
        g, alpha = make_grid(*shape), AlphaParam(a)
        u, v = (derivative(f, "perp_gradient") for f in inputs(g, "scalar", 8)[:2])
        state = state_from_velocity(u, alpha)
        assert_same_bits(np.float64(energy_alpha(state)), np.float64(predecessor_energy_alpha(state)))
        w = inputs(g, "vector", 9)[1]  # not solenoidal: "auto" takes the deformation route
        for x, y in [(u, v), (u, w), (w, w)]:
            for method in ("auto", "fourier", "deformation"):
                assert_same_bits(
                    np.float64(inner_product_alpha(x, y, alpha, method)),
                    np.float64(predecessor_inner_product_alpha(x, y, alpha, method)),
                )


def test_tables_are_read_only_and_shared():
    g = make_grid(24, 40, 3.0, 7.5)
    tables = [g.k_sq_safe, g.ikx, g.iky, g.neg_iky, g.laplacian, g.neg_k_sq_safe]
    tables += [g.drop_two_thirds, g.drop_half, g.neg_jx, smoothing(g, 0.25)]
    assert not any(t.flags.writeable for t in tables)
    # the smoothing factor is cached per (grid, alpha^2), across equal grids too
    assert smoothing(make_grid(24, 40, 3.0, 7.5), 0.25) is smoothing(g, 0.25)
    assert smoothing(g, 0.25) is not smoothing(g, 0.09)
