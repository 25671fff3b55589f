"""Geometry engine: calU, the metric connection, curvature, Jacobi fields.

The derived oracles here are the ones that pin every convention:
  * the closed-form two-stream-mode curvature at alpha = 0,
  * the nested covariant-derivative curvature against Arnold's formula,
  * the connection from the plane's products against its predecessor
    P[(x . grad) y + frakU(x, y)], advect and the frakU polarization of calU,
  * metric compatibility of the connection (right-invariant form),
  * the geodesic spray assembled independently in momentum variables,
  * the instantaneous Jacobi identity against the linearized flow.
"""

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dynamics import ORACLE_SHAPES, assert_same_bits, predecessor_velocity_from_q
from test_spectral import padded_forward_transform

from alpha_fluids import geometry, runner
from alpha_fluids.cli import main
from alpha_fluids.config import load_config
from alpha_fluids.dynamics import state_from_velocity, velocity_from_q
from alpha_fluids.geometry import (
    CurvaturePlane,
    DegeneratePlaneError,
    JacobiTrajectory,
    SupportOverflowError,
    _EulerPlane,
    _calU_terms,
    _clean,
    _exact_product,
    _form,
    _jacobian,
    _smoothed_divergence,
    _tangent_rhs,
    arnold_closed_form,
    calU,
    covariant_derivative,
    find_alpha0,
    grid_for_modes,
    jacobi_evolve,
    sectional_curvature,
    stream_mode,
)
from alpha_fluids.helmholtz import helmholtz_apply, helmholtz_inverse, leray_project
from alpha_fluids.spectral import (
    AlphaParam,
    FieldStack,
    SpectralField,
    cosine_field,
    dealias_two_thirds,
    derivative,
    field_from_modes,
    full_coeffs,
    inner_product_alpha,
    make_grid,
    mode,
    norm_alpha,
    to_physical,
    to_physical_padded,
    to_spectral,
    zero_field,
)

S_2PI = 4 * np.pi**2


def rand_modes(grid, seed, kmax=2, nmodes=4):
    """Real scalar field of a few random modes |j| <= kmax, with exactly zero off-mode noise."""
    rng = np.random.default_rng(seed)
    table = {}
    for _ in range(nmodes):
        kx, ky = (int(v) for v in rng.integers(-kmax, kmax + 1, 2))
        if kx == 0 and ky == 0:
            continue
        c = 0.5 * rng.standard_normal() * np.exp(1j * rng.uniform(0, 2 * np.pi))
        table[(kx, ky)] = table.get((kx, ky), 0.0) + c
        table[(-kx, -ky)] = table.get((-kx, -ky), 0.0) + np.conj(c)
    return field_from_modes(grid, table)


def rand_stream(grid, seed, kmax=2, nmodes=4):
    """Divergence-free band-limited field with exactly zero off-mode noise."""
    return derivative(rand_modes(grid, seed, kmax, nmodes), "perp_gradient")


# -- the predecessor of the batched products: one pair per call, complex transforms --


def _support_bound(c: np.ndarray, jx: np.ndarray, jy: np.ndarray) -> tuple[int, int]:
    """Largest |jx|, |jy| carrying a nonzero coefficient."""
    mags = np.abs(c)
    if c.ndim == 3:
        mags = mags.max(axis=0)
    mask = mags > 0.0
    if not mask.any():
        return 0, 0
    sx = int(np.abs(jx)[mask.any(axis=1)].max(initial=0))
    sy = int(np.abs(jy)[mask.any(axis=0)].max(initial=0))
    return sx, sy


def padded_complex_product(a: SpectralField, b: SpectralField) -> np.ndarray:
    """Coefficients of the pointwise product a*b (both scalars), alias-free.

    The factors' spectral supports are tracked (support growth under every
    operation in this module keeps zeros exact); if their sum does not fit on
    the grid the product would be aliased, so this raises instead.  Within
    capacity the product is computed exactly on the doubled grid, with
    coefficients below the FFT roundoff floor zeroed to keep supports sharp.
    """
    a, b = _clean(a), _clean(b)
    g = a.grid
    ax, ay = _support_bound(a.coeffs, g.jx, g.jy)
    bx, by = _support_bound(b.coeffs, g.jx, g.jy)
    if ax + bx > g.nx // 2 - 1 or ay + by > g.ny // 2 - 1:
        raise SupportOverflowError(
            f"product support ({ax + bx},{ay + by}) exceeds the {g.nx}x{g.ny} grid; "
            "rerun on a larger grid"
        )
    nx2, ny2 = 2 * g.nx, 2 * g.ny
    ix = np.fft.fftfreq(g.nx, d=1.0 / g.nx).astype(int)
    iy = np.fft.fftfreq(g.ny, d=1.0 / g.ny).astype(int)

    def pad(c):
        big = np.zeros((nx2, ny2), dtype=np.complex128)
        big[np.ix_(ix, iy)] = c
        return np.fft.ifft2(big * (nx2 * ny2)).real

    pa, pb = pad(full_coeffs(a)), pad(full_coeffs(b))
    prod = np.fft.fft2(pa * pb) / (nx2 * ny2)
    floor = 1e-13 * float(np.abs(pa).max()) * float(np.abs(pb).max())
    prod = np.where(np.abs(prod) > floor, prod, 0.0)
    return prod[np.ix_(ix, iy[: g.ny // 2 + 1])]


def doubled_grid_exact_product(factors: FieldStack, form) -> np.ndarray:
    """The predecessor of _exact_product: the same cleaning, support check and floor,
    with the factors transformed on the doubled grid (2nx, 2ny)."""
    g = factors.grid
    c = factors.coeffs
    mags = np.abs(c)
    live = mags > 1e-13 * mags.max(axis=(1, 2), keepdims=True)
    c = np.where(live, c, 0.0)
    sx = np.where(live.any(axis=2), np.abs(g.jx), 0).max(axis=1)
    sy = np.where(live.any(axis=1), np.abs(g.jy), 0).max(axis=1)
    a, b = form.pairs.T
    over = (sx[a] + sx[b] > g.nx // 2 - 1) | (sy[a] + sy[b] > g.ny // 2 - 1)
    if over.any():
        raise SupportOverflowError(f"product exceeds the {g.nx}x{g.ny} grid; rerun on a larger grid")
    p = to_physical_padded(FieldStack(g, c), (2 * g.nx, 2 * g.ny))
    out = np.tensordot(form.weights, p[a] * p[b], axes=1)
    peak = np.abs(p).max(axis=(1, 2))
    floor = 1e-13 * (form.counts @ (peak[a] * peak[b]))
    prod = padded_forward_transform(g, out)
    return np.where(np.abs(prod) > floor[:, None, None], prod, 0.0)


def ref_advect(x, y):
    x, y = _clean(x), _clean(y)
    g = x.grid
    out = np.empty((2, *g.coeff_shape), dtype=np.complex128)
    for i in range(2):
        yi = y.component(i)
        out[i] = (
            padded_complex_product(x.component(0), derivative(yi, "x"))
            + padded_complex_product(x.component(1), derivative(yi, "y"))
        )
    return SpectralField(g, out)


def ref_calU(u, alpha):
    u = _clean(u)
    g = u.grid
    if alpha.alpha == 0.0:
        return zero_field(g, "vector")
    d = [[derivative(u.component(i), ax) for ax in ("x", "y")] for i in range(2)]
    T = np.empty((2, 2, *g.coeff_shape), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            acc = np.zeros(g.coeff_shape, dtype=np.complex128)
            for m in range(2):
                acc += padded_complex_product(d[i][m], d[j][m])
                acc += padded_complex_product(d[i][m], d[m][j])
                acc -= padded_complex_product(d[m][i], d[m][j])
            T[i, j] = acc
    kx, ky = g.kx, g.ky
    divT0 = 1j * kx * T[0, 0] + 1j * ky * T[0, 1]
    divT1 = 1j * kx * T[1, 0] + 1j * ky * T[1, 1]
    tr = np.zeros(g.coeff_shape, dtype=np.complex128)
    for i in range(2):
        for m in range(2):
            tr += padded_complex_product(d[i][m], d[m][i])
    vec = SpectralField(g, np.stack([divT0 + 1j * kx * tr, divT1 + 1j * ky * tr]))
    return alpha.alpha_sq * helmholtz_inverse(vec, alpha)


def ref_frakU(x, y, alpha):
    x, y = _clean(x), _clean(y)
    if alpha.alpha == 0.0:
        return zero_field(x.grid, "vector")
    return 0.25 * (ref_calU(x + y, alpha) - ref_calU(x - y, alpha))


def ref_covariant_derivative(x, y, alpha):
    x, y = _clean(x), _clean(y)
    inner = ref_advect(x, y)
    if alpha.alpha != 0.0:
        inner = inner + ref_frakU(x, y, alpha)
    return leray_project(inner)


def ref_curvature_op(x, y, z, alpha):
    x, y, z = _clean(x), _clean(y), _clean(z)
    cd = ref_covariant_derivative
    bracket = ref_advect(x, y) - ref_advect(y, x)
    return cd(x, cd(y, z, alpha), alpha) - cd(y, cd(x, z, alpha), alpha) - cd(bracket, z, alpha)


# -- the predecessor of the plane's connection: advect and the frakU polarization of calU --

# advect: factors (x^0, x^1, d_x y^0, d_y y^0, d_x y^1, d_y y^1); out^i = x^m d_m y^i
_ADVECT = _form(2, [(i, m, 2 + 2 * i + m, 1.0) for i in range(2) for m in range(2)])
_CALU_PAIR = _form(8, _calU_terms() + [(o + 4, a + 4, b + 4, c) for o, a, b, c in _calU_terms()])


def advect(x, y):
    """Directional derivative (x . grad) y, exact for band-limited inputs."""
    g = x.grid
    out = _exact_product(FieldStack(g, np.concatenate([_clean(x).coeffs, _jacobian(_clean(y))])), _ADVECT)
    return SpectralField._adopt(g, out)


def frakU(x, y, alpha):
    """Polarization (calU(x+y) - calU(x-y)) / 4, both terms in one transform pair."""
    g = x.grid
    factors = np.concatenate([_jacobian(_clean(x + y)), _jacobian(_clean(x - y))])
    S = _exact_product(FieldStack(g, factors), _CALU_PAIR)
    return 0.25 * (_smoothed_divergence(g, S[:4], alpha) - _smoothed_divergence(g, S[4:], alpha))


def predecessor_covariant_derivative(x, y, alpha):
    """The predecessor of covariant_derivative, nabla~_x y = P[(x . grad) y + frakU(x, y)]: with the
    full symmetric form frakU (whose diagonal is calU) it is torsion-free by construction."""
    x, y = _clean(x), _clean(y)
    inner = advect(x, y)
    if alpha.alpha != 0.0:
        inner = inner + frakU(x, y, alpha)
    return leray_project(inner)


def plane_du0(u0, y0, ydot0, alpha):
    """jacobi_evolve's delta u(0) = ydot0 + h - A^{-1} (X_uy + X_yu) / 2, from the plane of u0, y0."""
    plane = (_EulerPlane if alpha.alpha == 0.0 else CurvaturePlane)(u0, y0)
    return ydot0 + plane.h - plane._sym(alpha)


def predecessor_du0(u0, y0, ydot0, alpha):
    """delta u(0) = ydot0 - (y0 . grad) u0 + (u0 . grad) y0 - nabla~_{u0} y0 by the predecessor."""
    return ydot0 - advect(y0, u0) + advect(u0, y0) - predecessor_covariant_derivative(u0, y0, alpha)


# -- the nested curvature assembly: the predecessor of Arnold's formula, kept as its oracle --


def lie_bracket(x, y):
    """[x, y] = (x . grad) y - (y . grad) x; divergence-free for solenoidal x, y."""
    return advect(x, y) - advect(y, x)


def curvature_op(x, y, z, alpha):
    """Curvature operator R~(x, y) z at the identity.

    Assembled directly from covariant-derivative compositions of
    right-invariant fields,

        R~(x,y)z = nabla~_x nabla~_y z - nabla~_y nabla~_x z - nabla~_{[x,y]} z,

    with [x,y] = (x . grad) y - (y . grad) x.  This orientation makes the
    unprojected (flat) part vanish identically on the torus and reproduces the
    closed-form two-stream-mode curvature at alpha = 0, which is what pins the
    two sign conventions.  Trilinear and antisymmetric in (x, y).
    """
    x, y, z = _clean(x), _clean(y), _clean(z)
    cd = predecessor_covariant_derivative
    return cd(x, cd(y, z, alpha), alpha) - cd(y, cd(x, z, alpha), alpha) - cd(lie_bracket(x, y), z, alpha)


def nested_sectional_curvature(x, y, alpha):
    """K(x, y) = <R~(x,y)y, x>_alpha / (|x|^2 |y|^2 - <x,y>^2); scale-invariant."""
    x, y = _clean(x), _clean(y)
    xx = inner_product_alpha(x, x, alpha)
    yy = inner_product_alpha(y, y, alpha)
    xy = inner_product_alpha(x, y, alpha)
    gram = xx * yy - xy * xy
    if gram <= 1e-12 * xx * yy:
        raise DegeneratePlaneError("directions are numerically collinear")
    return inner_product_alpha(curvature_op(x, y, y, alpha), x, alpha) / gram


def pairing_arnold(plane, alpha):
    """The predecessor of CurvaturePlane._arnold: Arnold's formula from seven metric pairings of
    the B fields, each B(c,a) = -A^{-1} P[N(a,c) - alpha^2 N(a, Lap c)] a Helmholtz inverse."""
    ip = lambda u, v: inner_product_alpha(u, v, alpha)
    xx, yy, xy = ip(plane.x, plane.x), ip(plane.y, plane.y), ip(plane.x, plane.y)
    gram = xx * yy - xy * xy
    if gram <= 1e-12 * xx * yy:
        raise DegeneratePlaneError("directions are numerically collinear")
    pm = plane.pn[:, :2] - alpha.alpha_sq * plane.pn[:, 2:] if alpha.alpha != 0.0 else plane.pn[:, :2]
    B = lambda c, a: helmholtz_inverse(SpectralField._adopt(plane.x.grid, -pm[a, c]), alpha)
    bxy, byx = B(0, 1), B(1, 0)
    d, s, h = 0.5 * (bxy + byx), 0.5 * (bxy - byx), plane.h
    return (ip(d, d) + 2.0 * ip(h, s) - 3.0 * ip(h, h) - ip(B(0, 0), B(1, 1))) / gram


def rel_diff(out, ref):
    return np.abs(out.coeffs - ref.coeffs).max() / max(np.abs(ref.coeffs).max(), np.finfo(float).tiny)


ORACLE_GRIDS = [(32, 32, 2 * np.pi, 2 * np.pi), (64, 64, 2 * np.pi, 2 * np.pi), (24, 40, 3.0, 7.5)]


class TestBatchedProductsMatchPredecessor:
    """The batched real-transform operators against the pairwise complex-pad oracle."""

    @pytest.mark.parametrize("nx,ny,Lx,Ly", ORACLE_GRIDS)
    @pytest.mark.parametrize("a_val", [0.0, 0.3])
    def test_operators(self, nx, ny, Lx, Ly, a_val):
        g = make_grid(nx, ny, Lx, Ly)
        a = AlphaParam(a_val)
        x, y, z = rand_stream(g, 41), rand_stream(g, 42), rand_stream(g, 43)
        assert rel_diff(advect(x, y), ref_advect(x, y)) <= 1e-13
        assert rel_diff(calU(x, a), ref_calU(x, a)) <= 1e-13
        assert rel_diff(frakU(x, y, a), ref_frakU(x, y, a)) <= 1e-13
        assert rel_diff(covariant_derivative(x, y, a), ref_covariant_derivative(x, y, a)) <= 1e-13
        assert rel_diff(curvature_op(x, y, z, a), ref_curvature_op(x, y, z, a)) <= 1e-13

    @pytest.mark.parametrize("axis", [0, 1])
    def test_support_boundary(self, axis):
        """Supports summing to n/2 - 1 on one axis multiply; n/2 raises, as in the predecessor."""
        g = make_grid(16, 12)
        half = g.shape[axis] // 2
        lo = (half - 1) // 2

        def factors(j1, j2):
            k1, k2 = ((j1, 1), (j2, 1)) if axis == 0 else ((1, j1), (1, j2))
            return cosine_field(g, k1), cosine_field(g, k2, 0.7)

        product = _form(1, [(0, 0, 1, 1.0)])
        a, b = factors(lo, half - 1 - lo)
        out = _exact_product(FieldStack(g, np.stack([a.coeffs, b.coeffs])), product)[0]
        ref = padded_complex_product(a, b)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        a, b = factors(lo + 1, half - 1 - lo)
        with pytest.raises(SupportOverflowError, match="larger grid"):
            padded_complex_product(a, b)
        with pytest.raises(SupportOverflowError, match="larger grid"):
            _exact_product(FieldStack(g, np.stack([a.coeffs, b.coeffs])), product)

    @settings(max_examples=25, deadline=None)
    @given(
        grid=st.sampled_from([(16, 16, 2 * np.pi, 2 * np.pi), (24, 20, 3.0, 7.5)]),
        seeds=st.tuples(*[st.integers(0, 2**32 - 1)] * 3),
        s=st.floats(-4.0, 4.0).filter(lambda v: abs(v) > 1e-3),
    )
    def test_product_bilinear_and_symmetric(self, grid, seeds, s):
        g = make_grid(*grid)
        a, b, c = (rand_modes(g, seed, kmax=3) for seed in seeds)
        product = _form(1, [(0, 0, 1, 1.0)])

        def mul(f, h):
            return _exact_product(FieldStack(g, np.stack([f.coeffs, h.coeffs])), product)[0]

        ab, cb = mul(a, b), mul(c, b)
        ref = padded_complex_product(a, b)
        assert np.abs(ab - ref).max() <= 1e-13 * max(np.abs(ref).max(), np.finfo(float).tiny)
        assert np.array_equal(mul(b, a), ab)
        lhs = mul(s * a + c, b)
        rhs = s * ab + cb
        scale = max(abs(s) * np.abs(ab).max(), np.abs(cb).max(), np.finfo(float).tiny)
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def box_field(grid, sx, sy, rng):
    """Real scalar field with random coefficients on every mode |jx| <= sx, |jy| <= sy."""
    table = {(0, 0): complex(rng.standard_normal())}
    for kx in range(-sx, sx + 1):
        for ky in range(0, sy + 1):
            if ky > 0 or kx > 0:
                c = complex(rng.standard_normal(), rng.standard_normal())
                table[(kx, ky)], table[(-kx, -ky)] = c, np.conj(c)
    return field_from_modes(grid, table).coeffs


class TestUnpaddedProductMatchesDoubledGrid:
    """_exact_product on (nx, ny) against its doubled-grid predecessor, up to the support boundary."""

    @settings(max_examples=40, deadline=None)
    @given(
        grid=st.sampled_from([(16, 16, 2 * np.pi, 2 * np.pi), (32, 32, 2 * np.pi, 2 * np.pi), (24, 40, 3.0, 7.5)]),
        fx=st.floats(0.0, 1.0),
        fy=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        axis=st.sampled_from([0, 1]),
    )
    def test_agrees_to_the_support_boundary(self, grid, fx, fy, seed, axis):
        g = make_grid(*grid)
        rng = np.random.default_rng(seed)
        hx, hy = g.nx // 2 - 1, g.ny // 2 - 1
        # factors 0 and 1 sum exactly to the boundary on both axes; factor 2 fits beside the larger
        s0 = (int(fx * hx), int(fy * hy))
        s1 = (hx - s0[0], hy - s0[1])
        s2 = (hx - max(s0[0], s1[0]), hy - max(s0[1], s1[1]))
        supports = [s0, s1, s2]
        c = np.stack([box_field(g, *s, rng) for s in supports])
        pairs = [(a, b) for a in range(3) for b in range(a, 3)
                 if all(supports[a][i] + supports[b][i] <= (hx, hy)[i] for i in range(2))]
        terms = [(o, a, b, float(rng.standard_normal())) for o in range(2) for a, b in pairs]
        form = _form(2, terms)
        out = _exact_product(FieldStack(g, c), form)
        ref = doubled_grid_exact_product(FieldStack(g, c), form)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        # one more mode on either axis of the narrower factor overflows (n/2), as in the oracle
        i = int(supports[1][axis] < supports[0][axis])
        wider = list(supports[i])
        wider[axis] += 1
        c[i] = box_field(g, *wider, rng)
        with pytest.raises(SupportOverflowError, match="larger grid"):
            _exact_product(FieldStack(g, c), _form(1, [(0, 0, 1, 1.0)]))
        with pytest.raises(SupportOverflowError, match="larger grid"):
            doubled_grid_exact_product(FieldStack(g, c), _form(1, [(0, 0, 1, 1.0)]))

    @pytest.mark.parametrize("nx,ny,Lx,Ly", ORACLE_GRIDS)
    def test_curvature_matches_doubled_grid(self, nx, ny, Lx, Ly, monkeypatch):
        g = make_grid(nx, ny, Lx, Ly)
        x, y = rand_stream(g, 51), rand_stream(g, 52)
        alphas = (AlphaParam(0.0), AlphaParam(0.6))
        K = [sectional_curvature(x, y, a) for a in alphas]
        monkeypatch.setattr(geometry, "_exact_product", doubled_grid_exact_product)
        K_ref = [sectional_curvature(x, y, a) for a in alphas]
        assert np.abs(np.subtract(K, K_ref)).max() <= 1e-13 * np.abs(K_ref).min()


class TestNonFiniteOperands:
    """A NaN or inf coefficient raises FloatingPointError instead of being cleaned to zero."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_clean_raises(self, bad):
        f = stream_mode(make_grid(16, 16), (1, 2))
        c = f.coeffs.copy()
        c[0, 1, 2] = bad
        with pytest.raises(FloatingPointError, match="non-finite"):
            _clean(SpectralField(f.grid, c))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_exact_product_raises(self, bad):
        g = make_grid(16, 16)
        c = np.stack([cosine_field(g, (1, 0)).coeffs, cosine_field(g, (0, 1)).coeffs])
        c[1, 0, 1] = bad
        with pytest.raises(FloatingPointError, match="non-finite"):
            _exact_product(FieldStack(g, c), _form(1, [(0, 0, 1, 1.0)]))

    def test_sectional_curvature_raises(self):
        g = make_grid(16, 16)
        x, y = stream_mode(g, (1, 0)), stream_mode(g, (0, 1))
        with pytest.raises(FloatingPointError):
            sectional_curvature(np.nan * x, y, AlphaParam(0.3))


class TestCalU:
    def test_shear_hand_value(self):
        # u = (sin y, 0): the assembled tensor divergence is (0, sin 2y), so
        # calU = a^2 (0, sin 2y) / (1 + 4 a^2): pure gradient, projected away.
        g = make_grid(32, 32)
        a = AlphaParam(0.7)
        u = stream_mode(g, (0, 1))
        out = to_physical(calU(u, a))
        _, Y = g.nodes()
        expected = a.alpha_sq / (1 + 4 * a.alpha_sq) * np.sin(2 * Y)
        assert np.abs(out[0]).max() < 1e-13
        assert np.abs(out[1] - expected).max() < 1e-13
        assert np.abs(leray_project(calU(u, a)).coeffs).max() < 1e-13

    def test_zero_and_alpha_zero(self):
        g = make_grid(16, 16)
        a = AlphaParam(0.5)
        assert np.abs(calU(zero_field(g, "vector"), a).coeffs).max() == 0.0
        assert np.abs(calU(stream_mode(g, (1, 0)), AlphaParam(0.0)).coeffs).max() == 0.0

    def test_quadratic_scaling(self):
        g = make_grid(32, 32)
        a = AlphaParam(0.4)
        u = rand_stream(g, 1)
        diff = calU(2.0 * u, a) - 4.0 * calU(u, a)
        assert np.abs(diff.coeffs).max() < 1e-12 * np.abs(calU(u, a).coeffs).max()


class TestFrakU:
    def test_zero_argument(self):
        g = make_grid(16, 16)
        u = stream_mode(g, (1, 0))
        out = frakU(u, zero_field(g, "vector"), AlphaParam(0.8))
        assert np.abs(out.coeffs).max() < 1e-14

    def test_bilinearity_and_symmetry(self):
        g = make_grid(32, 32)
        a = AlphaParam(0.5)
        x, y = rand_stream(g, 3), rand_stream(g, 4)
        scale = max(np.abs(frakU(x, y, a).coeffs).max(), 1.0)
        d1 = frakU(2.5 * x, y, a) - 2.5 * frakU(x, y, a)
        d2 = frakU(x, y, a) - frakU(y, x, a)
        assert np.abs(d1.coeffs).max() < 1e-11 * scale
        assert np.abs(d2.coeffs).max() < 1e-11 * scale


class TestCovariantDerivative:
    def test_alpha_zero_is_leray_advection(self):
        g = make_grid(32, 32)
        x, y = rand_stream(g, 5), rand_stream(g, 6)
        lhs = covariant_derivative(x, y, AlphaParam(0.0))
        rhs = leray_project(advect(x, y))
        assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-13

    def test_steady_shear_is_geodesic(self):
        g = make_grid(32, 32)
        u = stream_mode(g, (0, 1))
        for a in (0.0, 0.3, 1.0):
            out = covariant_derivative(u, u, AlphaParam(a))
            assert np.abs(out.coeffs).max() < 1e-11

    def test_metric_compatibility(self):
        # right-invariant fields have constant pairings, so the Levi-Civita
        # property reads <cd(x,y), z> + <y, cd(x,z)> = 0
        g = make_grid(64, 64)
        for a in (0.0, 0.6):
            alpha = AlphaParam(a)
            x, y, z = rand_stream(g, 7), rand_stream(g, 8), rand_stream(g, 9)
            s = inner_product_alpha(covariant_derivative(x, y, alpha), z, alpha)
            s += inner_product_alpha(y, covariant_derivative(x, z, alpha), alpha)
            scale = norm_alpha(y, alpha) * norm_alpha(z, alpha) * norm_alpha(x, alpha)
            assert abs(s) < 1e-10 * scale

    def test_torsion_free(self):
        g = make_grid(64, 64)
        a = AlphaParam(0.7)
        x, y = rand_stream(g, 10), rand_stream(g, 11)
        torsion = covariant_derivative(x, y, a) - covariant_derivative(y, x, a) - lie_bracket(x, y)
        assert np.abs(torsion.coeffs).max() < 1e-11

    def test_geodesic_spray_consistency(self):
        """cd(u,u) equals the independently assembled momentum-form spray."""
        g = make_grid(64, 64)
        a = AlphaParam(0.6)
        u = rand_stream(g, 12)
        m = helmholtz_apply(u, a)
        adv_m = advect(u, m)
        lap = derivative(u, "laplacian")
        # assemble (grad u)^T lap u directly in physical space (alias-free inputs)
        D = [[to_physical(derivative(u.component(i), ax)) for ax in ("x", "y")] for i in range(2)]
        lap_p = to_physical(lap)
        gtp = np.stack([
            D[0][0] * lap_p[0] + D[1][0] * lap_p[1],
            D[0][1] * lap_p[0] + D[1][1] * lap_p[1],
        ])
        gtf = to_spectral(g, gtp)
        momentum = leray_project(helmholtz_inverse(adv_m - a.alpha_sq * gtf, a))
        cduu = covariant_derivative(u, u, a)
        assert np.abs((cduu - momentum).coeffs).max() < 1e-12 * max(1.0, np.abs(cduu.coeffs).max())


class TestConnectionFromThePlane:
    """CurvaturePlane.connection and jacobi_evolve's delta u(0) against the advect and frakU route."""

    @pytest.mark.parametrize("nx,ny,Lx,Ly", ORACLE_GRIDS)
    @pytest.mark.parametrize("a_val", [0.0, 0.3, 0.9])
    def test_matches_predecessor_and_ref(self, nx, ny, Lx, Ly, a_val):
        g = make_grid(nx, ny, Lx, Ly)
        a = AlphaParam(a_val)
        for seeds in ((61, 62), (63, 64)):
            x, y = (rand_stream(g, s) for s in seeds)
            out = covariant_derivative(x, y, a)
            assert rel_diff(out, predecessor_covariant_derivative(x, y, a)) <= 1e-13
            assert rel_diff(out, ref_covariant_derivative(x, y, a)) <= 1e-13

    def test_euler_plane_connection_rejects_nonzero_alpha(self):
        g = make_grid(32, 32)
        plane = _EulerPlane(stream_mode(g, (1, 0)), stream_mode(g, (1, 1)))
        with pytest.raises(ValueError, match="alpha = 0 only"):
            plane.connection(AlphaParam(0.3))

    @pytest.mark.parametrize("a_val", [0.0, 0.2, 0.9])
    def test_initial_condition_bitwise_on_the_runner_calls(self, a_val):
        """The jacobi driver's two calls: y0 = 0 with the shipped u0 and perturbation, and the steady
        shear u0 = y0 = stream_mode(g, (0, 1)) with ydot0 = 0."""
        cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "jacobi.cfg"))
        g = runner._grid_from(cfg)
        a = AlphaParam(a_val)
        u0, zero, shear = runner.initial_velocity(cfg, g, 0), zero_field(g, "vector"), stream_mode(g, (0, 1))
        for args in ((u0, zero, stream_mode(g, (1, 1))), (shear, shear, zero)):
            assert_same_bits(plane_du0(*args, a).coeffs, predecessor_du0(*args, a).coeffs)

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: "x".join(map(str, s[:2])))
    @pytest.mark.parametrize("a_val", [0.0, 0.2, 0.9])
    def test_initial_condition_on_random_fields(self, shape, a_val):
        g = make_grid(*shape)
        a = AlphaParam(a_val)
        u0, y0, ydot0 = rand_stream(g, 71), rand_stream(g, 72), rand_stream(g, 73)
        assert rel_diff(plane_du0(u0, y0, ydot0, a), predecessor_du0(u0, y0, ydot0, a)) <= 1e-13


class TestCurvatureOp:
    def test_antisymmetry(self):
        g = make_grid(64, 64)
        a = AlphaParam(0.5)
        x, y, z = rand_stream(g, 13), rand_stream(g, 14), rand_stream(g, 15)
        anti = curvature_op(x, y, z, a) + curvature_op(y, x, z, a)
        scale = np.abs(curvature_op(x, y, z, a).coeffs).max()
        assert np.abs(anti.coeffs).max() < 1e-11 * max(1.0, scale)
        same = curvature_op(x, x, z, a)
        assert np.abs(same.coeffs).max() < 1e-11 * max(1.0, scale)

    def test_pairing_antisymmetry(self):
        g = make_grid(64, 64)
        a = AlphaParam(0.0)
        x, y, z, w = (rand_stream(g, s) for s in (16, 17, 18, 19))
        p1 = inner_product_alpha(curvature_op(x, y, z, a), w, a)
        p2 = inner_product_alpha(curvature_op(y, x, z, a), w, a)
        assert p1 == pytest.approx(-p2, rel=1e-11, abs=1e-11)

    def test_grid_independence(self):
        k, l = (1, 0), (1, 1)
        a = AlphaParam(0.6)
        results = {}
        for n in (32, 64):
            g = make_grid(n, n)
            out = curvature_op(stream_mode(g, k), stream_mode(g, l), stream_mode(g, l), a)
            results[n] = {
                (jx, jy): mode(out, jx, jy).copy()
                for jx in range(-5, 6)
                for jy in range(-5, 6)
            }
        for key in results[32]:
            assert np.abs(results[32][key] - results[64][key]).max() < 1e-13

    def test_support_overflow_raises(self):
        g = make_grid(16, 16)
        x = stream_mode(g, (3, 3))
        y = stream_mode(g, (3, -3))
        with pytest.raises(SupportOverflowError, match="larger grid"):
            curvature_op(x, y, y, AlphaParam(0.5))

    def test_jacobi_identity_against_linearized_flow(self):
        """Along the steady shear, D^2 Y/dt^2 = R~(u, Y) u with everything on the
        right coming from the geometry engine and everything on the left from
        the (independent) linearized transport equations."""
        g = make_grid(64, 64)
        u = stream_mode(g, (0, 1))
        for a_val in (0.0, 0.45, 0.9):
            a = AlphaParam(a_val)
            w = rand_stream(g, 20)
            du = rand_stream(g, 21)
            q = helmholtz_apply(derivative(u, "curl"), a)
            dq = helmholtz_apply(derivative(du, "curl"), a)

            def adv_scal(vel, s):
                vp = to_physical(vel)
                gp = to_physical(derivative(s, "gradient"))
                return to_spectral(g, vp[0] * gp[0] + vp[1] * gp[1])

            dq_dot = -1.0 * adv_scal(u, dq) - 1.0 * adv_scal(du, q)
            du_dot = velocity_from_q(dq_dot, a)
            wdot = du + advect(w, u) - advect(u, w)
            wddot = du_dot + advect(wdot, u) - advect(u, wdot)
            cd = covariant_derivative
            lhs = wddot + 2.0 * cd(u, wdot, a) + cd(u, cd(u, w, a), a)
            rhs = curvature_op(u, w, u, a)
            scale = max(np.abs(rhs.coeffs).max(), 1.0)
            assert np.abs((lhs - rhs).coeffs).max() < 1e-12 * scale


class TestSectionalCurvature:
    def test_arnold_anchor(self):
        g = grid_for_modes((1, 0), (0, 1))
        K = sectional_curvature(stream_mode(g, (1, 0)), stream_mode(g, (0, 1)), AlphaParam(0.0))
        assert K == pytest.approx(-1.0 / (8 * np.pi**2), rel=1e-10)

    def test_random_single_mode_pairs_match_closed_form(self):
        rng = np.random.default_rng(99)
        g = make_grid(64, 64)
        for _ in range(25):
            k = tuple(rng.integers(-3, 4, 2))
            l = tuple(rng.integers(-3, 4, 2))
            if k == (0, 0) or l == (0, 0) or k == l or k == (-l[0], -l[1]):
                continue
            K = sectional_curvature(stream_mode(g, k), stream_mode(g, l), AlphaParam(0.0))
            Ka = arnold_closed_form(k, l, S_2PI)
            assert K <= 1e-12
            assert abs(K - Ka) <= 1e-10 * max(abs(Ka), 1e-12)

    def test_parallel_wavevectors_flat(self):
        g = make_grid(32, 32)
        K = sectional_curvature(stream_mode(g, (1, 0)), stream_mode(g, (2, 0)), AlphaParam(0.0))
        assert abs(K) < 1e-13

    def test_degenerate_plane(self):
        g = make_grid(32, 32)
        x = stream_mode(g, (1, 0))
        with pytest.raises(DegeneratePlaneError):
            sectional_curvature(x, 1.0001 * x, AlphaParam(0.0))
        with pytest.raises(DegeneratePlaneError):
            CurvaturePlane(x, 1.0001 * x).K(AlphaParam(0.5))

    @pytest.mark.parametrize("alpha", [1e76, 1e77, 1e100, 1e200])
    def test_overflow_at_huge_alpha_raises(self, alpha):
        """Past float64 the gram or the numerator is inf or nan: an abort naming alpha, not a
        nan K, a false collinearity or a numpy warning."""
        g = grid_for_modes((2, 2), (2, 3))
        plane = CurvaturePlane(stream_mode(g, (2, 2)), stream_mode(g, (2, 3)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FloatingPointError) as err:
                plane.K(AlphaParam(alpha))
            assert plane.K(AlphaParam(1e75)) > 0.0
        assert str(err.value).endswith(f"at alpha = {alpha!r}")
        assert [str(w.message) for w in caught] == []

    def test_euler_plane_rejects_nonzero_alpha(self):
        g = make_grid(32, 32)
        plane = _EulerPlane(stream_mode(g, (1, 0)), stream_mode(g, (1, 1)))
        with pytest.raises(ValueError, match="alpha = 0 only"):
            plane.K(AlphaParam(0.3))
        K_full = CurvaturePlane(plane.x, plane.y).K(AlphaParam(0.0))
        assert plane.K(AlphaParam(0.0)) == pytest.approx(K_full, rel=1e-14)

    def test_scale_invariance(self):
        g = make_grid(32, 32)
        a = AlphaParam(0.5)
        x, y = stream_mode(g, (1, 0)), stream_mode(g, (1, 1))
        K = sectional_curvature(x, y, a)
        K2 = sectional_curvature(3.0 * x, 0.25 * y, a)
        assert K2 == pytest.approx(K, rel=1e-10)

    def test_lattice_rotation_invariance(self):
        g = make_grid(64, 64)
        a = AlphaParam(0.4)
        rot = lambda v: (-v[1], v[0])  # 90-degree lattice rotation
        for k, l in [((1, 0), (1, 1)), ((2, 1), (1, -1))]:
            K1 = sectional_curvature(stream_mode(g, k), stream_mode(g, l), a)
            K2 = sectional_curvature(stream_mode(g, rot(k)), stream_mode(g, rot(l)), a)
            assert K2 == pytest.approx(K1, rel=1e-11)


def assert_K_matches_oracle(K, K_ref):
    """1e-13 relative, or 1e-16 absolute where |K| < 1e-3."""
    assert abs(K - K_ref) <= (1e-13 * abs(K_ref) if abs(K_ref) >= 1e-3 else 1e-16)


class TestArnoldMatchesNestedOracle:
    """Arnold's formula on one plane of products against <R~(x,y)y, x> of nested covariant derivatives."""

    @pytest.mark.parametrize("nx,ny,Lx,Ly", ORACLE_GRIDS)
    @pytest.mark.parametrize("a_val", [0.0, 0.3])
    @pytest.mark.parametrize("seeds", [(41, 42), (51, 52), (61, 62)])
    def test_random_planes(self, nx, ny, Lx, Ly, a_val, seeds):
        g = make_grid(nx, ny, Lx, Ly)
        x, y = rand_stream(g, seeds[0]), rand_stream(g, seeds[1])
        a = AlphaParam(a_val)
        assert_K_matches_oracle(sectional_curvature(x, y, a), nested_sectional_curvature(x, y, a))

    @pytest.mark.parametrize("a_val", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_criterion_8_plane(self, a_val):
        """k = (1,0), l = (1,1) at criterion 8's scan alphas, on the grid it uses (margin 2) against
        the nested route on the margin-4 grid it needs."""
        k, l = (1, 0), (1, 1)
        a = AlphaParam(a_val)
        g = grid_for_modes(k, l)
        K = sectional_curvature(stream_mode(g, k), stream_mode(g, l), a)
        g4 = make_grid(16, 16)
        assert_K_matches_oracle(K, nested_sectional_curvature(stream_mode(g4, k), stream_mode(g4, l), a))

    @pytest.mark.parametrize("k,l", [((1, 1), (2, 2)), ((1, 0), (3, 0)), ((2, -1), (-4, 2))])
    @pytest.mark.parametrize("a_val", [0.0, 0.5])
    def test_parallel_wavevectors_exactly_flat(self, k, l, a_val):
        """Every N is a gradient and [x, y] = 0: the projections' roundoff is zeroed, not summed."""
        g = grid_for_modes(k, l)
        x, y = stream_mode(g, k), stream_mode(g, l)
        assert abs(sectional_curvature(x, y, AlphaParam(a_val))) <= 1e-30
        plane = CurvaturePlane(x, y)
        assert not plane.pn.any() and not plane.h.coeffs.any()

    def test_one_plane_serves_every_alpha(self, monkeypatch):
        g = make_grid(32, 32)
        x, y = rand_stream(g, 71), rand_stream(g, 72)
        alphas = [AlphaParam(a) for a in (0.0, 0.2, 0.7)]
        refs = [nested_sectional_curvature(x, y, a) for a in alphas]
        calls, real = [], geometry._exact_product
        monkeypatch.setattr(geometry, "_exact_product", lambda *a: calls.append(a[0].coeffs.shape[0]) or real(*a))
        plane = CurvaturePlane(x, y)
        for a, ref in zip(alphas, refs):
            assert_K_matches_oracle(plane.K(a), ref)
        assert calls == [24]  # factors of the one product call of the plane
        # sectional_curvature at alpha = 0 builds its plane without the Lap factors
        assert sectional_curvature(x, y, alphas[0]) == pytest.approx(plane.K(alphas[0]), rel=1e-14)
        assert sectional_curvature(x, y, alphas[1]) == plane.K(alphas[1])
        assert calls == [24, 12, 24]

    def test_support_overflow_raises(self):
        """(3,3), (3,-3) fits 16x16 at margin 2, (4,4), (4,-4) does not."""
        g = make_grid(16, 16)
        assert sectional_curvature(stream_mode(g, (3, 3)), stream_mode(g, (3, -3)), AlphaParam(0.5)) < 0.0
        with pytest.raises(SupportOverflowError, match="larger grid"):
            sectional_curvature(stream_mode(g, (4, 4)), stream_mode(g, (4, -4)), AlphaParam(0.5))


class TestWeightedSumMatchesPairings:
    """K(alpha) as one weighted sum over modes against pairing_arnold on the same plane."""

    @pytest.mark.parametrize("nx,ny,Lx,Ly", ORACLE_GRIDS)
    @pytest.mark.parametrize("seeds", [(41, 42), (51, 52), (61, 62)])
    def test_random_planes(self, nx, ny, Lx, Ly, seeds):
        g = make_grid(nx, ny, Lx, Ly)
        plane = CurvaturePlane(rand_stream(g, seeds[0]), rand_stream(g, seeds[1]))
        for a in (AlphaParam(0.0), AlphaParam(0.3), AlphaParam(1.0)):
            assert_K_matches_oracle(plane.K(a), pairing_arnold(plane, a))

    @pytest.mark.parametrize("k,l", [((1, 0), (1, 1)), ((2, 2), (2, 3))])
    def test_sweep_alphas(self, k, l):
        """Criterion 8's plane and alpha_sweep_flip.cfg's, at the 21 sweep alphas."""
        g = grid_for_modes(k, l)
        plane = CurvaturePlane(stream_mode(g, k), stream_mode(g, l))
        for a in np.linspace(0.0, 1.0, 21):
            assert_K_matches_oracle(plane.K(AlphaParam(a)), pairing_arnold(plane, AlphaParam(a)))

    @settings(max_examples=30, deadline=None)
    @given(
        grid=st.sampled_from([(32, 32, 2 * np.pi, 2 * np.pi), (24, 40, 3.0, 7.5)]),
        seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
        nmodes=st.integers(1, 5),
        a_val=st.floats(0.0, 2.0),
    )
    def test_random_kmax3_planes(self, grid, seeds, nmodes, a_val):
        g = make_grid(*grid)
        plane = CurvaturePlane(*(rand_stream(g, seed, kmax=3, nmodes=nmodes) for seed in seeds))
        a = AlphaParam(a_val)
        try:
            K_ref = pairing_arnold(plane, a)
        except DegeneratePlaneError:
            with pytest.raises(DegeneratePlaneError):
                plane.K(a)
            return
        assert_K_matches_oracle(plane.K(a), K_ref)


class TestArnoldClosedForm:
    def test_hand_value(self):
        assert arnold_closed_form((1, 0), (0, 1), S_2PI) == pytest.approx(-1 / (8 * np.pi**2), rel=1e-14)

    def test_parallel_zero(self):
        assert arnold_closed_form((1, 0), (2, 0), S_2PI) == 0.0

    def test_swap_symmetry(self):
        a = arnold_closed_form((2, 1), (1, -1), S_2PI)
        b = arnold_closed_form((1, -1), (2, 1), S_2PI)
        assert a == pytest.approx(b, rel=1e-14)

    def test_k_equals_pm_l_rejected(self):
        with pytest.raises(ValueError):
            arnold_closed_form((1, 1), (1, 1), S_2PI)
        with pytest.raises(ValueError):
            arnold_closed_form((1, 1), (-1, -1), S_2PI)


class TestFindAlpha0:
    def test_flip_found_and_bracketed(self):
        # (2,2) + (0,1) flips inside (0,1]; verify the bracket and the tail
        k, eps = (2, 2), (0, 1)
        a0 = find_alpha0(k, eps)
        assert a0 is not None and 0.0 < a0 < 1.0
        l = (k[0] + eps[0], k[1] + eps[1])
        g = grid_for_modes(k, l)
        x, y = stream_mode(g, k), stream_mode(g, l)
        assert sectional_curvature(x, y, AlphaParam(a0 - 1e-3)) < 0.0
        assert sectional_curvature(x, y, AlphaParam(a0 + 1e-3)) > 0.0
        for a in np.linspace(a0 + 0.05, 1.0, 5):
            assert sectional_curvature(x, y, AlphaParam(a)) > 0.0

    def test_no_flip_is_reported_not_raised(self):
        assert find_alpha0((1, 0), (0, 1)) is None

    def test_shipped_value(self):
        assert find_alpha0((2, 2), (0, 1)) == 0.673291015625

    def test_sweep_evaluates_each_alpha_once(self, tmp_path, monkeypatch):
        """One alpha_sweep_flip.cfg run: one plane and one product call; K is evaluated at the
        21 sweep points plus the bisection, each alpha once, and alpha0 is find_alpha0's."""
        a0 = find_alpha0((2, 2), (0, 1))
        n_bisect = int(np.ceil(np.log2((1.0 / 20) / 1e-4)))  # a scan interval halved down to tol
        evals, products = [], []
        real_arnold, real_product = CurvaturePlane._arnold, geometry._exact_product
        monkeypatch.setattr(CurvaturePlane, "_arnold", lambda p, a: evals.append((p, a.alpha)) or real_arnold(p, a))
        monkeypatch.setattr(geometry, "_exact_product", lambda *a: products.append(1) or real_product(*a))
        cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "alpha_sweep_flip.cfg")
        out = tmp_path / "out"
        assert main(["alpha-sweep", "--config", cfg, "--out", str(out)]) == 0
        assert len(products) == 1
        assert len({p for p, _ in evals}) == 1
        alphas = [a for _, a in evals]
        assert alphas[:21] == [0.05 * i for i in range(21)]
        assert len(alphas) == 21 + n_bisect
        assert len(set(alphas)) == len(alphas)
        manifest = dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())
        assert float(manifest["alpha0"]) == a0


class TestJacobiEvolve:
    def test_zero_data_stays_zero(self):
        g = make_grid(32, 32)
        a = AlphaParam(0.3)
        u0 = rand_stream(g, 30)
        z = zero_field(g, "vector")
        traj = jacobi_evolve(u0, z, z, 0.05, 5e-3, a)
        assert traj.y_norms.max() == 0.0
        assert traj.du_norms.max() == 0.0

    def test_steady_tangent_norm_constant(self):
        g = make_grid(32, 32)
        a = AlphaParam(0.4)
        u0 = stream_mode(g, (0, 1))
        z = zero_field(g, "vector")
        traj = jacobi_evolve(u0, u0, z, 0.2, 2e-3, a)
        drift = np.abs(traj.y_norms - traj.y_norms[0]).max() / traj.y_norms[0]
        assert drift < 1e-8

    def test_finite_difference_geodesic_deviation(self):
        from alpha_fluids.dynamics import DissipationMode, run, state_from_velocity

        g = make_grid(32, 32)
        a = AlphaParam(0.2)
        psi = cosine_field(g, (1, 0), 0.2) + cosine_field(g, (2, 1), 0.15, 0.7)
        u0 = derivative(psi, "perp_gradient")
        pert = stream_mode(g, (1, 1))
        z = zero_field(g, "vector")
        T, dt = 0.2, 2e-3
        traj = jacobi_evolve(u0, z, pert, T, dt, a)

        def endpoint(u):
            return run(state_from_velocity(u, a), dt, T, DissipationMode.inviscid()).velocity()

        base = endpoint(u0)
        errs = []
        for eps in (1e-4, 5e-5):
            fd = SpectralField(g, (endpoint(u0 + eps * pert).coeffs - base.coeffs) / eps)
            errs.append(norm_alpha(fd - traj.delta_u_final, a))
        ratio = errs[0] / errs[1]
        assert 1.4 <= ratio <= 2.6

    def test_divergence_free_jacobi_field(self):
        from alpha_fluids.spectral import divergence_defect

        g = make_grid(32, 32)
        a = AlphaParam(0.3)
        u0 = rand_stream(g, 31)
        y0 = rand_stream(g, 32)
        traj = jacobi_evolve(u0, y0, zero_field(g, "vector"), 0.1, 2e-3, a)
        assert divergence_defect(traj.y_final) < 1e-11

    def test_zero_dt_rejected(self):
        g = make_grid(16, 16)
        z = zero_field(g, "vector")
        with pytest.raises(ValueError, match="dt"):
            jacobi_evolve(stream_mode(g, (0, 1)), z, z, 0.1, 0.0, AlphaParam(0.3))


def predecessor_tangent_rhs(q, dq, w, alpha, mean_u):
    """Time derivatives of (q, delta q, w) for the coupled linearized system."""
    u = predecessor_velocity_from_q(q, alpha, mean_u)
    du = predecessor_velocity_from_q(dq, alpha)
    gq = derivative(q, "gradient")
    gdq = derivative(dq, "gradient")
    up, dup = to_physical(u), to_physical(du)

    def dot_grad(a_phys, gb):
        gb_p = to_physical(gb)
        return a_phys[0] * gb_p[0] + a_phys[1] * gb_p[1]

    g = q.grid
    q_dot = dealias_two_thirds(to_spectral(g, -dot_grad(up, gq)))
    dq_dot = dealias_two_thirds(to_spectral(g, -(dot_grad(up, gdq) + dot_grad(dup, gq))))
    # w_dot = delta u + (w . grad) u - (u . grad) w
    wp = to_physical(w)
    adv = np.empty_like(wp)
    gu = [to_physical(derivative(u.component(i), "gradient")) for i in range(2)]
    gw = [to_physical(derivative(w.component(i), "gradient")) for i in range(2)]
    for i in range(2):
        adv[i] = wp[0] * gu[i][0] + wp[1] * gu[i][1] - (up[0] * gw[i][0] + up[1] * gw[i][1])
    w_dot = dealias_two_thirds(to_spectral(g, adv)) + du
    return q_dot, dq_dot, w_dot


def predecessor_jacobi_evolve(u0, y0, ydot0, T, dt, alpha):
    """jacobi_evolve with the hand-written RK4 stage sums over (q, delta q, w), on the
    field-by-field right-hand side and inversion; delta u(0) is jacobi_evolve's own (plane_du0),
    which TestConnectionFromThePlane checks against the predecessor's."""
    state = state_from_velocity(u0, alpha)
    q, mean_u = state.q, state.mean_velocity
    w = dealias_two_thirds(y0)
    dq = state_from_velocity(plane_du0(u0, y0, ydot0, alpha), alpha).q

    n_steps = max(1, round(T / dt))
    times = [0.0]
    y_norms = [norm_alpha(w, alpha)]
    du_norms = [norm_alpha(predecessor_velocity_from_q(dq, alpha), alpha)]
    for step in range(n_steps):
        t = step * dt
        k1 = predecessor_tangent_rhs(q, dq, w, alpha, mean_u)
        s2 = (q + 0.5 * dt * k1[0], dq + 0.5 * dt * k1[1], w + 0.5 * dt * k1[2])
        k2 = predecessor_tangent_rhs(*s2, alpha, mean_u)
        s3 = (q + 0.5 * dt * k2[0], dq + 0.5 * dt * k2[1], w + 0.5 * dt * k2[2])
        k3 = predecessor_tangent_rhs(*s3, alpha, mean_u)
        s4 = (q + dt * k3[0], dq + dt * k3[1], w + dt * k3[2])
        k4 = predecessor_tangent_rhs(*s4, alpha, mean_u)
        q = q + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        dq = dq + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        w = w + (dt / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        if not np.isfinite(q.coeffs).all():
            raise FloatingPointError(f"jacobi integration lost finiteness at t={t + dt:g}")
        times.append((step + 1) * dt)
        y_norms.append(norm_alpha(w, alpha))
        du_norms.append(norm_alpha(predecessor_velocity_from_q(dq, alpha), alpha))

    return JacobiTrajectory(
        times=np.asarray(times),
        y_norms=np.asarray(y_norms),
        du_norms=np.asarray(du_norms),
        delta_u_final=predecessor_velocity_from_q(dq, alpha),
        y_final=w,
        u_final=predecessor_velocity_from_q(q, alpha, mean_u),
    )


def white_noise_stream(grid, seed, amplitude=0.05):
    """Divergence-free field with every mode inside the 2/3 band live."""
    noise = np.random.default_rng(seed).standard_normal(grid.shape)
    return derivative(dealias_two_thirds(to_spectral(grid, amplitude * noise)), "perp_gradient")


class TestFusedTangentMatchesPredecessor:
    """One transform pair per Jacobi stage against the field-by-field predecessor, bit for bit."""

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: "x".join(map(str, s[:2])))
    def test_tangent_rhs(self, shape):
        g = make_grid(*shape)
        a = AlphaParam(0.3)
        q = helmholtz_apply(derivative(white_noise_stream(g, 1), "curl"), a)
        dq = helmholtz_apply(derivative(white_noise_stream(g, 2), "curl"), a)
        mean = np.zeros((2, *g.coeff_shape), dtype=complex)
        mean[:, 0, 0] = (0.2, -0.4)
        w = white_noise_stream(g, 3) + SpectralField(g, mean)
        y = np.concatenate((q.coeffs[None], dq.coeffs[None], w.coeffs))
        new = _tangent_rhs(g, y, a, (0.3, -0.1))
        old = predecessor_tangent_rhs(q, dq, w, a, (0.3, -0.1))
        assert new.shape == y.shape
        assert_same_bits(new, np.concatenate([f.coeffs.reshape((-1,) + g.coeff_shape) for f in old]))

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: "x".join(map(str, s[:2])))
    def test_jacobi_evolve_20_steps(self, shape):
        g = make_grid(*shape)
        a = AlphaParam(0.2)
        u0, y0, ydot0 = rand_stream(g, 51), rand_stream(g, 52), rand_stream(g, 53)
        new = jacobi_evolve(u0, y0, ydot0, 0.02, 1e-3, a)
        old = predecessor_jacobi_evolve(u0, y0, ydot0, 0.02, 1e-3, a)
        assert len(new.times) == 21
        for name in ("times", "y_norms", "du_norms"):
            assert_same_bits(getattr(new, name), getattr(old, name))
        for name in ("delta_u_final", "y_final", "u_final"):
            assert_same_bits(getattr(new, name).coeffs, getattr(old, name).coeffs)


class TestJacobiGrowthVsCurvatureSign:
    def test_negative_curvature_plane_grows(self):
        """Along the steady shear, a perturbation in a plane of negative
        sectional curvature grows with a positive, stable logarithmic slope."""
        g = make_grid(32, 32)
        a = AlphaParam(0.2)
        u0 = stream_mode(g, (0, 1))
        pert = stream_mode(g, (1, 1))
        assert sectional_curvature(u0, pert, a) < 0.0
        traj = jacobi_evolve(u0, zero_field(g, "vector"), pert, 3.0, 2e-3, a)
        t, yn = traj.times, traj.y_norms
        w1 = (t >= 1.0) & (t <= 2.0)
        w2 = (t >= 2.0) & (t <= 3.0)
        s1 = np.polyfit(t[w1], np.log(yn[w1]), 1)[0]
        s2 = np.polyfit(t[w2], np.log(yn[w2]), 1)[0]
        assert s1 > 0.0 and s2 > 0.0
        assert max(s1, s2) / min(s1, s2) < 2.5  # same order across windows
        assert yn[np.searchsorted(t, 3.0)] > 2.0 * yn[np.searchsorted(t, 1.0)]
