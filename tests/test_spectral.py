"""Spectral infrastructure: transforms, derivatives, dealiasing, inner products."""

import math

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from alpha_fluids.helmholtz import leray_project
from alpha_fluids.spectral import (
    AlphaParam,
    SpectralField,
    cosine_field,
    dealias_two_thirds,
    derivative,
    divergence_defect,
    field_from_modes,
    full_coeffs,
    hermitian_asymmetry,
    inner_product_alpha,
    make_grid,
    mode,
    norm_alpha,
    to_physical,
    to_physical_padded,
    to_spectral,
    to_spectral_padded,
    zero_field,
    _symmetrize_ends,
)

from test_multiplier_tables import predecessor_dealias_modes, predecessor_inner_product_alpha


def random_real(grid, seed=0, rank="scalar"):
    rng = np.random.default_rng(seed)
    shape = (grid.nx, grid.ny) if rank == "scalar" else (2, grid.nx, grid.ny)
    return to_spectral(grid, rng.standard_normal(shape))


# -- the complex transforms that preceded the real-to-complex ones: test oracles --


def complex_to_spectral(grid, samples):
    return np.fft.fft2(samples, axes=(-2, -1)) / (grid.nx * grid.ny)


def complex_to_physical(grid, coeffs):
    return np.fft.ifft2(coeffs * (grid.nx * grid.ny), axes=(-2, -1)).real


def complex_padded_samples(grid, coeffs, shape):
    """Zero-pad the full spectrum (mode -n/2 at index -n/2) and keep Re(ifft2)."""
    big = np.zeros(coeffs.shape[:-2] + tuple(shape), dtype=np.complex128)
    ix = np.fft.fftfreq(grid.nx, d=1.0 / grid.nx).astype(int)
    iy = np.fft.fftfreq(grid.ny, d=1.0 / grid.ny).astype(int)
    big[..., ix[:, None], iy[None, :]] = coeffs
    return np.fft.ifft2(big * (shape[0] * shape[1]), axes=(-2, -1)).real


# -- the full (nx, ny) layout that preceded the rfft2 half: bitwise test oracles --


def full_layout_to_spectral(grid, samples):
    """rfft2, the jy < 0 half filled by conjugate mirror, the columns jy = 0, ny/2 symmetrized."""
    h = grid.ny // 2
    half = scipy.fft.rfft2(samples, norm="forward")
    c = np.empty(samples.shape[:-2] + grid.shape, dtype=np.complex128)
    c[..., : h + 1] = half
    np.conjugate(half[..., 0, h - 1 : 0 : -1], out=c[..., 0, h + 1 :])
    np.conjugate(half[..., :0:-1, h - 1 : 0 : -1], out=c[..., 1:, h + 1 :])
    ends = half[..., [0, h]]
    c[..., [0, h]] = 0.5 * (ends + np.conj(ends[..., -grid.jx, :]))
    return c


def full_layout_padded_samples(grid, c, shape):
    """irfft2 of the Hermitian part's jy >= 0 half, (c[k] + conj(c[-k]))/2, of full coefficients c."""
    mx, my = shape
    h = grid.ny // 2
    rows = grid.jx % mx
    mirror_rows = -grid.jx % mx
    half = np.zeros(c.shape[:-2] + (mx, my // 2 + 1), dtype=np.complex128)
    half[..., rows, :h] = c[..., :h]
    if my == grid.ny:
        half[..., rows, h] = c[..., h]
    half[..., mirror_rows, 0] += np.conj(c[..., 0])
    half[..., mirror_rows, 1 : h + 1] += np.conj(c[..., : h - 1 : -1])
    half *= 0.5
    return scipy.fft.irfft2(half, s=(mx, my), norm="forward")


def rel_err(out, ref):
    return np.abs(out - ref).max() / np.abs(ref).max()


ORACLE_GRIDS = [(64, 64, 2 * math.pi, 2 * math.pi), (24, 40, 3.0, 7.5)]


def random_stream(grid, seed=0, kmax=5, nmodes=6):
    rng = np.random.default_rng(seed)
    X, Y = grid.nodes()
    psi = np.zeros((grid.nx, grid.ny))
    for _ in range(nmodes):
        kx, ky = rng.integers(-kmax, kmax + 1, 2)
        if kx == 0 and ky == 0:
            continue
        psi += rng.standard_normal() * np.cos(kx * X + ky * Y + rng.uniform(0, 2 * np.pi))
    return derivative(to_spectral(grid, psi), "perp_gradient")


class TestMakeGrid:
    def test_default_torus(self):
        g = make_grid(64, 64)
        assert g.area == pytest.approx(4 * np.pi**2)
        assert g.jx.min() == -32 and g.jx.max() == 31
        assert np.isclose(g.kx[1, 0], 1.0)

    def test_smallest_legal(self):
        g = make_grid(4, 4)
        assert g.shape == (4, 4)

    @pytest.mark.parametrize("nx,ny", [(63, 64), (64, 63), (2, 64), (64, 0)])
    def test_rejects_odd_or_tiny(self, nx, ny):
        with pytest.raises(ValueError):
            make_grid(nx, ny)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            make_grid(8, 8, Lx=-1.0)

    @pytest.mark.parametrize("Lx,Ly", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)])
    def test_rejects_non_finite_periods(self, Lx, Ly):
        with pytest.raises(ValueError, match="finite"):
            make_grid(8, 8, Lx, Ly)


class TestTransform:
    def test_single_mode_coefficients(self):
        g = make_grid(32, 32)
        f = cosine_field(g, (1, 0))
        assert mode(f, 1, 0) == pytest.approx(0.5, abs=1e-14)
        assert mode(f, -1, 0) == pytest.approx(0.5, abs=1e-14)
        others = np.abs(full_coeffs(f)).sum() - abs(mode(f, 1, 0)) - abs(mode(f, -1, 0))
        assert others < 1e-12

    def test_constant_field(self):
        g = make_grid(16, 16)
        f = to_spectral(g, np.full((16, 16), 3.25))
        assert mode(f, 0, 0) == pytest.approx(3.25)
        assert np.abs(full_coeffs(f)).sum() == pytest.approx(3.25, abs=1e-12)

    def test_round_trip(self):
        g = make_grid(64, 64)
        rng = np.random.default_rng(1)
        s = rng.standard_normal((64, 64))
        assert np.abs(to_physical(to_spectral(g, s)) - s).max() < 1e-13

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_parseval(self, n):
        g = make_grid(n, n)
        rng = np.random.default_rng(n)
        s = rng.standard_normal((n, n))
        f = to_spectral(g, s)
        lhs = (s**2).mean()  # (1/S) * integral on the 2*pi torus
        rhs = np.sum(np.abs(full_coeffs(f)) ** 2)
        assert abs(lhs - rhs) / lhs < 1e-12

    def test_size_mismatch(self):
        g = make_grid(16, 16)
        with pytest.raises(ValueError):
            to_spectral(g, np.zeros((8, 8)))


@pytest.mark.parametrize("nx,ny,Lx,Ly", ORACLE_GRIDS)
@pytest.mark.parametrize("rank", ["scalar", "vector"])
class TestRealTransformOracle:
    """White-noise samples: every mode live, Nyquist row and column included."""

    def samples(self, g, rank):
        shape = g.shape if rank == "scalar" else (2,) + g.shape
        return np.random.default_rng(g.nx + g.ny).standard_normal(shape)

    def test_forward_matches_complex_transform(self, nx, ny, Lx, Ly, rank):
        g = make_grid(nx, ny, Lx, Ly)
        s = self.samples(g, rank)
        assert rel_err(full_coeffs(to_spectral(g, s)), complex_to_spectral(g, s)) <= 1e-14

    def test_forward_output_exactly_hermitian(self, nx, ny, Lx, Ly, rank):
        g = make_grid(nx, ny, Lx, Ly)
        assert hermitian_asymmetry(to_spectral(g, self.samples(g, rank))) == 0.0

    def test_inverse_matches_complex_transform(self, nx, ny, Lx, Ly, rank):
        g = make_grid(nx, ny, Lx, Ly)
        f = to_spectral(g, self.samples(g, rank))
        assert rel_err(to_physical(f), complex_to_physical(g, full_coeffs(f))) <= 1e-14

    def test_forward_matches_full_layout_bitwise(self, nx, ny, Lx, Ly, rank):
        g = make_grid(nx, ny, Lx, Ly)
        s = self.samples(g, rank)
        assert np.array_equal(full_coeffs(to_spectral(g, s)), full_layout_to_spectral(g, s))


PADDED_SHAPES = {
    "doubled": lambda g: (2 * g.nx, 2 * g.ny),
    "x padded": lambda g: (g.nx + 4, g.ny),
    "y padded": lambda g: (g.nx, g.ny + 6),
    "unpadded": lambda g: g.shape,
}


@pytest.mark.parametrize("nx,ny,Lx,Ly", ORACLE_GRIDS)
@pytest.mark.parametrize("rank", ["scalar", "vector"])
@pytest.mark.parametrize("pad", PADDED_SHAPES)
def test_padded_inverse_matches_complex_pad(nx, ny, Lx, Ly, rank, pad):
    """White-noise fields, so the Nyquist row and column are live."""
    g = make_grid(nx, ny, Lx, Ly)
    shape = PADDED_SHAPES[pad](g)
    f = random_real(g, seed=nx, rank=rank)
    assert np.abs(f.coeffs[..., nx // 2, :]).min() > 0.0 and np.abs(f.coeffs[..., ny // 2]).min() > 0.0
    ref = complex_padded_samples(g, full_coeffs(f), shape)
    assert rel_err(to_physical_padded(f, shape), ref) <= 1e-14
    assert np.array_equal(to_physical_padded(f, shape), full_layout_padded_samples(g, full_coeffs(f), shape))


def test_padded_inverse_of_general_coefficients():
    """Columns jy = 0, ny/2 not self-conjugate: still the real part of the padded inverse."""
    g = make_grid(24, 40, 3.0, 7.5)
    rng = np.random.default_rng(3)
    f = SpectralField(g, rng.standard_normal(g.coeff_shape) + 1j * rng.standard_normal(g.coeff_shape))
    for shape in [(48, 80), (24, 46), (30, 40)]:
        assert rel_err(to_physical_padded(f, shape), complex_padded_samples(g, full_coeffs(f), shape)) <= 1e-14


def test_padded_inverse_rejects_smaller_grid():
    g = make_grid(16, 16)
    with pytest.raises(ValueError):
        to_physical_padded(zero_field(g), (16, 8))


def test_padded_inverse_of_a_stack():
    g = make_grid(24, 40, 3.0, 7.5)
    stack = np.stack([random_real(g, seed, "vector").coeffs for seed in range(3)])
    out = to_physical_padded(SimpleNamespace(grid=g, coeffs=stack), (48, 80))
    assert out.shape == (3, 2, 48, 80)
    for i in range(3):
        assert np.array_equal(out[i], to_physical_padded(SpectralField(g, stack[i]), (48, 80)))


def band_limited(grid, seed=0, rank="scalar"):
    """Random real field on every mode |j| <= n/2 - 1: no Nyquist row or column."""
    return predecessor_dealias_modes(random_real(grid, seed, rank), grid.nx // 2 - 1, grid.ny // 2 - 1)


def padded_forward_transform(grid, samples):
    """The predecessor of to_spectral_padded, which also took samples (..., mx, my)
    on a finer grid, mx >= nx, my >= ny: the rfft2 half's rows jx and columns
    0 <= jy <= ny/2 of their transform, with the columns jy = 0 and ny/2
    symmetrized.  On a padded axis column ny/2 holds the mean of modes +-ny/2
    (off the row jx = -nx/2, whose mirror is taken on the small grid)."""
    c = scipy.fft.rfft2(samples, norm="forward")
    if samples.shape[-2:] != grid.shape:
        c = c[..., grid.jx, : grid.ny // 2 + 1]  # a negative row jx wraps to mx + jx, mode jx
    return _symmetrize_ends(grid, c)


@pytest.mark.parametrize("nx,ny,Lx,Ly", ORACLE_GRIDS)
def test_forward_matches_padded_oracle_on_its_own_grid(nx, ny, Lx, Ly):
    g = make_grid(nx, ny, Lx, Ly)
    samples = np.random.default_rng(nx).standard_normal((3,) + g.shape)
    assert np.array_equal(to_spectral_padded(g, samples), padded_forward_transform(g, samples))


@pytest.mark.parametrize("nx,ny,Lx,Ly", ORACLE_GRIDS)
@pytest.mark.parametrize("pad", PADDED_SHAPES)
def test_padded_forward_inverts_padded_inverse(nx, ny, Lx, Ly, pad):
    g = make_grid(nx, ny, Lx, Ly)
    f = band_limited(g, seed=nx, rank="vector")
    c = padded_forward_transform(g, to_physical_padded(f, PADDED_SHAPES[pad](g)))
    assert rel_err(c, f.coeffs) <= 1e-14
    assert hermitian_asymmetry(SpectralField(g, c)) == 0.0


@pytest.mark.parametrize("nx,ny,Lx,Ly", ORACLE_GRIDS)
def test_padded_forward_matches_complex_band(nx, ny, Lx, Ly):
    """Samples of a product on the doubled grid: the band of the complex transform, off Nyquist."""
    g = make_grid(nx, ny, Lx, Ly)
    fine = (2 * nx, 2 * ny)
    samples = to_physical_padded(band_limited(g, 1), fine) * to_physical_padded(band_limited(g, 2), fine)
    full = np.fft.fft2(samples) / samples.size
    ref = full[np.ix_(g.jx % fine[0], g.jy % fine[1])]
    out = padded_forward_transform(g, samples)
    inner = (np.abs(g.jx)[:, None] < nx // 2) & (np.abs(g.jy)[None, :] < ny // 2)
    assert np.abs(out - ref)[inner].max() <= 1e-14 * np.abs(ref).max()
    # on a padded axis the column jy = -ny/2 holds the mean of modes +-ny/2 (off the Nyquist row)
    h, rows = ny // 2, np.abs(g.jx) < nx // 2
    plus = full[g.jx % fine[0], h]
    assert np.abs(out[:, h] - 0.5 * (ref[:, h] + plus))[rows].max() <= 1e-14 * np.abs(ref).max()


def test_padded_forward_rejects_smaller_grid():
    with pytest.raises(ValueError):
        to_spectral_padded(make_grid(16, 16), np.zeros((16, 8)))


def test_forward_rejects_finer_grid():
    with pytest.raises(ValueError):
        to_spectral_padded(make_grid(16, 16), np.zeros((32, 32)))


# -- properties on random fields ------------------------------------------------------

GRIDS = st.builds(
    lambda nx, ny, lx, ly: make_grid(2 * nx, 2 * ny, lx, ly),
    st.integers(2, 20),
    st.integers(2, 20),
    st.floats(0.5, 20.0),
    st.floats(0.5, 20.0),
)
SEEDS = st.integers(0, 2**32 - 1)
RANKS = st.sampled_from(["scalar", "vector"])


class TestSpectralProperties:
    @settings(max_examples=40, deadline=None)
    @given(grid=GRIDS, seed=SEEDS, rank=RANKS)
    def test_parseval(self, grid, seed, rank):
        shape = grid.shape if rank == "scalar" else (2,) + grid.shape
        samples = np.random.default_rng(seed).standard_normal(shape)
        f = to_spectral(grid, samples)
        energy = np.sum(samples**2) / (grid.nx * grid.ny)
        assert np.sum(np.abs(full_coeffs(f)) ** 2) == pytest.approx(energy, rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(grid=GRIDS, seed=SEEDS, rank=RANKS)
    def test_to_spectral_exactly_hermitian(self, grid, seed, rank):
        assert hermitian_asymmetry(random_real(grid, seed, rank)) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(grid=GRIDS, seed=SEEDS, rank=RANKS)
    def test_mode_of_minus_k_is_the_conjugate(self, grid, seed, rank):
        f = random_real(grid, seed, rank)
        full = full_coeffs(f)
        for jx in range(-grid.nx // 2, grid.nx // 2):
            for jy in range(-grid.ny // 2, grid.ny // 2):
                assert np.array_equal(mode(f, -jx, -jy), np.conj(mode(f, jx, jy)))
                assert np.array_equal(mode(f, jx, jy), full[..., jx, jy])

    @settings(max_examples=40, deadline=None)
    @given(grid=GRIDS, seed=SEEDS, rank=RANKS)
    def test_full_coeffs_exactly_hermitian(self, grid, seed, rank):
        c = full_coeffs(random_real(grid, seed, rank))
        c_minus_k = np.roll(c[..., ::-1, ::-1], shift=(1, 1), axis=(-2, -1))
        assert np.array_equal(c, np.conj(c_minus_k))

    @settings(max_examples=40, deadline=None)
    @given(grid=GRIDS, seed=SEEDS, rank=RANKS)
    def test_round_trip_restores_band_limited_half(self, grid, seed, rank):
        f = band_limited(grid, seed, rank)
        assert rel_err(to_spectral(grid, to_physical(f)).coeffs, f.coeffs) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(grid=GRIDS, seed=SEEDS, op=st.sampled_from(["x", "y", "laplacian", "gradient", "perp_gradient"]))
    def test_derivative_keeps_exact_hermitian_symmetry(self, grid, seed, op):
        f = band_limited(grid, seed)
        assert hermitian_asymmetry(derivative(f, op)) == 0.0
        if op in ("gradient", "perp_gradient"):
            for vec_op in ("divergence", "curl"):
                assert hermitian_asymmetry(derivative(derivative(f, op), vec_op)) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(grid=GRIDS, seed=SEEDS)
    def test_leray_idempotent_and_exactly_hermitian(self, grid, seed):
        u = band_limited(grid, seed, "vector")
        p = leray_project(u)
        assert hermitian_asymmetry(p) == 0.0
        assert np.abs(leray_project(p).coeffs - p.coeffs).max() <= 1e-14 * np.abs(u.coeffs).max()
        assert divergence_defect(p) <= 1e-14


class TestDerivative:
    def test_eigenfunction(self):
        g = make_grid(32, 32)
        X, _ = g.nodes()
        d = derivative(cosine_field(g, (1, 0)), "x")
        assert np.abs(to_physical(d) + np.sin(X)).max() < 1e-13

    def test_perp_gradient(self):
        g = make_grid(32, 32)
        _, Y = g.nodes()
        u = derivative(cosine_field(g, (0, 1)), "perp_gradient")
        up = to_physical(u)
        assert np.abs(up[0] - np.sin(Y)).max() < 1e-13
        assert np.abs(up[1]).max() < 1e-13

    def test_curl(self):
        g = make_grid(32, 32)
        _, Y = g.nodes()
        u = derivative(cosine_field(g, (0, 1)), "perp_gradient")  # (sin y, 0)
        c = derivative(u, "curl")
        assert np.abs(to_physical(c) + np.cos(Y)).max() < 1e-12

    def test_trig_polynomial_exactness(self):
        g = make_grid(64, 64)
        rng = np.random.default_rng(2)
        X, Y = g.nodes()
        samples = np.zeros_like(X)
        d_dx = np.zeros_like(X)
        for _ in range(8):
            kx, ky = rng.integers(-20, 21, 2)
            a, phi = rng.standard_normal(), rng.uniform(0, 2 * np.pi)
            samples += a * np.cos(kx * X + ky * Y + phi)
            d_dx += -a * kx * np.sin(kx * X + ky * Y + phi)
        err = np.abs(to_physical(derivative(to_spectral(g, samples), "x")) - d_dx).max()
        assert err < 1e-12 * max(1.0, np.abs(d_dx).max())

    def test_divergence_of_perp_gradient_vanishes(self):
        g = make_grid(32, 32)
        u = random_stream(g, seed=5)
        assert divergence_defect(u) < 1e-12

    def test_rank_mismatch(self):
        g = make_grid(16, 16)
        scalar = cosine_field(g, (1, 0))
        vector = derivative(scalar, "gradient")
        with pytest.raises(ValueError):
            derivative(scalar, "divergence")
        with pytest.raises(ValueError):
            derivative(vector, "gradient")

    def test_nyquist_zeroed(self):
        g = make_grid(16, 16)
        f = field_from_modes(g, {(-8, 0): 1.0, (0, 3): 0.5, (0, -3): 0.5})
        d = derivative(f, "laplacian")
        assert mode(d, -8, 0) == 0.0
        assert abs(mode(d, 0, 3)) > 0


class TestDealias:
    def test_above_cutoff_zeroed(self):
        g = make_grid(64, 64)
        f = field_from_modes(g, {(30, 0): 1.0, (-30, 0): 1.0})
        assert np.abs(dealias_two_thirds(f).coeffs).max() == 0.0

    def test_below_cutoff_preserved(self):
        g = make_grid(64, 64)
        f = field_from_modes(g, {(10, 5): 1.0 + 0.5j, (-10, -5): 1.0 - 0.5j})
        d = dealias_two_thirds(f)
        assert mode(d, 10, 5) == mode(f, 10, 5)

    def test_idempotent(self):
        g = make_grid(32, 32)
        f = random_real(g, seed=3)
        once = dealias_two_thirds(f)
        twice = dealias_two_thirds(once)
        assert np.abs(once.coeffs - twice.coeffs).max() == 0.0


class TestInnerProductAlpha:
    def test_shear_hand_value(self):
        g = make_grid(32, 32)
        u = derivative(cosine_field(g, (0, 1)), "perp_gradient")
        for a in (0.0, 0.3, 1.0):
            alpha = AlphaParam(a)
            expected = 2 * np.pi**2 * (1 + a * a)
            assert inner_product_alpha(u, u, alpha) == pytest.approx(expected, rel=1e-12)

    def test_disjoint_wavevectors_orthogonal(self):
        g = make_grid(32, 32)
        u = derivative(cosine_field(g, (1, 0)), "perp_gradient")
        v = derivative(cosine_field(g, (0, 2)), "perp_gradient")
        assert abs(inner_product_alpha(u, v, AlphaParam(0.5))) < 1e-13

    def test_alpha_zero_is_l2(self):
        g = make_grid(32, 32)
        u = random_stream(g, seed=7)
        l2 = g.area * np.sum(np.abs(full_coeffs(u)) ** 2)
        assert inner_product_alpha(u, u, AlphaParam(0.0)) == pytest.approx(l2, rel=1e-12)

    def test_fourier_vs_deformation_cross_check(self):
        # the closed Fourier form against the Def-tensor quadrature, divergent fields included
        g = make_grid(48, 48)
        u = random_stream(g, seed=11, kmax=6)
        v = random_stream(g, seed=12, kmax=6)
        w = dealias_two_thirds(random_real(g, seed=13, rank="vector"))
        grad = derivative(dealias_two_thirds(random_real(g, seed=14)), "gradient")
        a = AlphaParam(0.7)
        for x, y in [(u, v), (u, w), (w, w), (w, grad), (grad, grad)]:
            d = predecessor_inner_product_alpha(x, y, a, "deformation")
            assert abs(inner_product_alpha(x, y, a) - d) <= 1e-14 * norm_alpha(x, a) * norm_alpha(y, a)

    def test_alpha_monotonicity(self):
        g = make_grid(32, 32)
        u = random_stream(g, seed=13)
        base = inner_product_alpha(u, u, AlphaParam(0.0))
        assert inner_product_alpha(u, u, AlphaParam(0.5)) > base

    def test_grid_mismatch(self):
        u = random_stream(make_grid(16, 16), seed=1, kmax=3)
        v = random_stream(make_grid(32, 32), seed=1, kmax=3)
        with pytest.raises(ValueError):
            inner_product_alpha(u, v, AlphaParam(0.0))


class TestHermitianSymmetry:
    def test_operations_preserve_symmetry(self):
        g = make_grid(32, 32)
        f = random_real(g, seed=4)
        u = random_real(g, seed=5, rank="vector")
        fields = [
            derivative(f, "x"),
            derivative(f, "laplacian"),
            derivative(f, "perp_gradient"),
            dealias_two_thirds(f),
            derivative(u, "divergence"),
            derivative(u, "curl"),
            f + f,
            2.0 * f,
        ]
        for out in fields:
            assert hermitian_asymmetry(out) < 1e-14

    def test_mode_table_places_each_mode(self):
        g = make_grid(16, 12)
        table = {(1, 2): 0.5 + 0.25j, (-1, -2): 0.5 - 0.25j, (3, 0): 1.0, (-3, 0): 1.0, (0, 6): 2.0}
        f = field_from_modes(g, table)
        assert all(mode(f, jx, jy) == val for (jx, jy), val in table.items())
        assert np.count_nonzero(full_coeffs(f)) == len(table)

    def test_non_hermitian_mode_table_rejected(self):
        g = make_grid(16, 16)
        with pytest.raises(ValueError):
            field_from_modes(g, {(1, 0): 1.0 + 1.0j})  # missing conjugate partner


class TestAlphaParam:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AlphaParam(-0.1)

    def test_alpha_sq(self):
        assert AlphaParam(0.5).alpha_sq == 0.25


class TestFieldValueSemantics:
    def test_coefficients_read_only(self):
        f = zero_field(make_grid(16, 16))
        with pytest.raises(ValueError):
            f.coeffs[0, 0] = 1.0

    def test_internal_results_read_only_and_unaliased(self):
        g = make_grid(16, 16)
        f = random_real(g, seed=8)
        u = random_real(g, seed=9, rank="vector")
        samples = to_physical(f)
        results = [
            (to_spectral(g, samples), []),
            (f + f, [f]),
            (f - f, [f]),
            (2.0 * f, [f]),
            (-f, [f]),
            (derivative(f, "x"), [f]),
            (derivative(f, "gradient"), [f]),
            (derivative(f, "perp_gradient"), [f]),
            (derivative(u, "curl"), [u]),
            (derivative(u, "laplacian"), [u]),
            (dealias_two_thirds(u), [u]),
        ]
        for out, inputs in results:
            assert not out.coeffs.flags.writeable
            assert not np.shares_memory(out.coeffs, samples)
            for x in inputs:
                assert not np.shares_memory(out.coeffs, x.coeffs)

    def test_public_constructor_copies_writeable_array(self):
        g = make_grid(16, 16)
        a = np.zeros(g.coeff_shape, dtype=np.complex128)
        f = SpectralField(g, a)
        a[1, 1] = 1.0
        assert f.coeffs[1, 1] == 0.0 and a.flags.writeable

    def test_arithmetic_checks_grid(self):
        a = zero_field(make_grid(16, 16))
        b = zero_field(make_grid(32, 32))
        with pytest.raises(ValueError):
            _ = a + b
