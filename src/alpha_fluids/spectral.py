"""Spectral fields on the flat 2D torus.

A real field's Fourier coefficients are Hermitian, fhat(-k) = conj(fhat(k)),
so a field stores the rfft2 half jy >= 0: coeffs has shape (nx, ny/2 + 1)
for scalars and (2, nx, ny/2 + 1) for vectors.  The forward transform
divides by nx*ny so that coefficients coincide with analytic Fourier
coefficients: cos(x) has coefficient 1/2 at k=(1,0) and k=(-1,0).

Conventions
-----------
* Coefficient arrays are indexed [jx, jy] (x along axis 0) in numpy fft
  order, j = 0, 1, ..., n/2-1, -n/2, ..., -1; the stored columns are the
  first ny/2 + 1, so the last is mode -ny/2 (grid.jy).  mode(f, jx, jy)
  reads any mode; full_coeffs(f) is the full (nx, ny) array.
* Wavenumbers are k = (2*pi/L) * j.
* The Nyquist mode j = -n/2 is zeroed after every derivative (its odd
  derivative is not representable).
* Discrete Parseval with this normalization: mean(f^2) = sum_k |fhat(k)|^2
  over the full spectrum, i.e. (1/S) * integral(f^2) = sum |fhat|^2.
* Transforms are scipy.fft rfft2/irfft2.  to_spectral symmetrizes the
  self-conjugate columns jy = 0 and ny/2, c[jx] = conj(c[-jx]), so its
  output is exactly Hermitian; real linear combinations and the i*k and
  |k|^2 multipliers keep it so.  hermitianize acts on those columns only.
* Every Fourier multiplier and mask is a read-only table on the grid (i kx,
  i ky, -i ky, -|k|^2, the safe |k|^2, the 2/3 and 1/2 drop masks, the mirror
  rows -jx) or, for 1 + alpha^2 |k|^2, cached per (grid, alpha^2) by
  smoothing(); every torus operator reads them and builds none.
* The H^1_alpha metric <u,v> = int(u.v) + (alpha^2/2) int(Def u : Def v),
  Def u = grad u + grad u^T, is summed in closed Fourier form by
  inner_product_alpha: integration by parts turns the Def-tensor term into
  alpha^2 S sum_k [|k|^2 uhat.conj(vhat) + (k.uhat) conj(k.vhat)], exact for
  fields without Nyquist content, solenoidal or not.

Fields are immutable values; all operations return new fields.  Results of
this module's operations own fresh read-only arrays; the public constructor
copies a caller's writeable array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.fft

TWO_PI = 2.0 * math.pi


class TorusGrid2D:
    """Collocation grid on [0,Lx) x [0,Ly) with its wavenumber, multiplier and mask tables."""

    def __init__(self, nx: int, ny: int, Lx: float = TWO_PI, Ly: float = TWO_PI):
        if nx < 4 or ny < 4:
            raise ValueError(f"grid must be at least 4x4, got {nx}x{ny}")
        if nx % 2 or ny % 2:
            raise ValueError(f"grid sizes must be even, got {nx}x{ny}")
        if not (0.0 < Lx < math.inf and 0.0 < Ly < math.inf):
            raise ValueError(f"domain periods must be positive and finite, got {Lx} x {Ly}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.Lx = float(Lx)
        self.Ly = float(Ly)
        self.coeff_shape = (self.nx, self.ny // 2 + 1)  # a scalar's stored half jy >= 0
        # integer mode numbers of the stored rows and columns (fft ordering)
        self.jx = np.fft.fftfreq(nx, d=1.0 / nx).astype(np.int64)
        self.jy = np.fft.fftfreq(ny, d=1.0 / ny).astype(np.int64)[: ny // 2 + 1]
        # radian wavenumbers, broadcastable to the coefficient shape (nx, ny/2 + 1)
        self.kx = (TWO_PI / self.Lx) * self.jx[:, None].astype(float)
        self.ky = (TWO_PI / self.Ly) * self.jy[None, :].astype(float)
        self.k_sq = self.kx**2 + self.ky**2
        self.k_sq_safe = np.where(self.k_sq > 0.0, self.k_sq, 1.0)  # a divisor: 1 at k = 0
        # the multipliers of every operator; the real ones are stored cast to
        # complex, as numpy casts them against coefficients, which keeps its bits
        self.ikx, self.iky, self.neg_iky = 1j * self.kx, 1j * self.ky, -1j * self.ky
        self.laplacian = (-self.k_sq).astype(np.complex128)
        self.neg_k_sq_safe = (-self.k_sq_safe).astype(np.complex128)
        # the modes the 2/3 and 1/2 rules zero, and the row of mode -jx
        ajx, ajy = np.abs(self.jx)[:, None], np.abs(self.jy)[None, :]
        self.drop_two_thirds = (ajx > nx // 3) | (ajy > ny // 3)
        self.drop_half = (ajx > (nx - 1) // 4) | (ajy > (ny - 1) // 4)
        self.neg_jx = -self.jx
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    @property
    def area(self) -> float:
        return self.Lx * self.Ly

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical mesh (X, Y), each (nx, ny), indexing='ij'."""
        x = np.arange(self.nx) * (self.Lx / self.nx)
        y = np.arange(self.ny) * (self.Ly / self.ny)
        return np.meshgrid(x, y, indexing="ij")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TorusGrid2D)
            and self.shape == other.shape
            and self.Lx == other.Lx
            and self.Ly == other.Ly
        )

    def __hash__(self) -> int:
        return hash((self.nx, self.ny, self.Lx, self.Ly))

    def __repr__(self) -> str:
        return f"TorusGrid2D({self.nx}x{self.ny}, L=({self.Lx:g},{self.Ly:g}))"


@functools.lru_cache(maxsize=16)
def smoothing(grid: TorusGrid2D, alpha_sq: float) -> np.ndarray:
    """The multiplier 1 + alpha^2 |k|^2 of (1 - alpha^2 Lap), cast to complex; read-only, cached per (grid, alpha^2)."""
    m = (1.0 + alpha_sq * grid.k_sq).astype(np.complex128)
    m.flags.writeable = False
    return m


def make_grid(nx: int, ny: int, Lx: float = TWO_PI, Ly: float = TWO_PI) -> TorusGrid2D:
    """Build a torus grid; rejects odd or tiny sizes and nonpositive or non-finite periods."""
    return TorusGrid2D(nx, ny, Lx, Ly)


@dataclass(frozen=True)
class AlphaParam:
    """Filtering length scale alpha >= 0; alpha = 0 degenerates to L^2/Euler."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha >= 0.0) or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")

    @property
    def alpha_sq(self) -> float:
        return self.alpha * self.alpha


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a real scalar or vector field, jy >= 0 half.

    coeffs shape is grid.coeff_shape = (nx, ny/2 + 1) for scalars and
    (2, nx, ny/2 + 1) for vectors.
    """

    grid: TorusGrid2D
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape not in (self.grid.coeff_shape, (2,) + self.grid.coeff_shape):
            raise ValueError(f"coefficient shape {c.shape} does not match grid half {self.grid.coeff_shape}")
        if not c.flags.owndata or c.flags.writeable:
            c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _adopt(cls, grid: TorusGrid2D, coeffs: np.ndarray) -> "SpectralField":
        """Wrap a freshly computed coefficient array, read-only, without a copy.

        For this package's own results: the array must have a valid shape and
        dtype complex128, and nothing else may hold a reference to it.
        """
        coeffs.flags.writeable = False
        f = object.__new__(cls)
        object.__setattr__(f, "grid", grid)
        object.__setattr__(f, "coeffs", coeffs)
        return f

    @property
    def is_vector(self) -> bool:
        return self.coeffs.ndim == 3

    def component(self, i: int) -> "SpectralField":
        if not self.is_vector:
            raise ValueError("component() requires a vector field")
        return SpectralField(self.grid, self.coeffs[i])

    # -- value-type arithmetic ------------------------------------------------
    def _check_compat(self, other: "SpectralField"):
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        if self.coeffs.shape != other.coeffs.shape:
            raise ValueError("rank mismatch")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_compat(other)
        return SpectralField._adopt(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_compat(other)
        return SpectralField._adopt(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, c: float) -> "SpectralField":
        return SpectralField._adopt(self.grid, self.coeffs * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField._adopt(self.grid, -self.coeffs)


class FieldStack(NamedTuple):
    """Coefficients of scalar fields stacked as (n, nx, ny/2 + 1) on one grid;
    to_physical and to_physical_padded transform the stack in one call."""

    grid: TorusGrid2D
    coeffs: np.ndarray


def zero_field(grid: TorusGrid2D, rank: str = "scalar") -> SpectralField:
    shape = grid.coeff_shape if rank == "scalar" else (2,) + grid.coeff_shape
    return SpectralField(grid, np.zeros(shape, dtype=np.complex128))


# -- transforms ----------------------------------------------------------------


def to_spectral(grid: TorusGrid2D, samples: np.ndarray) -> SpectralField:
    """Forward transform of real samples, (nx,ny) or (2,nx,ny); divides by nx*ny; exactly Hermitian."""
    s = np.asarray(samples, dtype=float)
    if s.shape not in (grid.shape, (2,) + grid.shape):
        raise ValueError(f"sample shape {s.shape} does not match grid {grid.shape}")
    return SpectralField._adopt(grid, to_spectral_padded(grid, s))


def _symmetrize_ends(grid: TorusGrid2D, c: np.ndarray) -> np.ndarray:
    """c with the self-conjugate columns jy = 0, ny/2 set to (c[jx] + conj(c[-jx]))/2 in place."""
    ends = c[..., :: grid.ny // 2]
    ends[...] = 0.5 * (ends + np.conj(ends[..., grid.neg_jx, :]))
    return c


def to_spectral_padded(grid: TorusGrid2D, samples: np.ndarray) -> np.ndarray:
    """rfft2 half of real samples (..., nx, ny) on grid, the columns jy = 0 and ny/2 symmetrized."""
    if samples.shape[-2:] != grid.shape:
        raise ValueError(f"sample grid {samples.shape[-2:]} does not match {grid.shape}")
    return _symmetrize_ends(grid, scipy.fft.rfft2(samples, norm="forward"))


def to_physical(f: SpectralField) -> np.ndarray:
    """Inverse transform to real samples (nx, ny) or (2, nx, ny); (n, nx, ny) for a FieldStack."""
    return scipy.fft.irfft2(f.coeffs, s=f.grid.shape, norm="forward")


def to_physical_padded(f: SpectralField, shape: tuple[int, int]) -> np.ndarray:
    """Samples of f on a finer mx x my grid (exact band-limited interpolation).

    f may also be a FieldStack; the samples then have shape (n, mx, my).  This is
    irfft2 of the Hermitian part (c[k] + conj(c[-k]))/2 zero-padded, so a
    Nyquist row or column counts half at -n/2 and half, mirrored, at +n/2.
    """
    g = f.grid
    mx, my = shape
    if mx < g.nx or my < g.ny:
        raise ValueError(f"padded grid {shape} is smaller than {g.shape}")
    c = f.coeffs
    h = g.ny // 2
    # rows of modes jx and -jx on the larger grid: a negative row j wraps to mx + j
    half = np.zeros(c.shape[:-2] + (mx, my // 2 + 1), dtype=np.complex128)
    half[..., g.jx, :h] = c[..., :h]
    if my == g.ny:  # mode -ny/2 is +ny/2 on an unpadded axis
        half[..., g.jx, h] = c[..., h]
    # the mirror term conj(c[-k]) at k = (jx, jy): c[-jx, jy] inside the half,
    # conj(c[jx, jy]) on the columns jy = 0 and ny/2, which are their own mirrors
    half[..., g.neg_jx, 1:h] += c[..., g.neg_jx, 1:h]
    half[..., g.neg_jx, : h + 1 : h] += np.conj(c[..., :: h])
    half *= 0.5
    return scipy.fft.irfft2(half, s=(mx, my), norm="forward")


def full_coeffs(f: SpectralField) -> np.ndarray:
    """f's full (..., nx, ny) coefficients in fft ordering: c[jx, -jy] = conj(c[-jx, jy]) + 0.0."""
    return _mirror(f.grid, f.coeffs)


def sum_modes(grid: TorusGrid2D, a: np.ndarray) -> float:
    """Sum over all nx*ny modes of a real quantity a stored like coefficients, in full-layout order."""
    return float(np.sum(_mirror(grid, a)))


def _mirror(grid: TorusGrid2D, half: np.ndarray) -> np.ndarray:
    h = grid.ny // 2
    c = np.empty(half.shape[:-1] + (grid.ny,), dtype=half.dtype)
    c[..., : h + 1] = half
    np.conjugate(half[..., 0, h - 1 : 0 : -1], out=c[..., 0, h + 1 :])  # -jx is row 0 for jx = 0,
    np.conjugate(half[..., :0:-1, h - 1 : 0 : -1], out=c[..., 1:, h + 1 :])  # else row nx - jx
    c[..., h + 1 :] += 0.0  # a zero is +0.0, as dealiasing writes it (checkpoint bytes)
    return c


# -- differentiation -----------------------------------------------------------

_SCALAR_TO_VECTOR = ("gradient", "perp_gradient")
_VECTOR_TO_SCALAR = ("divergence", "curl")


def derivative(f: SpectralField, op: str) -> SpectralField:
    """Exact spectral differentiation; Nyquist coefficients are zeroed.

    op: 'x' | 'y' | 'laplacian' (rank-preserving),
        'gradient' | 'perp_gradient' (scalar -> vector),
        'divergence' | 'curl' (vector -> scalar).
    curl u = dx(u2) - dy(u1); perp_gradient(psi) = (-dy(psi), dx(psi)).
    """
    g = f.grid
    c = f.coeffs
    if op in _SCALAR_TO_VECTOR:
        if f.is_vector:
            raise ValueError(f"{op} expects a scalar field")
        out = np.empty((2,) + c.shape, dtype=np.complex128)
        (gradient_into if op == "gradient" else perp_gradient_into)(out, c, g)
        return SpectralField._adopt(g, out)
    if op == "x":
        out = g.ikx * c
    elif op == "y":
        out = g.iky * c
    elif op == "laplacian":
        out = g.laplacian * c
    elif op in _VECTOR_TO_SCALAR:
        if not f.is_vector:
            raise ValueError(f"{op} expects a vector field")
        if op == "divergence":
            out = g.ikx * c[0] + g.iky * c[1]
        else:
            out = g.ikx * c[1] - g.iky * c[0]
    else:
        raise ValueError(f"unknown derivative op {op!r}")
    _zero_nyquist(out)
    return SpectralField._adopt(g, out)


def gradient_into(out: np.ndarray, c: np.ndarray, grid: TorusGrid2D) -> None:
    """(dx c, dy c) into out[0], out[1], Nyquist zeroed; c holds one or more scalars' coefficients."""
    np.multiply(grid.ikx, c, out=out[0])
    np.multiply(grid.iky, c, out=out[1])
    _zero_nyquist(out)


def perp_gradient_into(out: np.ndarray, c: np.ndarray, grid: TorusGrid2D) -> None:
    """(-dy c, dx c) into out[0], out[1], Nyquist zeroed; c may be out[1]."""
    np.multiply(grid.neg_iky, c, out=out[0])
    np.multiply(grid.ikx, c, out=out[1])
    _zero_nyquist(out)


def _zero_nyquist(c: np.ndarray) -> None:
    """Zero the Nyquist row -nx/2 and column -ny/2 of coefficients (..., nx, ny/2 + 1) in place."""
    c[..., c.shape[-2] // 2, :] = 0.0
    c[..., -1] = 0.0


# -- dealiasing ----------------------------------------------------------------


def dealias_two_thirds(f: SpectralField) -> SpectralField:
    """2/3-rule truncation for quadratic pseudospectral products: zero |jx| > nx/3 or |jy| > ny/3."""
    return SpectralField._adopt(f.grid, np.where(f.grid.drop_two_thirds, 0.0, f.coeffs))


# -- inner products and norms ---------------------------------------------------


def divergence_defect(u: SpectralField) -> float:
    """Relative size of k . uhat(k) against |k||uhat(k)|; 0 for solenoidal fields."""
    g = u.grid
    if not u.is_vector:
        raise ValueError("divergence_defect expects a vector field")
    dot = np.abs(g.kx * u.coeffs[0] + g.ky * u.coeffs[1])
    scale = np.sqrt(g.k_sq) * np.sqrt(np.abs(u.coeffs[0]) ** 2 + np.abs(u.coeffs[1]) ** 2)
    smax = scale.max()
    if smax == 0.0:
        return 0.0
    return float(dot.max() / smax)


def inner_product_alpha(u: SpectralField, v: SpectralField, alpha: AlphaParam) -> float:
    """Metric pairing <u,v> = int(u.v) + (alpha^2/2) int(A:B), A = grad u + grad u^T, B likewise for v.

    Integrating the Def-tensor term by parts, (1/2) int(A:B) = int(grad u : grad v)
    + int(div u div v), so in closed form

        <u,v> = S sum_k Re[(1 + alpha^2 |k|^2) uhat.conj(vhat) + alpha^2 (k.uhat) conj(k.vhat)]

    over all nx*ny modes, for solenoidal and divergent fields alike.  It equals
    the Def-tensor integral exactly for fields without Nyquist content (whose odd
    derivatives are not representable), which covers every dealiased or
    band-limited field the solvers and the geometry build.
    """
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    if not (u.is_vector and v.is_vector):
        raise ValueError("inner_product_alpha expects vector fields")
    g = u.grid
    w = smoothing(g, alpha.alpha_sq).real
    ku = g.kx * u.coeffs[0] + g.ky * u.coeffs[1]
    kv = g.kx * v.coeffs[0] + g.ky * v.coeffs[1]
    smoothed = sum_modes(g, w * (u.coeffs * np.conj(v.coeffs)).real)
    return g.area * (smoothed + alpha.alpha_sq * sum_modes(g, (ku * np.conj(kv)).real))


def norm_alpha(u: SpectralField, alpha: AlphaParam) -> float:
    return math.sqrt(max(inner_product_alpha(u, u, alpha), 0.0))


def norm_hs(f: SpectralField, s: float) -> float:
    """Sobolev H^s norm, (S * sum (1+|k|^2)^s |fhat|^2)^(1/2), summed over components."""
    w = (1.0 + f.grid.k_sq) ** s
    return math.sqrt(f.grid.area * sum_modes(f.grid, w * np.abs(f.coeffs) ** 2))


def hermitian_asymmetry(f: SpectralField) -> float:
    """max |coeffs(k) - conj(coeffs(-k))| on the self-conjugate columns jy = 0, ny/2; 0 for a real field."""
    ends = f.coeffs[..., :: f.grid.ny // 2]
    return float(np.abs(ends - np.conj(ends[..., f.grid.neg_jx, :])).max())


def hermitianize(f: SpectralField) -> SpectralField:
    """Project onto real-field coefficients: symmetrize the self-conjugate columns jy = 0, ny/2."""
    return SpectralField._adopt(f.grid, _symmetrize_ends(f.grid, f.coeffs.copy()))


# -- constructors for tests and initial data ------------------------------------


def cosine_field(grid: TorusGrid2D, k: tuple[int, int], amplitude: float = 1.0, phase: float = 0.0) -> SpectralField:
    """Scalar field amplitude * cos(k . x + phase), sampled exactly."""
    X, Y = grid.nodes()
    kx = TWO_PI * k[0] / grid.Lx
    ky = TWO_PI * k[1] / grid.Ly
    return to_spectral(grid, amplitude * np.cos(kx * X + ky * Y + phase))


def field_from_modes(grid: TorusGrid2D, modes: dict) -> SpectralField:
    """Scalar field from {(jx,jy): coefficient}; each mode's conjugate partner must be in the table."""
    table = {(jx % grid.nx, jy % grid.ny): val for (jx, jy), val in modes.items()}
    tol = 1e-12 * (1.0 + max(map(abs, table.values()), default=0.0))
    c = zero_field(grid).coeffs.copy()
    for (jx, jy), val in table.items():
        if abs(table.get((-jx % grid.nx, -jy % grid.ny), 0.0) - np.conj(val)) > tol:
            raise ValueError("mode table is not Hermitian-symmetric (field would be complex)")
        if jy <= grid.ny // 2:
            c[jx, jy] = val
    return SpectralField(grid, c)


def mode(f: SpectralField, jx: int, jy: int):
    """Coefficient at integer wavevector (jx, jy), (2,) for vectors; -ny/2 < jy < 0 reads conj of (-jx, -jy)."""
    g = f.grid
    if jy % g.ny <= g.ny // 2:
        return f.coeffs[..., jx % g.nx, jy % g.ny]
    return np.conj(f.coeffs[..., -jx % g.nx, -jy % g.ny])
