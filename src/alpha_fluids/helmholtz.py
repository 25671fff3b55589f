"""Smoothing inverses, Leray/Stokes projections, and the 1D Dirichlet solve.

On the flat torus every operator here is a Fourier multiplier, read from the
tables that spectral keeps per grid (smoothing per grid and alpha^2).  The Stokes
projector is assembled through its defining saddle problem rather than as a
shortcut through the Leray multiplier, so the per-mode equivalence of the two
projections is a checkable fact, not a definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from .spectral import AlphaParam, SpectralField, smoothing


def helmholtz_apply(f: SpectralField, alpha: AlphaParam) -> SpectralField:
    """(1 - alpha^2 Laplacian) f, componentwise multiplier 1 + alpha^2 |k|^2."""
    return SpectralField._adopt(f.grid, smoothing(f.grid, alpha.alpha_sq) * f.coeffs)


def helmholtz_inverse(f: SpectralField, alpha: AlphaParam) -> SpectralField:
    """(1 - alpha^2 Laplacian)^{-1} f; uniformly invertible for alpha >= 0."""
    return SpectralField._adopt(f.grid, f.coeffs / smoothing(f.grid, alpha.alpha_sq))


def leray_project(u: SpectralField) -> SpectralField:
    """L^2-orthogonal projection onto divergence-free fields, u - grad p.

    Per mode: uhat -> uhat - k (k.uhat)/|k|^2; the k=0 (mean momentum) mode
    passes through unchanged.
    """
    if not u.is_vector:
        raise ValueError("leray_project expects a vector field")
    g = u.grid
    kdot = (g.kx * u.coeffs[0] + g.ky * u.coeffs[1]) / g.k_sq_safe
    out = np.stack([u.coeffs[0] - g.kx * kdot, u.coeffs[1] - g.ky * kdot])
    out[:, 0, 0] = u.coeffs[:, 0, 0]
    return SpectralField._adopt(g, out)


def stokes_project(F: SpectralField, alpha: AlphaParam) -> SpectralField:
    """Projection onto divergence-free fields along (1 - alpha^2 L)^{-1} grad terms.

    Solves, mode by mode, the Stokes system

        (1 - alpha^2 L) v + grad p = (1 - alpha^2 L) F,   div v = 0,

    with L = Laplacian + grad div (the deformation Laplacian on the torus).
    The complement F - v is (1 - alpha^2 L)^{-1} grad p and is metric-orthogonal
    to v for the same alpha.
    """
    if not F.is_vector:
        raise ValueError("stokes_project expects a vector field")
    g = F.grid
    a2 = alpha.alpha_sq
    m = smoothing(g, a2)
    kdotF = g.kx * F.coeffs[0] + g.ky * F.coeffs[1]
    # rhs g = (1 - a2 L) F = m F + a2 k (k.F)   (the grad-div part adds a2 k (k.F))
    g0 = m * F.coeffs[0] + a2 * g.kx * kdotF
    g1 = m * F.coeffs[1] + a2 * g.ky * kdotF
    # pressure from div v = 0: i |k|^2 phat = (1 + 2 a2 |k|^2)(k.F)
    phat = -1j * (1.0 + 2.0 * a2 * g.k_sq) * kdotF / g.k_sq_safe
    v0 = (g0 - g.ikx * phat) / m
    v1 = (g1 - g.iky * phat) / m
    out = np.stack([v0, v1])
    out[:, 0, 0] = F.coeffs[:, 0, 0]
    return SpectralField._adopt(g, out)


# -- 1D Dirichlet Helmholtz solve -------------------------------------------------


@dataclass(frozen=True)
class DirichletGrid1D:
    """n interior nodes of [0,1], spacing h = 1/(n+1); boundary values pinned to 0."""

    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need at least 3 interior points, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    @property
    def x(self) -> np.ndarray:
        return np.arange(1, self.n + 1) * self.h


def helmholtz_solve_dirichlet_1d(f: np.ndarray, alpha: AlphaParam, grid: DirichletGrid1D) -> np.ndarray:
    """Solve (1 - alpha^2 d^2/dx^2) w = f with w(0) = w(1) = 0, second order.

    Symmetric positive-definite tridiagonal system; ||w||_2 <= ||f||_2 in the
    discrete norm since the operator's eigenvalues are >= 1.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} interior samples, got shape {f.shape}")
    c = alpha.alpha_sq / grid.h**2
    ab = np.empty((2, grid.n))
    ab[0, :] = -c       # superdiagonal (first entry unused)
    ab[1, :] = 1.0 + 2.0 * c
    return solveh_banded(ab, f, lower=False)
