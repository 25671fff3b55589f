"""Flow-map co-advection and volume/transport verification.

Particles realizing eta(t, x) on a reference lattice are advected by
integrate.rk4 alongside the solver; each velocity snapshot the solver makes is
folded into an evaluator once.  Nonuniform velocity evaluation is exact
Fourier summation restricted to the (thresholded) live mode block, so
evaluation error stays at roundoff.

Positions are stored unwrapped (eta of a degree-one periodic map), which makes
the centered-difference Jacobian of volume_check smooth across the seam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DissipationMode, VorticityState, step_rk4
from .integrate import march, rk4
from .spectral import TWO_PI, SpectralField, TorusGrid2D, full_coeffs

_EVAL_TRUNCATION = 1e-16  # relative: modes below this cannot move max error past 1e-13


@dataclass(frozen=True)
class FlowMap:
    """Particle images of a uniform m x m reference lattice at time t."""

    grid: TorusGrid2D
    reference: np.ndarray   # (m, m, 2)
    positions: np.ndarray   # (m, m, 2), unwrapped
    t: float

    def __post_init__(self):
        for name in ("reference", "positions"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.ndim != 3 or a.shape[2] != 2 or a.shape[0] != a.shape[1]:
                raise ValueError(f"{name} must be (m, m, 2)")
            if not np.isfinite(a).all():
                raise ValueError(f"{name} contains non-finite entries")
            a = a.copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def m(self) -> int:
        return self.reference.shape[0]

    def with_positions(self, pos: np.ndarray, t: float) -> "FlowMap":
        return FlowMap(self.grid, self.reference, pos, t)


def make_lattice(grid: TorusGrid2D, m: int) -> FlowMap:
    """Identity flow map on a uniform m x m lattice, m >= 8."""
    if m < 8:
        raise ValueError("tracer lattice must be at least 8x8")
    x = np.arange(m) * (grid.Lx / m)
    y = np.arange(m) * (grid.Ly / m)
    X, Y = np.meshgrid(x, y, indexing="ij")
    ref = np.stack([X, Y], axis=-1)
    return FlowMap(grid, ref, ref.copy(), 0.0)


# -- nonuniform evaluation -----------------------------------------------------------


def _trig_table(coord: np.ndarray, h: float, j: np.ndarray) -> np.ndarray:
    """Rows cos(j h coord) then sin(j h coord), (2 len(j), P), for j >= 0.

    exp(i j h x) is the product of exactly computed exp(i lo h x) and
    exp(i b hi h x), j = lo + b hi: about 2 ulp whatever j is, unlike a running
    product, from only about 2 sqrt(max j) complex exponentials per point."""
    top = int(j.max(initial=0))
    b = math.isqrt(top) + 1
    lo = np.exp(1j * np.outer(h * np.arange(b), coord))
    hi = np.exp(1j * np.outer((h * b) * np.arange(top // b + 1), coord))
    e = lo[j % b] * hi[j // b]
    return np.concatenate((e.real, e.imag))


def _fold(j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct |j| and the (2 len(|j|), len(j)) matrix G with
    exp(i j t) = G.T @ [cos(|j| t); sin(|j| t)] for every mode number in j."""
    a = np.abs(j)
    u = np.unique(a)
    hit = (u[:, None] == a[None, :]).astype(float)
    return u, np.concatenate((hit, 1j * np.sign(j) * hit))


def _folded(f: SpectralField):
    """f's evaluator, points (P, 2) -> values: the field-only part of eval_field_at, done once."""
    g = f.grid
    c = full_coeffs(f).reshape(-1, g.nx, g.ny)
    mags = np.abs(c).max(axis=0)
    thr = _EVAL_TRUNCATION * mags.max()
    jx = g.jx[mags.max(axis=1) > thr]
    jy = np.fft.fftfreq(g.ny, d=1.0 / g.ny).astype(np.int64)[mags.max(axis=0) > thr]
    ux, gx = _fold(jx)
    uy, gy = _fold(jy)
    folded = (gx @ c[:, jx][:, :, jy] @ gy.T).real        # (r, 2Ux, 2Uy)

    def at(pts: np.ndarray) -> np.ndarray:
        x = _trig_table(pts[:, 0], TWO_PI / g.Lx, ux)      # (2Ux, P)
        y = _trig_table(pts[:, 1], TWO_PI / g.Ly, uy)      # (2Uy, P)
        out = np.einsum("ip,rip->pr", x, folded @ y)
        return out if f.is_vector else out[:, 0]

    return at


def eval_field_at(f: SpectralField, points: np.ndarray) -> np.ndarray:
    """Exact Fourier-sum evaluation of f at arbitrary points, (P,) or (P,2).

    Returns Re sum_k fhat(k) exp(i k.x) over the live mode block (modes below
    1e-16 of the peak are dropped; their total contribution is under 1e-13
    relative).  As exp(i j h x) = cos(|j| h x) + i sign(j) sin(|j| h x), modes
    +j and -j share table rows, and the sum is X.T C Y per point: X, Y the
    cos/sin tables of the distinct |jx|, |jy|, C = Re(Gx fhat Gy.T).  This
    identity assumes no Hermitian symmetry and no special Nyquist handling.
    Cost for a live Kx x Ky block: O(P (sqrt(Kx) + sqrt(Ky))) exponentials,
    O(P (Kx + Ky)) table products and O(P Kx Ky) real multiply-adds, a
    quarter of the direct complex sum.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return np.zeros((0, 2) if f.is_vector else (0,))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (P, 2)")
    return _folded(f)(pts)


def co_advect(
    state: VorticityState, mode: DissipationMode, dt: float, T: float, fmap: FlowMap
) -> tuple[VorticityState, FlowMap]:
    """Step the solver and the flow map together, one snapshot pair at a time.

    Particle RK4 over a step from snapshot u_a to u_b reads u_a at t, the mean
    0.5 (u_a + u_b) at t + dt/2 (stages 2 and 3) and u_b at t + dt.  Each
    snapshot is folded once: the fold of u_b is the next step's first stage.
    Memory stays at two velocity fields no matter how long the run is.
    """

    def step(c, h):
        s, u_a, f_a, pos, n = c
        new = step_rk4(s, h, mode)
        u_b = new.velocity()
        f_b = _folded(u_b)
        folds = {s.t: f_a, s.t + 0.5 * h: _folded(0.5 * (u_a + u_b)), s.t + h: f_b}  # the times rk4 forms
        return new, u_b, f_b, rk4(lambda t, p: folds[t](p), s.t, pos, h), n + 1

    m, t0, u0 = fmap.m, state.t, state.velocity()
    state, _, _, pos, n = march(step, (state, u0, _folded(u0), fmap.positions.reshape(m * m, 2), 0), dt, T)
    return state, fmap.with_positions(pos.reshape(m, m, 2), t0 + n * dt)


# -- verification functionals ----------------------------------------------------------


def volume_check(fmap: FlowMap) -> float:
    """max |det D eta - 1| over the lattice, D eta by centered differences.

    Neighbor differences across the lattice seam are completed with the
    period offset (eta(x + L e) = eta(x) + L e for a degree-one map).
    """
    pos = fmap.positions
    m = fmap.m
    g = fmap.grid
    hx = g.Lx / m
    hy = g.Ly / m

    def shifted(axis: int, sign: int) -> np.ndarray:
        rolled = np.roll(pos, -sign, axis=axis)
        seam = [slice(None), slice(None), axis]  # the wrapped neighbors' coordinate `axis`
        seam[axis] = m - 1 if sign > 0 else 0
        rolled[tuple(seam)] += sign * (g.Lx, g.Ly)[axis]
        return rolled

    d_dx = (shifted(0, +1) - shifted(0, -1)) / (2.0 * hx)
    d_dy = (shifted(1, +1) - shifted(1, -1)) / (2.0 * hy)
    det = d_dx[..., 0] * d_dy[..., 1] - d_dx[..., 1] * d_dy[..., 0]
    return float(np.abs(det - 1.0).max())


def transport_check(q0: SpectralField, q_t: SpectralField, fmap: FlowMap) -> float:
    """max_i |q_t(eta(t, x_i)) - q0(x_i)|: pointwise transport along particles."""
    pts = fmap.positions.reshape(-1, 2)
    ref = fmap.reference.reshape(-1, 2)
    vals_t = eval_field_at(q_t, pts)
    vals_0 = eval_field_at(q0, ref)
    return float(np.abs(vals_t - vals_0).max())

