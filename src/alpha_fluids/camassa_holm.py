"""Shallow-water geodesic flow on the interval and the circle.

Eulerian nonlocal form on [0,1] (homogeneous Dirichlet) or [0,L) (periodic):

    u_t = -u u_x - (1 - dxx)^{-1} dx (u^2 + u_x^2 / 2),

equivalent to u_t - u_txx + 3 u u_x - 2 u_x u_xx - u u_xxx = 0.  Lagrangian
spray form on the Dirichlet interval:

    eta'' = -[(1 - dxx)^{-1} dx (u^2 + u_x^2/2)] o eta,   u = eta' o eta^{-1},

with the velocity reconstructed through shape-preserving (monotone cubic)
interpolation of the graph (eta_i, etadot_i).  Uniform grids and second-order
centered differences throughout; composition with interpolation is what rules
out a purely spectral representation.

The H^1 covariant derivative, its bilinear operator, and the sectional
curvature at the identity close out the 1D geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import BlowUpError
from .helmholtz import DirichletGrid1D, helmholtz_solve_dirichlet_1d
from .integrate import march, rk4
from .spectral import AlphaParam

TWO_PI = 2.0 * math.pi


class MonotonicityError(RuntimeError):
    """Particle crossing: eta stopped being strictly increasing."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(
            f"eta lost strict monotonicity at t={t:g}: the configuration left the "
            "diffeomorphism group (possible breakdown)"
        )


@dataclass(frozen=True)
class CHState:
    """Velocity samples; Dirichlet stores the n interior nodes of [0,1],
    periodic the n nodes of [0,L)."""

    u: np.ndarray
    bc: str
    t: float = 0.0
    L: float = TWO_PI

    def __post_init__(self):
        if self.bc not in ("dirichlet", "periodic"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        u = np.asarray(self.u, dtype=float)
        if u.ndim != 1 or u.size < 3:
            raise ValueError("u must be a 1D array with at least 3 samples")
        if not np.isfinite(u).all():
            raise ValueError("u must be finite")
        u = u.copy()
        u.flags.writeable = False
        object.__setattr__(self, "u", u)
        if self.bc == "dirichlet":
            object.__setattr__(self, "L", 1.0)

    @property
    def n(self) -> int:
        return self.u.size

    def nodes(self) -> np.ndarray:
        if self.bc == "dirichlet":
            return DirichletGrid1D(self.n).x
        return np.arange(self.n) * (self.L / self.n)

    def with_u(self, u: np.ndarray, t: float) -> "CHState":
        """State at time t that adopts u, read-only, without the constructor's checks
        or copy: u must be a fresh float array of n samples (see step_ch_rk4)."""
        u.flags.writeable = False
        new = object.__new__(CHState)
        new.__dict__.update(u=u, bc=self.bc, t=t, L=self.L)
        return new


def _dirichlet_full(u: np.ndarray) -> np.ndarray:
    """Interior samples extended by the pinned boundary zeros."""
    return np.concatenate([[0.0], u, [0.0]])


def _deriv_full(full: np.ndarray, h: float) -> np.ndarray:
    """Second-order derivative on the closed interval: centered inside,
    one-sided at the ends."""
    d = np.empty_like(full)
    d[1:-1] = (full[2:] - full[:-2]) / (2.0 * h)
    d[0] = (-3.0 * full[0] + 4.0 * full[1] - full[2]) / (2.0 * h)
    d[-1] = (3.0 * full[-1] - 4.0 * full[-2] + full[-3]) / (2.0 * h)
    return d


def _deriv_periodic(u: np.ndarray, h: float) -> np.ndarray:
    return (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * h)


def _nonlocal_derivative_periodic(w: np.ndarray, L: float) -> np.ndarray:
    """(1 - dxx)^{-1} dx w on the circle, spectrally (exact inverse)."""
    n = w.size
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=L / n)
    what = np.fft.rfft(w)
    return np.fft.irfft(1j * k / (1.0 + k * k) * what, n=n)


def _bracket_dirichlet(u: np.ndarray, grid: DirichletGrid1D) -> tuple[np.ndarray, np.ndarray]:
    """u_x on the closed interval and (1 - dxx)^{-1} dx (u^2 + u_x^2/2) inside, from u inside."""
    full = _dirichlet_full(u)
    ux_full = _deriv_full(full, grid.h)
    w_full = full**2 + 0.5 * ux_full**2
    dw = (w_full[2:] - w_full[:-2]) / (2.0 * grid.h)
    return ux_full, helmholtz_solve_dirichlet_1d(dw, AlphaParam(1.0), grid)


def ch_rhs_eulerian(state: CHState) -> np.ndarray:
    """du/dt in the nonlocal form; boundary conditions are built in."""
    if state.bc == "periodic":
        h = state.L / state.n
        ux = _deriv_periodic(state.u, h)
        w = state.u**2 + 0.5 * ux * ux
        return -state.u * ux - _nonlocal_derivative_periodic(w, state.L)
    ux_full, b = _bracket_dirichlet(state.u, DirichletGrid1D(state.n))
    return -state.u * ux_full[1:-1] - b


def step_ch_rk4(state: CHState, dt: float) -> CHState:
    """One integrate.rk4 step; BlowUpError if the result is not finite."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    u = rk4(lambda t, u: ch_rhs_eulerian(state.with_u(u, t)), state.t, state.u, dt, ch_rhs_eulerian(state))
    if not np.isfinite(u).all():
        raise BlowUpError(state.t)
    return state.with_u(u, state.t + dt)


def run_ch(state: CHState, dt: float, T: float, on_step=None) -> CHState:
    """integrate.march of step_ch_rk4; a non-finite step raises BlowUpError, so numpy's warnings are silenced."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return march(step_ch_rk4, state, dt, T, on_step)


def ch_energy(state: CHState) -> float:
    """inner_h1(u, u) = integral(u^2 + u_x^2): the squared norm the inviscid flow conserves."""
    return inner_h1(state.u, state.u, state.bc, state.L)


# -- Lagrangian spray form ----------------------------------------------------------------


@dataclass(frozen=True)
class CHLagrangianState:
    """Particle positions eta (strictly increasing, endpoints pinned to 0 and 1)
    and velocities etadot, stored on the full node set including the endpoints."""

    eta: np.ndarray
    etadot: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        etadot = np.asarray(self.etadot, dtype=float)
        if eta.shape != etadot.shape or eta.ndim != 1 or eta.size < 5:
            raise ValueError("eta and etadot must be matching 1D arrays (>= 5 nodes)")
        if eta[0] != 0.0 or eta[-1] != 1.0:
            raise ValueError("eta must pin the endpoints: eta(0)=0, eta(1)=1")
        if not (np.diff(eta) > 0.0).all():
            raise MonotonicityError(float(self.t))
        eta = eta.copy()
        etadot = etadot.copy()
        eta.flags.writeable = False
        etadot.flags.writeable = False
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "etadot", etadot)

    @property
    def n_interior(self) -> int:
        return self.eta.size - 2


def lagrangian_from_velocity(state: CHState) -> CHLagrangianState:
    """Identity configuration moving with the given Dirichlet velocity profile."""
    if state.bc != "dirichlet":
        raise ValueError("the spray form is implemented on the Dirichlet interval")
    nodes = np.concatenate([[0.0], state.nodes(), [1.0]])
    vel = _dirichlet_full(state.u)
    return CHLagrangianState(nodes, vel, state.t)


def eulerian_from_lagrangian(ls: CHLagrangianState, n: int) -> CHState:
    """u = etadot o eta^{-1} sampled on the uniform interior grid by monotone
    cubic interpolation of the graph (eta_i, etadot_i)."""
    from scipy.interpolate import PchipInterpolator  # see _spray_acceleration

    grid = DirichletGrid1D(n)
    u = PchipInterpolator(ls.eta, ls.etadot)(grid.x)
    return CHState(u, "dirichlet", ls.t)


def _spray_acceleration(eta: np.ndarray, etadot: np.ndarray, n_work: int) -> np.ndarray:
    """-(1 - dxx)^{-1} dx (u^2 + u_x^2/2) evaluated at the particles.

    The Eulerian field is rebuilt on a uniform work grid from the particle
    graph, the bracket is solved there, and the result is carried back to the
    particles by the same interpolation.
    """
    # imported here, not at module level: only the spray form needs it, and
    # scipy.interpolate adds about 19 MB to every process importing the package
    from scipy.interpolate import PchipInterpolator

    grid = DirichletGrid1D(n_work)
    _, b = _bracket_dirichlet(PchipInterpolator(eta, etadot)(grid.x), grid)
    return -PchipInterpolator(grid.x, b, extrapolate=True)(eta)


def ch_spray_step(ls: CHLagrangianState, dt: float) -> CHLagrangianState:
    """One step of the first-order system in (eta, etadot), stacked as (2, n);
    aborts with MonotonicityError on particle crossing."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")

    def f(_, y: np.ndarray) -> np.ndarray:
        if not (np.diff(y[0]) > 0.0).all():
            raise MonotonicityError(ls.t)
        k = np.empty_like(y)
        k[0] = y[1]
        k[1] = _spray_acceleration(y[0], y[1], ls.n_interior)
        k[1, 0] = k[1, -1] = 0.0
        return k

    eta, etadot = rk4(f, ls.t, np.stack((ls.eta, ls.etadot)), dt)
    eta[0], eta[-1] = 0.0, 1.0
    etadot[0] = etadot[-1] = 0.0
    return CHLagrangianState(eta, etadot, ls.t + dt)


def run_spray(ls: CHLagrangianState, dt: float, T: float, on_step=None) -> CHLagrangianState:
    return march(ch_spray_step, ls, dt, T, on_step)


# -- 1D geometry at the identity ------------------------------------------------------------


def frakU_1d(u: np.ndarray, v: np.ndarray, bc: str, L: float = TWO_PI) -> np.ndarray:
    """(1 - dxx)^{-1} dx (u v + u_x v_x / 2): the H^1 metric's bilinear operator."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError("u and v live on different grids")
    if bc == "periodic":
        h = L / u.size
        w = u * v + 0.5 * _deriv_periodic(u, h) * _deriv_periodic(v, h)
        return _nonlocal_derivative_periodic(w, L)
    grid = DirichletGrid1D(u.size)
    fu, fv = _dirichlet_full(u), _dirichlet_full(v)
    w = fu * fv + 0.5 * _deriv_full(fu, grid.h) * _deriv_full(fv, grid.h)
    dw = (w[2:] - w[:-2]) / (2.0 * grid.h)
    return helmholtz_solve_dirichlet_1d(dw, AlphaParam(1.0), grid)


def cd_1d(x: np.ndarray, y: np.ndarray, bc: str, L: float = TWO_PI) -> np.ndarray:
    """Covariant derivative at the identity: (d_x y) . x + frakU(x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if bc == "periodic":
        yx = _deriv_periodic(y, L / y.size)
    else:
        yx = _deriv_full(_dirichlet_full(y), DirichletGrid1D(y.size).h)[1:-1]
    return x * yx + frakU_1d(x, y, bc, L)


def _bracket_1d(x, y, bc, L):
    if bc == "periodic":
        h = L / len(x)
        return x * _deriv_periodic(y, h) - y * _deriv_periodic(x, h)
    h = DirichletGrid1D(len(x)).h
    dy = _deriv_full(_dirichlet_full(y), h)[1:-1]
    dx = _deriv_full(_dirichlet_full(x), h)[1:-1]
    return x * dy - y * dx


def inner_h1(u: np.ndarray, v: np.ndarray, bc: str, L: float = TWO_PI) -> float:
    """integral(u v + u_x v_x): the right-invariant metric at the identity."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if bc == "periodic":
        h = L / u.size
        return float(h * np.sum(u * v + _deriv_periodic(u, h) * _deriv_periodic(v, h)))
    grid = DirichletGrid1D(u.size)
    fu, fv = _dirichlet_full(u), _dirichlet_full(v)
    return float(
        np.trapezoid(fu * fv + _deriv_full(fu, grid.h) * _deriv_full(fv, grid.h), dx=grid.h)
    )


def ch_curvature_op(x, y, z, bc: str, L: float = TWO_PI) -> np.ndarray:
    """R~(x,y)z = cd_x cd_y z - cd_y cd_x z - cd_{[x,y]} z (same orientation as 2D)."""
    cd = lambda a, b: cd_1d(a, b, bc, L)
    return cd(x, cd(y, z)) - cd(y, cd(x, z)) - cd(_bracket_1d(x, y, bc, L), z)


def ch_sectional_curvature(x, y, bc: str, L: float = TWO_PI) -> float:
    """<R~(x,y)y, x>_{H^1} over the Gram determinant; scale-invariant."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xx = inner_h1(x, x, bc, L)
    yy = inner_h1(y, y, bc, L)
    xy = inner_h1(x, y, bc, L)
    gram = xx * yy - xy * xy
    if gram <= 1e-12 * xx * yy:
        raise ValueError("directions are numerically collinear")
    return inner_h1(ch_curvature_op(x, y, y, bc, L), x, bc, L) / gram
