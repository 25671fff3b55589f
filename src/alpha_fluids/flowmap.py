"""Flow-map integration, volume/transport verification, and exponential maps.

Particles realizing eta(t, x) on a reference lattice are advected with RK4
through a time-indexed velocity source.  Nonuniform velocity evaluation is
exact Fourier summation restricted to the (thresholded) live mode block, so
evaluation error stays at roundoff.

Positions are stored unwrapped (eta of a degree-one periodic map), which makes
the centered-difference Jacobian of volume_check smooth across the seam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DissipationMode, VorticityState, step_rk4
from .helmholtz import helmholtz_apply
from .spectral import TWO_PI, AlphaParam, SpectralField, TorusGrid2D, derivative

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

    def displacement(self) -> np.ndarray:
        return self.positions - self.reference


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
    g = f.grid
    c = f.coeffs if f.is_vector else f.coeffs[None, :, :]
    mags = np.abs(c).max(axis=0)
    thr = _EVAL_TRUNCATION * mags.max()
    jx = g.jx[mags.max(axis=1) > thr]
    jy = g.jy[mags.max(axis=0) > thr]
    ux, gx = _fold(jx)
    uy, gy = _fold(jy)
    folded = (gx @ c[:, jx][:, :, jy] @ gy.T).real        # (r, 2Ux, 2Uy)
    x = _trig_table(pts[:, 0], TWO_PI / g.Lx, ux)          # (2Ux, P)
    y = _trig_table(pts[:, 1], TWO_PI / g.Ly, uy)          # (2Uy, P)
    out = np.einsum("ip,rip->pr", x, folded @ y)
    return out if f.is_vector else out[:, 0]


# -- velocity sources -----------------------------------------------------------------


class FrozenVelocity:
    """Time-independent source: the group-exponential integrand."""

    def __init__(self, u: SpectralField):
        self.u = u

    def at(self, t: float) -> SpectralField:
        return self.u


class SnapshotVelocity:
    """Equispaced velocity snapshots with linear interpolation at stage times."""

    def __init__(self, t0: float, dt: float, fields: list[SpectralField]):
        if len(fields) < 2:
            raise ValueError("need at least two snapshots")
        self.t0 = t0
        self.dt = dt
        self.fields = fields

    def at(self, t: float) -> SpectralField:
        s = (t - self.t0) / self.dt
        i = min(max(int(math.floor(s)), 0), len(self.fields) - 2)
        w = min(max(s - i, 0.0), 1.0)
        a, b = self.fields[i], self.fields[i + 1]
        if w == 0.0:
            return a
        return SpectralField(a.grid, (1.0 - w) * a.coeffs + w * b.coeffs)


def _rk4_particles(pos_flat: np.ndarray, source, t: float, dt: float) -> np.ndarray:
    mid = source.at(t + 0.5 * dt)
    u1 = eval_field_at(source.at(t), pos_flat)
    u2 = eval_field_at(mid, pos_flat + 0.5 * dt * u1)
    u3 = eval_field_at(mid, pos_flat + 0.5 * dt * u2)
    u4 = eval_field_at(source.at(t + dt), pos_flat + dt * u3)
    return pos_flat + (dt / 6.0) * (u1 + 2.0 * u2 + 2.0 * u3 + u4)


def advect_flow_map(source, fmap: FlowMap, dt: float, T: float) -> FlowMap:
    """RK4 particle advection of the lattice through the velocity source.

    source is anything with .at(t) -> vector SpectralField (FrozenVelocity,
    SnapshotVelocity, a solver coupling); a bare SpectralField is treated as
    frozen.  Integrates round(T/dt) whole steps.
    """
    if dt <= 0.0 or T < dt:
        raise ValueError("need dt > 0 and T >= dt")
    if isinstance(source, SpectralField):
        source = FrozenVelocity(source)
    m = fmap.m
    pos = fmap.positions.reshape(m * m, 2).copy()
    t = fmap.t
    for _ in range(max(1, round(T / dt))):
        pos = _rk4_particles(pos, source, t, dt)
        t += dt
        if not np.isfinite(pos).all():
            raise FloatingPointError(f"particle positions lost finiteness at t={t:g}")
    return fmap.with_positions(pos.reshape(m, m, 2), t)


def co_advect(
    state: VorticityState,
    mode: DissipationMode,
    dt: float,
    T: float,
    fmap: FlowMap,
    on_step=None,
) -> tuple[VorticityState, FlowMap]:
    """Step the solver and the flow map together, one snapshot pair at a time.

    Particle RK4 stages use linear time interpolation between consecutive
    solver snapshots, so memory stays at two velocity fields no matter how
    long the run is.
    """
    m = fmap.m
    pos = fmap.positions.reshape(m * m, 2).copy()
    n_steps = max(1, round(T / dt))
    u_prev = state.velocity()
    t0 = state.t
    for step in range(n_steps):
        new_state = step_rk4(state, dt, mode, check_cfl=(step == 0))
        u_next = new_state.velocity()
        source = SnapshotVelocity(state.t, dt, [u_prev, u_next])
        pos = _rk4_particles(pos, source, state.t, dt)
        state, u_prev = new_state, u_next
        if on_step is not None:
            on_step(state)
    return state, fmap.with_positions(pos.reshape(m, m, 2), t0 + n_steps * dt)


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
        offset = np.zeros_like(pos)
        comp = 0 if axis == 0 else 1
        period = g.Lx if axis == 0 else g.Ly
        if sign > 0:
            idx = [slice(None)] * 3
            idx[axis] = slice(m - 1, m)
            offset[tuple(idx)] = np.array([period if comp == 0 else 0.0, period if comp == 1 else 0.0])
        else:
            idx = [slice(None)] * 3
            idx[axis] = slice(0, 1)
            offset[tuple(idx)] = -np.array([period if comp == 0 else 0.0, period if comp == 1 else 0.0])
        return rolled + offset

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


# -- exponential maps --------------------------------------------------------------------


def exponential_map(
    u0: SpectralField,
    T: float,
    kind: str,
    dt: float,
    alpha: AlphaParam | None = None,
    m: int = 32,
) -> FlowMap:
    """Endpoint flow map of the metric geodesic ('riemannian') or the frozen
    right-invariant flow ('group') with initial velocity u0.

    The riemannian kind advects particles through the evolving inviscid
    solution (requires alpha); the group kind through the time-frozen u0.
    T = 0 returns the identity lattice for both.
    """
    g = u0.grid
    fmap = make_lattice(g, m)
    if T == 0.0:
        return fmap
    if kind == "group":
        return advect_flow_map(FrozenVelocity(u0), fmap, dt, T)
    if kind != "riemannian":
        raise ValueError(f"unknown exponential-map kind {kind!r}")
    if alpha is None:
        raise ValueError("riemannian exponential map needs the metric's alpha")
    q0 = helmholtz_apply(derivative(u0, "curl"), alpha)
    mean = np.array([u0.coeffs[0, 0, 0].real, u0.coeffs[1, 0, 0].real])
    state = VorticityState(q0, alpha, 0.0, mean)
    _, out = co_advect(state, DissipationMode.inviscid(), dt, T, fmap)
    return out


def flow_map_distance(a: FlowMap, b: FlowMap) -> float:
    """sup-norm distance between particle images, modulo the periods."""
    if a.m != b.m:
        raise ValueError("flow maps use different lattices")
    d = a.positions - b.positions
    d[..., 0] -= a.grid.Lx * np.round(d[..., 0] / a.grid.Lx)
    d[..., 1] -= a.grid.Ly * np.round(d[..., 1] / a.grid.Ly)
    return float(np.abs(d).max())
