"""Flow-map integration, volume/transport verification, and exponential maps.

Particles realizing eta(t, x) on a reference lattice are advected by
integrate.rk4 through a time-indexed velocity source.  Nonuniform velocity
evaluation is exact Fourier summation restricted to the (thresholded) live
mode block, so evaluation error stays at roundoff.

Positions are stored unwrapped (eta of a degree-one periodic map), which makes
the centered-difference Jacobian of volume_check smooth across the seam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DissipationMode, VorticityState, state_from_velocity, step_rk4
from .integrate import march, rk4
from .spectral import TWO_PI, AlphaParam, SpectralField, TorusGrid2D, full_coeffs

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
    folds = {t + 0.5 * dt: _folded(source.at(t + 0.5 * dt))}  # one fold per stage time; stages 2 and 3 share this one

    def velocity(ts: float, pos: np.ndarray) -> np.ndarray:
        if ts not in folds:
            folds[ts] = _folded(source.at(ts))
        return folds[ts](pos)

    return rk4(velocity, t, pos_flat, dt)


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

    def step(c, h):
        pos, t = c
        pos, t = _rk4_particles(pos, source, t, h), t + h
        if not np.isfinite(pos).all():
            raise FloatingPointError(f"particle positions lost finiteness at t={t:g}")
        return pos, t

    m = fmap.m
    pos, t = march(step, (fmap.positions.reshape(m * m, 2), fmap.t), dt, T)
    return fmap.with_positions(pos.reshape(m, m, 2), t)


def co_advect(
    state: VorticityState, mode: DissipationMode, dt: float, T: float, fmap: FlowMap
) -> tuple[VorticityState, FlowMap]:
    """Step the solver and the flow map together, one snapshot pair at a time.

    Particle RK4 stages use linear time interpolation between consecutive
    solver snapshots, so memory stays at two velocity fields no matter how
    long the run is.
    """

    def step(c, h):
        s, pos, n = c
        new = step_rk4(s, h, mode)
        source = SnapshotVelocity(s.t, h, [s.velocity(), new.velocity()])
        return new, _rk4_particles(pos, source, s.t, h), n + 1

    m, t0 = fmap.m, state.t
    state, pos, n = march(step, (state, fmap.positions.reshape(m * m, 2), 0), dt, T)
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
    solution (requires alpha) from state_from_velocity(u0, alpha), whose q is
    2/3-dealiased: for u0 inside the 2/3 band that changes nothing.  The group
    kind advects through the time-frozen u0.  T = 0 returns the identity
    lattice for both.
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
    _, out = co_advect(state_from_velocity(u0, alpha), DissipationMode.inviscid(), dt, T, fmap)
    return out


def flow_map_distance(a: FlowMap, b: FlowMap) -> float:
    """sup-norm distance between particle images, modulo the periods."""
    if a.m != b.m:
        raise ValueError("flow maps use different lattices")
    d = a.positions - b.positions
    d[..., 0] -= a.grid.Lx * np.round(d[..., 0] / a.grid.Lx)
    d[..., 1] -= a.grid.Ly * np.round(d[..., 1] / a.grid.Ly)
    return float(np.abs(d).max())
