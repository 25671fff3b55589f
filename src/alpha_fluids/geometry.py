"""Differential geometry of the volume-preserving diffeomorphism group at the
identity, specialized to the flat 2D torus.

Implements the quadratic operator calU and its polarization frakU, the
covariant derivative of the alpha-weighted right-invariant metric, the
M-operator, the curvature operator, sectional curvature with the closed-form
two-stream-mode anchor, the alpha sign-flip search, and Jacobi-field
(linearized-flow) integration.

All products of band-limited fields are computed alias-free by zero-padded
multiplication; a product whose true spectral support exceeds the grid raises
SupportOverflowError instead of silently aliasing.  With enough margin every
operator here is exact to roundoff, which is what makes the closed-form
curvature anchor a sharp test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import state_from_velocity, velocity_from_q
from .helmholtz import helmholtz_inverse, leray_project
from .spectral import (
    AlphaParam,
    SpectralField,
    TorusGrid2D,
    cosine_field,
    dealias_two_thirds,
    derivative,
    inner_product_alpha,
    norm_alpha,
    to_physical,
    to_spectral,
    zero_field,
)


class SupportOverflowError(RuntimeError):
    """A product's spectral support exceeds the grid; rerun on a larger grid."""


class DegeneratePlaneError(ValueError):
    """The two directions span a numerically degenerate 2-plane."""


def stream_mode(grid: TorusGrid2D, k: tuple[int, int], amplitude: float = 1.0) -> SpectralField:
    """Velocity field of the stream function amplitude * cos(k . x)."""
    return _clean(derivative(cosine_field(grid, k, amplitude), "perp_gradient"))


# -- exact (alias-free) products --------------------------------------------------


def _clean(f: SpectralField, rel: float = 1e-13) -> SpectralField:
    """Zero sub-roundoff coefficients so spectral support can be read off exactly."""
    c = f.coeffs
    scale = np.abs(c).max()
    if scale == 0.0:
        return f
    return SpectralField(f.grid, np.where(np.abs(c) > rel * scale, c, 0.0))


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


def _exact_product(a: SpectralField, b: SpectralField) -> np.ndarray:
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

    pa, pb = pad(a.coeffs), pad(b.coeffs)
    prod = np.fft.fft2(pa * pb) / (nx2 * ny2)
    floor = 1e-13 * float(np.abs(pa).max()) * float(np.abs(pb).max())
    prod = np.where(np.abs(prod) > floor, prod, 0.0)
    return prod[np.ix_(ix, iy)]


def advect(x: SpectralField, y: SpectralField) -> SpectralField:
    """Directional derivative (x . grad) y, exact for band-limited inputs."""
    x, y = _clean(x), _clean(y)
    g = x.grid
    out = np.empty((2, g.nx, g.ny), dtype=np.complex128)
    for i in range(2):
        yi = y.component(i)
        out[i] = (
            _exact_product(x.component(0), derivative(yi, "x"))
            + _exact_product(x.component(1), derivative(yi, "y"))
        )
    return SpectralField(g, out)


def lie_bracket(x: SpectralField, y: SpectralField) -> SpectralField:
    """[x, y] = (x . grad) y - (y . grad) x; divergence-free for solenoidal x, y."""
    return advect(x, y) - advect(y, x)


# -- the metric's quadratic operator and its polarization --------------------------


def calU(u: SpectralField, alpha: AlphaParam) -> SpectralField:
    """alpha^2 (1 - alpha^2 L)^{-1} { div[Du Du^t + Du Du - Du^t Du] + grad Tr(Du Du) }.

    Du is the velocity gradient (Du)_{ij} = d_j u^i; the matrix divergence
    contracts the second index, (div T)^i = d_j T_{ij}.  The smoothing inverse
    acts mode-wise as (1 + alpha^2 |k|^2)^{-1}.  Quadratic: calU(c u) = c^2 calU(u).
    """
    u = _clean(u)
    g = u.grid
    if alpha.alpha == 0.0:
        return zero_field(g, "vector")
    d = [[derivative(u.component(i), ax) for ax in ("x", "y")] for i in range(2)]
    # T_{ij} = sum_m (d_m u^i d_m u^j + d_m u^i d_j u^m - d_i u^m d_j u^m)
    T = np.empty((2, 2, g.nx, g.ny), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            acc = np.zeros((g.nx, g.ny), dtype=np.complex128)
            for m in range(2):
                acc += _exact_product(d[i][m], d[j][m])      # Du Du^t
                acc += _exact_product(d[i][m], d[m][j])      # Du Du
                acc -= _exact_product(d[m][i], d[m][j])      # Du^t Du
            T[i, j] = acc
    kx, ky = g.kx, g.ky
    divT0 = 1j * kx * T[0, 0] + 1j * ky * T[0, 1]
    divT1 = 1j * kx * T[1, 0] + 1j * ky * T[1, 1]
    # Tr(Du Du) = sum_{im} d_m u^i d_i u^m
    tr = np.zeros((g.nx, g.ny), dtype=np.complex128)
    for i in range(2):
        for m in range(2):
            tr += _exact_product(d[i][m], d[m][i])
    vec = SpectralField(g, np.stack([divT0 + 1j * kx * tr, divT1 + 1j * ky * tr]))
    return alpha.alpha_sq * helmholtz_inverse(vec, alpha)


def frakU(x: SpectralField, y: SpectralField, alpha: AlphaParam) -> SpectralField:
    """Symmetric bilinear polarization, frakU(x,y) = (calU(x+y) - calU(x-y)) / 4."""
    x, y = _clean(x), _clean(y)
    if alpha.alpha == 0.0:
        return zero_field(x.grid, "vector")
    return 0.25 * (calU(x + y, alpha) - calU(x - y, alpha))


def covariant_derivative(x: SpectralField, y: SpectralField, alpha: AlphaParam) -> SpectralField:
    """Levi-Civita covariant derivative of the alpha metric at the identity,

        nabla~_x y = P_e[ (x . grad) y + frakU(x, y) ].

    The full symmetric form frakU (whose diagonal is calU) is required: with it
    the connection is torsion-free by construction, metric-compatible to
    roundoff, and nabla~_u u reproduces the geodesic (momentum-form) spray
    exactly.  At alpha = 0 this is the classical L^2 (Euler) connection
    P_e (x . grad) y.
    """
    x, y = _clean(x), _clean(y)
    inner = advect(x, y)
    if alpha.alpha != 0.0:
        inner = inner + frakU(x, y, alpha)
    return leray_project(inner)


def M_op(x: SpectralField, y: SpectralField, alpha: AlphaParam) -> SpectralField:
    """(1 - P_e)(x . grad) y + P_e frakU(x, y): the non-advective remainder.

    Bounded bilinearly in H^s; its divergence-free part is the correction that
    turns the flat connection into the metric one, nabla~_x y =
    P_e (x.grad) y + P_e frakU(x,y).
    """
    x, y = _clean(x), _clean(y)
    a = advect(x, y)
    out = a - leray_project(a)
    if alpha.alpha != 0.0:
        out = out + leray_project(frakU(x, y, alpha))
    return out


def curvature_op(
    x: SpectralField, y: SpectralField, z: SpectralField, alpha: AlphaParam
) -> SpectralField:
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
    cd = covariant_derivative
    return cd(x, cd(y, z, alpha), alpha) - cd(y, cd(x, z, alpha), alpha) - cd(lie_bracket(x, y), z, alpha)


def sectional_curvature(x: SpectralField, y: SpectralField, alpha: AlphaParam) -> float:
    """K(x, y) = <R~(x,y)y, x>_alpha / (|x|^2 |y|^2 - <x,y>^2); scale-invariant."""
    x, y = _clean(x), _clean(y)
    xx = inner_product_alpha(x, x, alpha)
    yy = inner_product_alpha(y, y, alpha)
    xy = inner_product_alpha(x, y, alpha)
    gram = xx * yy - xy * xy
    if gram <= 1e-12 * xx * yy:
        raise DegeneratePlaneError("directions are numerically collinear")
    num = inner_product_alpha(curvature_op(x, y, y, alpha), x, alpha)
    return num / gram


def arnold_closed_form(k: tuple[int, int], l: tuple[int, int], S: float) -> float:
    """Closed-form L^2 sectional curvature for stream modes cos(k.x), cos(l.x).

    K = -(|k|^2 + |l|^2) sin^2(beta) sin^2(gamma) / (4 S), with beta the angle
    between k and l and gamma the angle between k+l and k-l.  Undefined for
    k = +/- l (gamma degenerates).
    """
    k = np.asarray(k, dtype=float)
    l = np.asarray(l, dtype=float)
    if np.all(k == l) or np.all(k == -l):
        raise ValueError("k = +/- l: the angle between k+l and k-l is undefined")
    if not k.any() or not l.any():
        raise ValueError("wavevectors must be nonzero")

    def sin2(a, b):
        cross = a[0] * b[1] - a[1] * b[0]
        return cross * cross / (a @ a) / (b @ b)

    return -float((k @ k + l @ l) * sin2(k, l) * sin2(k + l, k - l) / (4.0 * S))


def grid_for_modes(*wavevectors, margin: int = 4) -> TorusGrid2D:
    """Smallest comfortable 2pi-torus grid for curvature work on the given modes.

    Nested covariant-derivative compositions with the quadratic smoothing
    operator grow spectral support by a factor of about margin (4 covers
    R~(x,y)z at alpha > 0), so the grid must hold margin * max|k| + slack per
    axis.
    """
    kmax = max(int(np.abs(np.asarray(w)).max()) for w in wavevectors)
    need = 2 * (margin * kmax + 2)
    n = 8
    while n < need:
        n *= 2
    return TorusGrid2D(n, n)


def find_alpha0(
    k: tuple[int, int],
    eps: tuple[int, int],
    tol: float = 1e-4,
    grid: TorusGrid2D | None = None,
    n_scan: int = 20,
) -> float | None:
    """Bisection for the alpha at which K(xi, psi) changes sign on (0, 1].

    Stream modes xi = cos(k.x), psi = cos(l.x) with l = k + eps.  Returns the
    crossing alpha0 to absolute tolerance tol, or None when no sign flip is
    found in (0, 1] (a reported outcome, not an error).
    """
    l = (k[0] + eps[0], k[1] + eps[1])
    g = grid if grid is not None else grid_for_modes(k, l)
    xi = stream_mode(g, k)
    psi = stream_mode(g, l)

    def kappa(a: float) -> float:
        return sectional_curvature(xi, psi, AlphaParam(a))

    alphas = np.linspace(0.0, 1.0, n_scan + 1)
    vals = [kappa(a) for a in alphas]
    lo = hi = None
    for i in range(n_scan):
        if vals[i] < 0.0 <= vals[i + 1]:
            lo, hi = alphas[i], alphas[i + 1]
            break
    if lo is None:
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if kappa(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- Jacobi fields via the linearized flow ------------------------------------------


@dataclass
class JacobiTrajectory:
    times: np.ndarray
    y_norms: np.ndarray        # ||Y(t)||_alpha
    du_norms: np.ndarray       # ||delta u(t)||_alpha
    delta_u_final: SpectralField
    y_final: SpectralField
    u_final: SpectralField


def _tangent_rhs(q, dq, w, alpha, mean_u):
    """Time derivatives of (q, delta q, w) for the coupled linearized system."""
    u = velocity_from_q(q, alpha, mean_u)
    du = velocity_from_q(dq, alpha)
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


def jacobi_evolve(
    u0: SpectralField,
    y0: SpectralField,
    ydot0: SpectralField,
    T: float,
    dt: float,
    alpha: AlphaParam,
) -> JacobiTrajectory:
    """Integrate the Jacobi equation along the geodesic with initial velocity u0.

    Realized as the linearization of the inviscid flow: the nonlinear potential
    vorticity q, the linearized perturbation delta q, and the Jacobi field
    Y = w (Eulerian representative of the geodesic variation) are co-integrated
    with RK4.  Initial data: Y(0) = y0 and covariant velocity Ydot(0) = ydot0,
    converted to the Eulerian velocity perturbation through

        delta u(0) = ydot0 - (y0 . grad) u0 + (u0 . grad) y0 - nabla~_{u0} y0.

    q(0) and delta q(0) are the q of state_from_velocity(u0, alpha) and of
    state_from_velocity(delta u(0), alpha): 2/3-dealiased, like every solver
    state.

    A pure initial-velocity perturbation is y0 = 0, ydot0 = perturbation, in
    which case delta u(t) is directly comparable with finite-difference
    geodesic deviation, (solution(u0 + eps*ydot0) - solution(u0)) / eps.
    """
    state = state_from_velocity(u0, alpha)
    q, mean_u = state.q, state.mean_velocity
    w = dealias_two_thirds(y0)
    du0 = ydot0 - advect(y0, u0) + advect(u0, y0) - covariant_derivative(u0, y0, alpha)
    dq = state_from_velocity(du0, alpha).q

    n_steps = max(1, round(T / dt))
    times = [0.0]
    y_norms = [norm_alpha(w, alpha)]
    du_norms = [norm_alpha(velocity_from_q(dq, alpha), alpha)]
    for step in range(n_steps):
        t = step * dt
        k1 = _tangent_rhs(q, dq, w, alpha, mean_u)
        s2 = (q + 0.5 * dt * k1[0], dq + 0.5 * dt * k1[1], w + 0.5 * dt * k1[2])
        k2 = _tangent_rhs(*s2, alpha, mean_u)
        s3 = (q + 0.5 * dt * k2[0], dq + 0.5 * dt * k2[1], w + 0.5 * dt * k2[2])
        k3 = _tangent_rhs(*s3, alpha, mean_u)
        s4 = (q + dt * k3[0], dq + dt * k3[1], w + dt * k3[2])
        k4 = _tangent_rhs(*s4, alpha, mean_u)
        q = q + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        dq = dq + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        w = w + (dt / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        if not np.isfinite(q.coeffs).all():
            raise FloatingPointError(f"jacobi integration lost finiteness at t={t + dt:g}")
        times.append((step + 1) * dt)
        y_norms.append(norm_alpha(w, alpha))
        du_norms.append(norm_alpha(velocity_from_q(dq, alpha), alpha))

    return JacobiTrajectory(
        times=np.asarray(times),
        y_norms=np.asarray(y_norms),
        du_norms=np.asarray(du_norms),
        delta_u_final=velocity_from_q(dq, alpha),
        y_final=w,
        u_final=velocity_from_q(q, alpha, mean_u),
    )
