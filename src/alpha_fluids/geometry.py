"""Differential geometry of the volume-preserving diffeomorphism group at the
identity, specialized to the flat 2D torus.

Implements the quadratic operator calU and its polarization frakU, the
covariant derivative of the alpha-weighted right-invariant metric, the
curvature operator, sectional curvature with the closed-form two-stream-mode
anchor, the alpha sign-flip search, and Jacobi-field (linearized-flow)
integration.

All products of band-limited fields are computed alias-free on the grid
itself with real transforms, one transform pair per operator for all of its
factors.  The spectral support of every factor pair is checked first: supports
summing to at most n/2 - 1 on an axis of n points cannot alias there, and a
product whose true support exceeds that raises SupportOverflowError instead of
silently aliasing.  With enough margin every operator here is exact to
roundoff, which is what makes the closed-form curvature anchor a sharp test.
A NaN or inf coefficient in an operand raises FloatingPointError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import _invert, state_from_velocity, velocity_from_q
from .helmholtz import helmholtz_inverse, leray_project
from .integrate import march, rk4
from .spectral import (
    AlphaParam,
    FieldStack,
    SpectralField,
    TorusGrid2D,
    cosine_field,
    dealias_two_thirds,
    derivative,
    gradient_into,
    inner_product_alpha,
    norm_alpha,
    to_physical,
    to_spectral_padded,
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


def _finite_scale(mags: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
    """max of mags over axis; a NaN or inf maximum raises FloatingPointError."""
    scale = mags.max(axis=axis, keepdims=keepdims)
    if not np.isfinite(scale).all():
        raise FloatingPointError("non-finite coefficients in a geometry operand")
    return scale


def _clean(f: SpectralField, rel: float = 1e-13) -> SpectralField:
    """Zero sub-roundoff coefficients so spectral support can be read off exactly."""
    c = f.coeffs
    scale = _finite_scale(np.abs(c))
    if scale == 0.0:
        return f
    return SpectralField(f.grid, np.where(np.abs(c) > rel * scale, c, 0.0))


class _Form(NamedTuple):
    """Bilinear forms out[o] = sum of c * f_a * f_b over terms (o, a, b, c), by distinct pair
    a <= b: weights[o, pair] sums the pair's c, counts[o, pair] its |c| (the floor's weights)."""

    pairs: np.ndarray
    weights: np.ndarray
    counts: np.ndarray


def _form(n_out: int, terms) -> _Form:
    pairs = sorted({(min(a, b), max(a, b)) for _, a, b, _ in terms})
    col = {p: i for i, p in enumerate(pairs)}
    weights, counts = np.zeros((2, n_out, len(pairs)))
    for o, a, b, c in terms:
        weights[o, col[min(a, b), max(a, b)]] += c
        counts[o, col[min(a, b), max(a, b)]] += abs(c)
    return _Form(np.array(pairs), weights, counts)


def _exact_product(factors: FieldStack, form: _Form) -> np.ndarray:
    """Coefficients (n_out, nx, ny/2 + 1) of the bilinear forms of stacked scalar factors, alias-free.

    Each factor is cleaned on its own and its spectral support tracked
    (support growth under every operation in this module keeps zeros exact);
    if the supports of any pair the forms multiply sum past n/2 - 1 on an
    axis of n points, that product would be aliased, so this raises instead.
    Within capacity no product mode wraps onto a live one on the grid itself,
    and no factor of a pair has a live Nyquist mode, so the factors go to the
    (nx, ny) grid in one real inverse transform, the forms are contracted
    pointwise there, and the outputs come back in one real forward transform.
    Each output's coefficients below the FFT roundoff floor, 1e-13 * sum over
    its terms of max|f_a| * max|f_b| (sampled maxima), are zeroed to keep
    supports sharp.  Non-finite factors raise FloatingPointError.
    """
    g = factors.grid
    c = factors.coeffs
    mags = np.abs(c)
    live = mags > 1e-13 * _finite_scale(mags, axis=(1, 2), keepdims=True)
    c = np.where(live, c, 0.0)
    sx = np.where(live.any(axis=2), np.abs(g.jx), 0).max(axis=1)
    sy = np.where(live.any(axis=1), np.abs(g.jy), 0).max(axis=1)
    a, b = form.pairs.T
    over = (sx[a] + sx[b] > g.nx // 2 - 1) | (sy[a] + sy[b] > g.ny // 2 - 1)
    if over.any():
        t = int(np.argmax(over))
        raise SupportOverflowError(
            f"product support ({sx[a[t]] + sx[b[t]]},{sy[a[t]] + sy[b[t]]}) exceeds the "
            f"{g.nx}x{g.ny} grid; rerun on a larger grid"
        )
    p = to_physical(FieldStack(g, c))
    out = np.tensordot(form.weights, p[a] * p[b], axes=1)
    peak = np.abs(p).max(axis=(1, 2))
    floor = 1e-13 * (form.counts @ (peak[a] * peak[b]))
    prod = to_spectral_padded(g, out)
    return np.where(np.abs(prod) > floor[:, None, None], prod, 0.0)


def _jacobian(u: SpectralField) -> np.ndarray:
    """Stacked velocity gradient: entry 2i+m holds the coefficients of d_m u^i."""
    d = np.stack([derivative(u, "x").coeffs, derivative(u, "y").coeffs], axis=1)
    return d.reshape((4,) + u.grid.coeff_shape)


# advect: factors (x^0, x^1, d_x y^0, d_y y^0, d_x y^1, d_y y^1); out^i = x^m d_m y^i
_ADVECT = _form(2, [(i, m, 2 + 2 * i + m, 1.0) for i in range(2) for m in range(2)])


def _calU_terms(shift: int) -> list:
    """Terms of S_ij = T_ij + delta_ij Tr(Du Du) over factors Du (entry 2i+m + shift)."""
    D = lambda i, m: shift + 2 * i + m
    terms = []
    for i in range(2):
        for j in range(2):
            o = shift + 2 * i + j
            # T_{ij} = sum_m (d_m u^i d_m u^j + d_m u^i d_j u^m - d_i u^m d_j u^m)
            for m in range(2):
                terms += [(o, D(i, m), D(j, m), 1.0), (o, D(i, m), D(m, j), 1.0), (o, D(m, i), D(m, j), -1.0)]
            if i == j:  # Tr(Du Du) = sum_{nm} d_m u^n d_n u^m
                terms += [(o, D(n, m), D(m, n), 1.0) for n in range(2) for m in range(2)]
    return terms


_CALU = _form(4, _calU_terms(0))
_CALU_PAIR = _form(8, _calU_terms(0) + _calU_terms(4))


def _advect(x: SpectralField, y: SpectralField) -> SpectralField:
    g = x.grid
    out = _exact_product(FieldStack(g, np.concatenate([x.coeffs, _jacobian(y)])), _ADVECT)
    return SpectralField._adopt(g, out)


def advect(x: SpectralField, y: SpectralField) -> SpectralField:
    """Directional derivative (x . grad) y, exact for band-limited inputs."""
    return _advect(_clean(x), _clean(y))


def lie_bracket(x: SpectralField, y: SpectralField) -> SpectralField:
    """[x, y] = (x . grad) y - (y . grad) x; divergence-free for solenoidal x, y."""
    x, y = _clean(x), _clean(y)
    return _advect(x, y) - _advect(y, x)


# -- the metric's quadratic operator and its polarization --------------------------


def _smoothed_divergence(g: TorusGrid2D, S: np.ndarray, alpha: AlphaParam) -> SpectralField:
    """alpha^2 (1 - alpha^2 L)^{-1} div S for the tensor S stacked as S[2i+j] = S_ij."""
    vec = g.ikx * S[0::2] + g.iky * S[1::2]
    return alpha.alpha_sq * helmholtz_inverse(SpectralField._adopt(g, vec), alpha)


def calU(u: SpectralField, alpha: AlphaParam) -> SpectralField:
    """alpha^2 (1 - alpha^2 L)^{-1} { div[Du Du^t + Du Du - Du^t Du] + grad Tr(Du Du) }.

    Du is the velocity gradient (Du)_{ij} = d_j u^i; the matrix divergence
    contracts the second index, (div T)^i = d_j T_{ij}, and the gradient joins
    it as div of Tr(Du Du) times the identity.  The smoothing inverse acts
    mode-wise as (1 + alpha^2 |k|^2)^{-1}.  Quadratic: calU(c u) = c^2 calU(u).
    """
    g = u.grid
    if alpha.alpha == 0.0:
        return zero_field(g, "vector")
    S = _exact_product(FieldStack(g, _jacobian(_clean(u))), _CALU)
    return _smoothed_divergence(g, S, alpha)


def _frakU(x: SpectralField, y: SpectralField, alpha: AlphaParam) -> SpectralField:
    g = x.grid
    factors = np.concatenate([_jacobian(_clean(x + y)), _jacobian(_clean(x - y))])
    S = _exact_product(FieldStack(g, factors), _CALU_PAIR)
    return 0.25 * (_smoothed_divergence(g, S[:4], alpha) - _smoothed_divergence(g, S[4:], alpha))


def frakU(x: SpectralField, y: SpectralField, alpha: AlphaParam) -> SpectralField:
    """Symmetric bilinear polarization, frakU(x,y) = (calU(x+y) - calU(x-y)) / 4.

    Both quadratic terms share one transform pair.
    """
    if alpha.alpha == 0.0:
        return zero_field(x.grid, "vector")
    return _frakU(_clean(x), _clean(y), alpha)


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
    inner = _advect(x, y)
    if alpha.alpha != 0.0:
        inner = inner + _frakU(x, y, alpha)
    return leray_project(inner)


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
    known: dict | None = None,
) -> float | None:
    """Bisection for the alpha at which K(xi, psi) changes sign on (0, 1].

    Stream modes xi = cos(k.x), psi = cos(l.x) with l = k + eps.  Returns the
    crossing alpha0 to absolute tolerance tol, or None when no sign flip is
    found in (0, 1] (a reported outcome, not an error).  known maps alphas to
    K values the caller already computed for this plane on this grid; K is
    evaluated only at the alphas it does not hold.
    """
    l = (k[0] + eps[0], k[1] + eps[1])
    g = grid if grid is not None else grid_for_modes(k, l)
    xi = stream_mode(g, k)
    psi = stream_mode(g, l)
    known = known or {}

    def kappa(a: float) -> float:
        if a in known:
            return known[a]
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


def _tangent_rhs(g: TorusGrid2D, y: np.ndarray, alpha, mean_u) -> np.ndarray:
    """Time derivatives of the stack y = (q, delta q, w^x, w^y) for the coupled
    linearized system, as a stack of the same shape (4, nx, ny/2 + 1).

    One inverse transform takes u, delta u, grad q, grad delta q, grad u^i,
    grad w^i and w to the grid; one forward transform brings back
    -u.grad q, -(u.grad dq + du.grad q) and w_dot - delta u = (w.grad) u - (u.grad) w.
    """
    s = np.empty((18,) + g.coeff_shape, dtype=np.complex128)
    _invert(s[0:2], y[0], g, alpha, mean_u)
    _invert(s[2:4], y[1], g, alpha, (0.0, 0.0))
    gradient_into(s[4:6], y[0], g)
    gradient_into(s[6:8], y[1], g)
    gradient_into(s[8:12].reshape((2, 2) + g.coeff_shape), s[0:2], g)  # d_m u^i at 8 + 2m + i
    gradient_into(s[12:16].reshape((2, 2) + g.coeff_shape), y[2:], g)
    s[16:18] = y[2:]
    p = to_physical(FieldStack(g, s))
    up, dup, gq, gdq, wp = p[0:2], p[2:4], p[4:6], p[6:8], p[16:18]
    gu, gw = p[8:12].reshape(2, 2, g.nx, g.ny), p[12:16].reshape(2, 2, g.nx, g.ny)
    out = np.empty((4,) + g.shape)
    out[0] = -(up[0] * gq[0] + up[1] * gq[1])
    out[1] = -((up[0] * gdq[0] + up[1] * gdq[1]) + (dup[0] * gq[0] + dup[1] * gq[1]))
    for i in range(2):
        out[2 + i] = wp[0] * gu[0][i] + wp[1] * gu[1][i] - (up[0] * gw[0][i] + up[1] * gw[1][i])
    c = to_spectral_padded(g, out)
    np.copyto(c, 0.0, where=g.drop_two_thirds)
    c[2:] += s[2:4]
    return c


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
    with integrate.rk4.  Initial data: Y(0) = y0 and covariant velocity
    Ydot(0) = ydot0, converted to the Eulerian velocity perturbation through

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

    g = q.grid
    y = np.concatenate((q.coeffs[None], dq.coeffs[None], w.coeffs))  # (q, delta q, w^x, w^y)
    times = [0.0]
    y_norms = [norm_alpha(w, alpha)]
    du_norms = [norm_alpha(velocity_from_q(dq, alpha), alpha)]

    def record(n: int, c: np.ndarray) -> None:
        if not np.isfinite(c[0]).all():
            raise FloatingPointError(f"jacobi integration lost finiteness at t={n * dt:g}")
        times.append(n * dt)
        y_norms.append(norm_alpha(SpectralField._adopt(g, c[2:]), alpha))
        du_norms.append(norm_alpha(velocity_from_q(SpectralField._adopt(g, c[1]), alpha), alpha))

    y = march(lambda c, h: rk4(lambda _, x: _tangent_rhs(g, x, alpha, mean_u), 0.0, c, h), y, dt, T, record)
    q, dq, w = SpectralField._adopt(g, y[0]), SpectralField._adopt(g, y[1]), SpectralField._adopt(g, y[2:])
    return JacobiTrajectory(
        times=np.asarray(times),
        y_norms=np.asarray(y_norms),
        du_norms=np.asarray(du_norms),
        delta_u_final=velocity_from_q(dq, alpha),
        y_final=w,
        u_final=velocity_from_q(q, alpha, mean_u),
    )
