"""Differential geometry of the volume-preserving diffeomorphism group at the
identity, specialized to the flat 2D torus: the Levi-Civita connection and the
sectional curvature of the alpha metric from the products of one plane, the
closed-form two-stream-mode anchor, the alpha sign-flip search, Jacobi-field
(linearized-flow) integration, and the quadratic operator calU of the metric.

Sectional curvature is Arnold's formula (sectional_curvature),
    K (|x|^2 |y|^2 - <x,y>^2) = <d,d> + 2<h,s> - 3<h,h> - <B(x,x), B(y,y)>,
2d = B(x,y) + B(y,x), 2s = B(x,y) - B(y,x), 2h = [x,y], <B(c,a), b>_alpha = <[a,b], c>_alpha,
so B(c,a) = -X_ac / A_k, X_ac = P[N(a,c) - alpha^2 N(a, Lap c)], A_k = 1 + alpha^2 |k|^2: the
products of a plane (N and [x,y]) serve every alpha.  As k.X = 0, each pairing with a B is one
sum over modes with one 1/A_k or none, and <h,h>, <x,x>, <y,y>, <x,y> are each S (g0 + alpha^2
g1), so K gram = S sum_k (c0 + alpha^2 c1 + alpha^4 c2) / A_k + S (e0 + alpha^2 e1) (CurvaturePlane).

All products of band-limited fields are computed alias-free on the grid itself,
one real transform pair per operator (_exact_product).  A product whose support
would exceed the grid raises SupportOverflowError instead of aliasing, and a NaN
or inf operand raises FloatingPointError.  Every operator is exact to roundoff,
which is what makes the closed-form curvature anchor a sharp test.
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
    norm_alpha,
    rfft_half,
    to_physical,
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


def _clean(f: SpectralField) -> SpectralField:
    """Zero sub-roundoff coefficients so spectral support can be read off exactly."""
    mags = np.abs(f.coeffs)
    return SpectralField(f.grid, np.where(mags > 1e-13 * _finite_scale(mags), f.coeffs, 0.0))


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
    prod = rfft_half(g, out)
    return np.where(np.abs(prod) > floor[:, None, None], prod, 0.0)


def _jacobian(u: SpectralField) -> np.ndarray:
    """Stacked velocity gradient: entry 2i+m holds the coefficients of d_m u^i."""
    d = np.stack([derivative(u, "x").coeffs, derivative(u, "y").coeffs], axis=1)
    return d.reshape((4,) + u.grid.coeff_shape)


# -- the metric's quadratic operator ------------------------------------------------


def _calU_terms() -> list:
    """Terms of S_ij = T_ij + delta_ij Tr(Du Du) over the factors Du (entry 2i+m holds d_m u^i),
    T_ij = sum_m (d_m u^i d_m u^j + d_m u^i d_j u^m - d_i u^m d_j u^m), Tr(Du Du) = d_m u^n d_n u^m."""
    D = lambda i, m: 2 * i + m
    terms = [(D(i, i), D(n, m), D(m, n), 1.0) for i, n, m in np.ndindex(2, 2, 2)]
    for i, j, m in np.ndindex(2, 2, 2):
        terms += [(D(i, j), D(i, m), D(j, m), 1.0), (D(i, j), D(i, m), D(m, j), 1.0), (D(i, j), D(m, i), D(m, j), -1.0)]
    return terms


_CALU = _form(4, _calU_terms())


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
    return _smoothed_divergence(g, _exact_product(FieldStack(g, _jacobian(_clean(u))), _CALU), alpha)


def _plane_form(n: int) -> _Form:
    """N(a, m)^i = a^j d_j m^i + d_i a^j m^j at output 2 (n a + m) + i, for a in (x, y) and m
    in the first n of (x, y, Lap x, Lap y), then [x, y]^i = x^j d_j y^i - y^j d_j x^i; field f
    of that list is stacked from 6 f as (f^0, f^1, d_0 f^0, d_1 f^0, d_0 f^1, d_1 f^1)."""
    u = lambda f, i: 6 * f + i
    d = lambda f, i, j: 6 * f + 2 + 2 * i + j  # d_j f^i
    terms = []
    for a, m, i, j in np.ndindex(2, n, 2, 2):
        o = 2 * (n * a + m) + i
        terms += [(o, u(a, j), d(m, i, j), 1.0), (o, d(a, j, i), u(m, j), 1.0)]
    for f, i, j in np.ndindex(2, 2, 2):
        terms.append((4 * n + i, u(f, j), d(1 - f, i, j), 1.0 - 2.0 * f))
    return _form(4 * n + 2, terms)


_PLANE = {n: _plane_form(n) for n in (2, 4)}


class CurvaturePlane:
    """The alpha-free products of the plane of x and y, from which K(alpha) is one weighted sum over
    modes: one _exact_product call makes N(a, c), N(a, Lap c) and [x, y] (24 factors, 18 outputs).
    Each P N drops coefficients below 1e-13 of the unprojected peak, the projection's roundoff, so
    on planes of parallel wavevectors (every N a gradient, [x, y] = 0) K is exactly 0.  With
    X_ac = P N(a,c) - alpha^2 P N(a, Lap c) = -A_k B(c,a), A_k = 1 + alpha^2 |k|^2, k.X = 0 gives
    <B, B'>_alpha = S sum_k Re[X.conj(X')] / A_k and <h, B>_alpha = -S sum_k Re[h.conj(X)], so K gram
    = S sum_k (c0 + alpha^2 c1 + alpha^4 c2) / A_k + S (e0 + alpha^2 e1), over the stored half with
    weight 1 on the columns jy = 0, ny/2 and 2 elsewhere; _EulerPlane makes the alpha^0 terms alone.
    The same products give the Levi-Civita connection nabla_x y = h + A^{-1} (X_xy + X_yx) / 2."""

    _fields = 4  # of x, y, Lap x, Lap y

    def __init__(self, x: SpectralField, y: SpectralField):
        self.x, self.y = _clean(x), _clean(y)
        g = self.x.grid
        vecs = [self.x, self.y] + [derivative(v, "laplacian") for v in (self.x, self.y)[: self._fields - 2]]
        factors = np.concatenate([np.concatenate([v.coeffs, _jacobian(v)]) for v in vecs])
        out = _exact_product(FieldStack(g, factors), _PLANE[self._fields])
        n = out[:-2].reshape((2, self._fields, 2) + g.coeff_shape)
        self.pn = np.empty_like(n)  # pn[a, m] = P N(a, m)
        for a, m in np.ndindex(n.shape[:2]):
            p = leray_project(SpectralField._adopt(g, n[a, m])).coeffs
            self.pn[a, m] = np.where(np.abs(p) > 1e-13 * np.abs(n[a, m]).max(), p, 0.0)
        self.h = SpectralField._adopt(g, 0.5 * out[-2:])
        w = np.where((g.jy == 0) | (g.jy == -(g.ny // 2)), 1.0, 2.0)  # a stored mode's count in the full sum
        dot = lambda u, v: w * (u * np.conj(v)).real.sum(axis=-3)  # weighted Re[u.conj(v)] per mode
        X = np.stack([self.pn[:, :2], -self.pn[:, 2:]][: self._fields // 2])  # X_ac = X[0, a, c] + alpha^2 X[1, a, c]
        d, s = 0.5 * (X[:, 1, 0] + X[:, 0, 1]), 0.5 * (X[:, 1, 0] - X[:, 0, 1])  # A_k times -d, -s
        cij = dot(d[:, None], d) - dot(X[:, None, 0, 0], X[:, 1, 1])  # the alpha^(2i + 2j) terms
        c = np.array([cij[0, 0]] if len(X) == 1 else [cij[0, 0], cij[0, 1] + cij[1, 0], cij[1, 1]])
        self._c, self._k_sq = c.reshape(len(c), -1), g.k_sq.ravel()
        x, y, h = self.x.coeffs, self.y.coeffs, self.h.coeffs
        uv = dot(np.stack([x, y, x, h]), np.stack([x, y, y, h]))  # <x,x>, <y,y>, <x,y>, <h,h> per mode
        gm = np.array([uv.sum(axis=(1, 2)), (g.k_sq * uv).sum(axis=(1, 2))])  # g0, g1 (k.u = 0: no Def term)
        self._gram, self._e = gm[:, :3], -2.0 * dot(h, s).sum(axis=(1, 2)) - 3.0 * gm[: len(X), 3]
        self._K = {}  # alpha -> K

    def K(self, alpha: AlphaParam) -> float:
        """Sectional curvature of the plane in the alpha metric, evaluated once per alpha."""
        if alpha.alpha not in self._K:
            self._K[alpha.alpha] = self._arnold(alpha)
        return self._K[alpha.alpha]

    def _arnold(self, alpha: AlphaParam) -> float:
        a2 = alpha.alpha_sq
        if a2 != 0.0 and len(self._e) == 1:
            raise ValueError(f"this plane holds alpha = 0 only, not alpha = {alpha.alpha}")
        with np.errstate(over="ignore", invalid="ignore"):  # a huge alpha overflows: raise, do not warn
            xx, yy, xy = self._gram[0] + a2 * self._gram[1]
            gram = xx * yy - xy * xy
            powers = a2 ** np.arange(len(self._c))  # 1, alpha^2, alpha^4
            top = (powers @ self._c / (1.0 + a2 * self._k_sq)).sum() + self._e @ powers[: len(self._e)]
            bottom = self.x.grid.area * gram
        if not (np.isfinite(top) and np.isfinite(bottom)):
            raise FloatingPointError(f"the curvature sums overflow float64 at alpha = {alpha.alpha!r}")
        if gram <= 1e-12 * xx * yy:
            raise DegeneratePlaneError("directions are numerically collinear")
        return float(top / bottom)

    def alpha0(self) -> float | None:
        """The alpha in (0, 1] where K changes sign (21 scan alphas, bisection to 1e-4), or None."""
        vals = [(a, self.K(AlphaParam(a))) for a in np.linspace(0.0, 1.0, 21)]
        flips = [(lo, hi) for (lo, k_lo), (hi, k_hi) in zip(vals, vals[1:]) if k_lo < 0.0 <= k_hi]
        if not flips:
            return None
        lo, hi = flips[0]
        while hi - lo > 1e-4:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if self.K(AlphaParam(mid)) < 0.0 else (lo, mid)
        return 0.5 * (lo + hi)

    def connection(self, alpha: AlphaParam) -> SpectralField:
        """nabla_x y = [x, y] / 2 - (B(x, y) + B(y, x)) / 2 = h + _sym(alpha), for divergence-free x, y."""
        return self.h + self._sym(alpha)

    def _sym(self, alpha: AlphaParam) -> SpectralField:
        """The connection's symmetric part, -(B(x, y) + B(y, x)) / 2 = A^{-1} (X_xy + X_yx) / 2."""
        pn, a2 = self.pn, alpha.alpha_sq
        if a2 != 0.0 and self._fields == 2:
            raise ValueError(f"this plane holds alpha = 0 only, not alpha = {alpha.alpha}")
        X = pn[0, 1] + pn[1, 0] if self._fields == 2 else (pn[0, 1] - a2 * pn[0, 3]) + (pn[1, 0] - a2 * pn[1, 2])
        return helmholtz_inverse(SpectralField._adopt(self.x.grid, 0.5 * X), alpha)


class _EulerPlane(CurvaturePlane):
    _fields = 2  # K at alpha = 0 only: without the Lap factors, 12 factors into 10 outputs


def sectional_curvature(x: SpectralField, y: SpectralField, alpha: AlphaParam) -> float:
    """K(x, y) in the alpha metric by Arnold's formula; scale-invariant.

        K (|x|^2 |y|^2 - <x,y>^2) = <d,d> + 2<h,s> - 3<h,h> - <B(x,x), B(y,y)>,
        2d = B(x,y) + B(y,x),   2s = B(x,y) - B(y,x),   2h = [x,y] = (x . grad) y - (y . grad) x,

    every pairing in the alpha metric, <B(c,a), b>_alpha = <[a,b], c>_alpha for divergence-free
    b.  By parts, with <u,v>_alpha = <u, A v>_L2 and A = 1 - alpha^2 Lap, B(c,a) = -A^{-1} X_ac,
    X_ac = P[N(a,c) - alpha^2 N(a, Lap c)], N(a,m) = (a . grad) m + (grad a)^T m.  Alpha enters
    through A alone (A_k = 1 + alpha^2 |k|^2) and k.X = 0, so from N(a,c), N(a, Lap c), [x,y]
    (CurvaturePlane) K gram = S sum_k (c0 + alpha^2 c1 + alpha^4 c2) / A_k + S (e0 + alpha^2 e1).
    The tests check K against <R~(x,y)y, x>_alpha / gram of nested covariant derivatives.
    """
    return (_EulerPlane if alpha.alpha == 0.0 else CurvaturePlane)(x, y).K(alpha)


def covariant_derivative(x: SpectralField, y: SpectralField, alpha: AlphaParam) -> SpectralField:
    """Levi-Civita connection of the alpha metric at the identity (CurvaturePlane.connection),
    nabla~_x y = [x, y] / 2 - (B(x, y) + B(y, x)) / 2, at alpha = 0 the L^2 connection P (x . grad) y.
    x and y must be divergence-free: [x, y] is not projected."""
    return (_EulerPlane if alpha.alpha == 0.0 else CurvaturePlane)(x, y).connection(alpha)


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


def grid_for_modes(*wavevectors) -> TorusGrid2D:
    """Smallest comfortable 2pi-torus grid for curvature work on the given modes.

    Arnold's formula multiplies fields of the plane and their derivatives, never
    a product again, so supports at most double and n >= 4 max|k| + 4 suffices
    (margin 2; the nested R~(x,y)z of the test oracle needs margin 4).
    """
    kmax = max(int(np.abs(np.asarray(w)).max()) for w in wavevectors)
    n = max(8, 1 << (4 * kmax + 3).bit_length())  # the smallest power of 2 >= 4 kmax + 4
    return TorusGrid2D(n, n)


def find_alpha0(k: tuple[int, int], eps: tuple[int, int]) -> float | None:
    """CurvaturePlane.alpha0 of the stream modes cos(k.x), cos(l.x) with l = k + eps."""
    l = (k[0] + eps[0], k[1] + eps[1])
    g = grid_for_modes(k, l)
    return CurvaturePlane(stream_mode(g, k), stream_mode(g, l)).alpha0()


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
    c = rfft_half(g, out)
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

        delta u(0) = ydot0 + [u0, y0] - nabla~_{u0} y0 = ydot0 + h - A^{-1} (X_uy + X_yu) / 2.

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
    plane = (_EulerPlane if alpha.alpha == 0.0 else CurvaturePlane)(u0, y0)
    dq = state_from_velocity(ydot0 + plane.h - plane._sym(alpha), alpha).q

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
