"""Time integration of averaged incompressible flow on the 2D torus.

The prognostic variable is the potential vorticity q = (1 - alpha^2 Lap) omega,
which is transported pointwise by the flow: dq/dt + u . grad q = 0 (inviscid),
plus an optional dissipative term,

    viscous : + nu * Lap omega       (the physical dissipation)
    strong  : + nu * Lap q           (the semigroup-friendly strengthened form)

Velocity is recovered by omega = (1 - alpha^2 Lap)^{-1} q, Lap psi = omega,
u = perp_grad psi, with the mean (k = 0) velocity carried separately since q
holds no mean-flow information.

A right-hand side makes one transform pair: (u_x, u_y, dx q, dy q) go to the
grid in one inverse transform, u . grad q comes back in one forward transform.
Multipliers and the 2/3 mask come from spectral's tables, the stages call
the gradient kernels that spectral.derivative wraps, and every operation
rounds as the field-by-field formulation did, bit for bit.

The third-grade extension, whose cubic stress term has no compact vorticity
form, is integrated in primitive (momentum) variables with Leray projection.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .helmholtz import helmholtz_apply, helmholtz_inverse, leray_project
from .integrate import march, rk4
from .spectral import (
    AlphaParam,
    FieldStack,
    SpectralField,
    TorusGrid2D,
    _zero_nyquist,
    dealias_half,
    dealias_two_thirds,
    derivative,
    grad_components,
    gradient_into,
    hermitianize,
    perp_gradient_into,
    smoothing,
    sum_modes,
    to_physical,
    to_physical_padded,
    to_spectral,
    to_spectral_padded,
)

BLOWUP_LIMIT = 1e12


class BlowUpError(RuntimeError):
    """Integration aborted: the state left the finite range or outgrew the CFL
    limit during the run.  Carries the last good time."""

    def __init__(self, t_last_good: float, message: str = ""):
        self.t_last_good = t_last_good
        super().__init__(message or f"blow-up detected; last good time t={t_last_good:g}")


@dataclass(frozen=True)
class DissipationMode:
    """inviscid | viscous(nu) | strong(nu)."""

    variant: str
    nu: float = 0.0

    def __post_init__(self):
        if self.variant not in ("inviscid", "viscous", "strong"):
            raise ValueError(f"unknown dissipation variant {self.variant!r}")
        if self.variant == "inviscid":
            if self.nu != 0.0:
                raise ValueError("inviscid mode carries no viscosity")
        elif not (self.nu > 0.0):
            raise ValueError(f"{self.variant} mode requires nu > 0")

    @classmethod
    def inviscid(cls) -> "DissipationMode":
        return cls("inviscid")

    @classmethod
    def viscous(cls, nu: float) -> "DissipationMode":
        return cls("viscous", nu)

    @classmethod
    def strong(cls, nu: float) -> "DissipationMode":
        return cls("strong", nu)


class VorticityState:
    """Potential vorticity q plus alpha, time, and the mean velocity.

    Immutable value; derived u and the physical u samples are computed
    lazily and cached on the instance.  q must have (numerically) zero mean: a
    nonzero mean vorticity is not the curl of any periodic velocity field.
    """

    def __init__(
        self,
        q: SpectralField,
        alpha: AlphaParam,
        t: float = 0.0,
        mean_velocity=(0.0, 0.0),
    ):
        if q.is_vector:
            raise ValueError("q must be a scalar field")
        q = hermitianize(q)
        scale = np.abs(q.coeffs).max()
        if scale > 0.0 and abs(q.coeffs[0, 0]) > 1e-10 * scale:
            raise ValueError("q has a nonzero mean: not realizable as (1-a^2 Lap) curl u")
        self.q = q
        self.alpha = alpha
        self.t = float(t)
        self.mean_velocity = np.array(mean_velocity, dtype=float)
        self._cache: dict = {}
        self._from_solver = False

    @property
    def grid(self) -> TorusGrid2D:
        return self.q.grid

    def with_q(self, q: SpectralField, t: float) -> "VorticityState":
        """State at time t with the same alpha and mean velocity.

        q is taken as it is, without the constructor's checks: it must be
        exactly Hermitian with zero mean, as every q the solver builds from a
        checked state is.
        """
        new = object.__new__(VorticityState)
        new.q, new.alpha, new.t, new.mean_velocity = q, self.alpha, float(t), self.mean_velocity
        new._cache = {}
        new._from_solver = True
        return new

    def velocity(self) -> SpectralField:
        if "u" not in self._cache:
            self._cache["u"] = velocity_from_q(self.q, self.alpha, self.mean_velocity)
        return self._cache["u"]

    def velocity_samples(self) -> np.ndarray:
        """Physical velocity samples (2, nx, ny), computed once per state."""
        if "u_samples" not in self._cache:
            self._cache["u_samples"] = to_physical(self.velocity())
        return self._cache["u_samples"]


def state_from_velocity(u: SpectralField, alpha: AlphaParam) -> VorticityState:
    """The state at t = 0 whose velocity is u: q = (1 - alpha^2 Lap) curl u,
    truncated by the 2/3 rule, and u's k = 0 coefficients as mean velocity.

    For a divergence-free u inside the 2/3 band this inverts
    VorticityState.velocity to roundoff; outside the band q is truncated.
    """
    q = dealias_two_thirds(helmholtz_apply(derivative(u, "curl"), alpha))
    # + 0.0 turns a -0.0 mean into +0.0, so checkpoint headers carry no sign bit
    return VorticityState(q, alpha, 0.0, u.coeffs[:, 0, 0].real + 0.0)


def _invert(out: np.ndarray, q: np.ndarray, g: TorusGrid2D, alpha: AlphaParam, mean_velocity) -> np.ndarray:
    """u = perp_grad Lap^{-1} omega, omega = (1 - alpha^2 Lap)^{-1} q, into out (2, nx, ny/2 + 1); returns omega."""
    omega = q / smoothing(g, alpha.alpha_sq)
    # psi in out[1]; psi at k = 0 is unused: u's mean is set below
    perp_gradient_into(out, np.divide(omega, g.neg_k_sq_safe, out=out[1]), g)
    out[:, 0, 0] = mean_velocity
    return omega


def velocity_from_q(q: SpectralField, alpha: AlphaParam, mean_velocity=(0.0, 0.0)) -> SpectralField:
    """Invert q -> u: omega = (1-a^2 Lap)^{-1} q, Lap psi = omega, u = perp_grad psi."""
    g = q.grid
    u = np.empty((2,) + g.coeff_shape, dtype=np.complex128)
    _invert(u, q.coeffs, g, alpha, mean_velocity)
    return SpectralField._adopt(g, u)


def rhs_vorticity(state: VorticityState, mode: DissipationMode) -> SpectralField:
    """dq/dt = -dealias(u . grad q) + {0 | nu Lap omega | nu Lap q}.

    One inverse transform of (u_x, u_y, dx q, dy q) and one forward transform
    of the product; the velocity samples fill the state's cache.
    """
    g, q = state.grid, state.q.coeffs
    stack = np.empty((4,) + g.coeff_shape, dtype=np.complex128)
    omega = _invert(stack[:2], q, g, state.alpha, state.mean_velocity)
    gradient_into(stack[2:], q, g)
    p = to_physical(FieldStack(g, stack))
    state._cache["u_samples"] = p[:2]
    prod = np.multiply(p[2], p[0], out=p[2])  # u . grad q in place of grad q
    prod += np.multiply(p[3], p[1], out=p[3])
    out = to_spectral_padded(g, prod)
    np.copyto(out, 0.0, where=g.drop_two_thirds)
    np.multiply(out, -1.0, out=out)
    if mode.variant != "inviscid":
        lap = g.laplacian * (omega if mode.variant == "viscous" else q)
        _zero_nyquist(lap)
        lap *= mode.nu
        out += lap
    return SpectralField._adopt(g, out)


def _cfl_number(state: VorticityState, dt: float) -> float:
    """dt * max|u| * kmax, from the state's cached physical velocity."""
    umax = float(np.abs(state.velocity_samples()).max())
    g = state.grid
    kmax = max(2.0 * math.pi / g.Lx * (g.nx // 3), 2.0 * math.pi / g.Ly * (g.ny // 3))
    return dt * umax * kmax


def step_rk4(state: VorticityState, dt: float, mode: DissipationMode, check_cfl: bool = True) -> VorticityState:
    """One integrate.rk4 step on qhat; dealiases the result.

    The CFL check reads the physical velocity that the first stage already
    computed, so it costs no transform.  CFL >= 1 on a caller's state is bad
    input (ValueError); on a state an earlier step built, the flow has outgrown
    dt during the run (BlowUpError).  Every stage stays exactly Hermitian (see
    spectral), so no symmetrization is needed.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    q, t = state.q, state.t
    k1 = rhs_vorticity(state, mode)
    if check_cfl:
        c = _cfl_number(state, dt)
        if c >= 1.0:
            message = f"CFL number {c:.2f} >= 1; reduce dt"
            if state._from_solver:
                raise BlowUpError(t, message)
            raise ValueError(message)
        if c > 0.5:
            warnings.warn(f"CFL number {c:.2f} > 0.5; accuracy degraded", stacklevel=2)

    def f(ts: float, c: np.ndarray) -> np.ndarray:
        return rhs_vorticity(state.with_q(SpectralField._adopt(q.grid, c), ts), mode).coeffs

    acc = rk4(f, t, q.coeffs, dt, k1.coeffs)
    np.copyto(acc, 0.0, where=q.grid.drop_two_thirds)
    scale = np.abs(acc).max()
    if not np.isfinite(scale) or scale > BLOWUP_LIMIT:
        raise BlowUpError(t)
    return state.with_q(SpectralField._adopt(q.grid, acc), t + dt)


def run(state: VorticityState, dt: float, T: float, mode: DissipationMode, on_step=None) -> VorticityState:
    """Integrate to t = state.t + T (rounded to whole steps); on_step(n, state) after step n."""
    return march(lambda s, h: step_rk4(s, h, mode), state, dt, T, on_step)


# -- conserved quantities ------------------------------------------------------------


def _exact_moment(q: SpectralField, n: int) -> float:
    """integral(q^n) with quadrature on a grid fine enough to be alias-free."""
    g = q.grid
    mags = np.abs(q.coeffs)
    scale = mags.max()
    if scale == 0.0:
        return 0.0
    sx = int(np.abs(g.jx)[mags.max(axis=1) > 1e-300].max(initial=0))
    sy = int(np.abs(g.jy)[mags.max(axis=0) > 1e-300].max(initial=0))
    need_x = max(g.nx, 2 * ((n * sx + 2 + 1) // 2))
    need_y = max(g.ny, 2 * ((n * sy + 2 + 1) // 2))
    samples = to_physical_padded(q, (need_x, need_y))
    return float(g.area * (samples**n).mean())


def casimirs(q: SpectralField, nmax: int) -> list[float]:
    """[integral(q), integral(q^2), ..., integral(q^nmax)], alias-free quadrature."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    return [_exact_moment(q, n) for n in range(1, nmax + 1)]


def energy_alpha(state: VorticityState) -> float:
    """E = (1/2) <u, u>_alpha = (1/2) S sum_k (1 + alpha^2 |k|^2) |uhat|^2."""
    u = state.velocity()
    w = smoothing(state.grid, state.alpha.alpha_sq).real
    return 0.5 * state.grid.area * sum_modes(state.grid, w * np.abs(u.coeffs) ** 2)


# -- third-grade fluid in momentum form ------------------------------------------------


@dataclass(frozen=True)
class ThirdGradeParams:
    """Material moduli: alpha1 = alpha^2 > 0, alpha2 >= 0, cubic modulus beta >= 0, nu >= 0."""

    alpha1: float
    alpha2: float = 0.0
    beta: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        if not (self.alpha1 > 0.0):
            raise ValueError("alpha1 must be positive")
        if self.alpha2 < 0.0 or self.beta < 0.0 or self.nu < 0.0:
            raise ValueError("alpha2, beta, nu must be nonnegative")

    @property
    def alpha(self) -> AlphaParam:
        return AlphaParam(math.sqrt(self.alpha1))


def third_grade_rhs(u: SpectralField, p: ThirdGradeParams) -> SpectralField:
    """du/dt for the third-grade system in primitive variables.

    Assembles, pseudospectrally with 2/3 dealiasing (1/2 rule for the cubic
    beta term),

        F = nu Lap u - (u.grad) m + alpha1 (Du)^t Lap u
            + (alpha1 + alpha2) (A Lap u + 2 div[Du Du^t])
            + beta div[Tr(A A^t) A],          m = (1 - alpha1 Lap) u,

    with A = Du + Du^t, then returns Leray[(1 - alpha1 Lap)^{-1} F].  At
    alpha2 = beta = 0 the alpha1-group is a pure gradient and the right side
    reduces to the averaged (second-grade) system.
    """
    if not u.is_vector:
        raise ValueError("third_grade_rhs expects a velocity field")
    g = u.grid
    alpha = p.alpha
    D = grad_components(u)                       # D[i,j] = d_j u^i, physical
    lap_u = to_physical(derivative(u, "laplacian"))
    m = helmholtz_apply(u, alpha)
    grad_m = [to_physical(derivative(m.component(i), "gradient")) for i in range(2)]
    up = to_physical(u)

    F = np.empty((2, g.nx, g.ny))
    for i in range(2):
        # -(u . grad) m
        F[i] = -(up[0] * grad_m[i][0] + up[1] * grad_m[i][1])
        # + alpha1 (Du)^t Lap u : sum_j d_i u^j Lap u^j
        F[i] += p.alpha1 * (D[0][i] * lap_u[0] + D[1][i] * lap_u[1])
    # (alpha1 + alpha2) [ A Lap u + 2 div(Du Du^t) ]
    c = p.alpha1 + p.alpha2
    if c != 0.0:
        A = np.array([[2.0 * D[0][0], D[0][1] + D[1][0]], [D[0][1] + D[1][0], 2.0 * D[1][1]]])
        for i in range(2):
            F[i] += c * (A[i][0] * lap_u[0] + A[i][1] * lap_u[1])
        # div(Du Du^t): T_{ij} = sum_m d_m u^i d_m u^j
        T = np.empty((2, 2, g.nx, g.ny))
        for i in range(2):
            for j in range(2):
                T[i, j] = D[i][0] * D[j][0] + D[i][1] * D[j][1]
        divT = _matrix_divergence(g, T)
        F += 2.0 * c * divT
    out = dealias_two_thirds(to_spectral(g, F))
    if p.nu > 0.0:
        out = out + p.nu * derivative(u, "laplacian")
    if p.beta != 0.0:
        out = out + p.beta * _cubic_stress_divergence(u, g)
    return leray_project(helmholtz_inverse(out, alpha))


def _matrix_divergence(g: TorusGrid2D, T: np.ndarray) -> np.ndarray:
    """(div T)^i = d_j T_{ij} of physical-space matrix samples, back in physical space."""
    out = np.empty((2, g.nx, g.ny))
    for i in range(2):
        row = to_spectral(g, T[i])
        div = derivative(row, "divergence")
        out[i] = to_physical(div)
    return out


def _cubic_stress_divergence(u: SpectralField, g: TorusGrid2D) -> SpectralField:
    """div[Tr(A A^t) A] with the 1/2-rule truncation appropriate to a cubic term."""
    ut = dealias_half(u)
    D = grad_components(ut)
    A = np.array([[2.0 * D[0][0], D[0][1] + D[1][0]], [D[0][1] + D[1][0], 2.0 * D[1][1]]])
    trAA = A[0][0] ** 2 + 2.0 * A[0][1] ** 2 + A[1][1] ** 2
    T = trAA * A
    divT = _matrix_divergence(g, T)
    return dealias_half(to_spectral(g, divT))


def step_third_grade_rk4(u: SpectralField, dt: float, p: ThirdGradeParams) -> SpectralField:
    """One integrate.rk4 step in momentum variables; keeps the state dealiased and solenoidal."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    acc = rk4(lambda _, c: third_grade_rhs(SpectralField._adopt(u.grid, c), p).coeffs, 0.0, u.coeffs, dt)
    u_new = leray_project(dealias_two_thirds(SpectralField._adopt(u.grid, acc)))
    if not np.isfinite(np.abs(u_new.coeffs).max()):
        raise BlowUpError(float("nan"), "third-grade integration lost finiteness")
    return u_new
