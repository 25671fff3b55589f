"""Time integration of averaged incompressible flow on the 2D torus.

The prognostic variable is the potential vorticity q = (1 - alpha^2 Lap) omega,
which is transported pointwise by the flow: dq/dt + u . grad q = 0 (inviscid),
plus an optional dissipative term,

    viscous : + nu * Lap omega       (the physical dissipation)
    strong  : + nu * Lap q           (the semigroup-friendly strengthened form)

Velocity is recovered by omega = (1 - alpha^2 Lap)^{-1} q, Lap psi = omega,
u = perp_grad psi, with the mean (k = 0) velocity carried separately since q
holds no mean-flow information.

Every right-hand side makes one transform pair, with multipliers and masks
from spectral's tables.  rhs_vorticity sends (u_x, u_y, dx q, dy q) to the grid
and brings u . grad q back, rounding as the field-by-field formulation did,
bit for bit.

The third-grade extension, whose cubic stress term has no compact vorticity
form, is integrated in primitive (momentum) variables with Leray projection.
Its right-hand side takes the stress divergences on the coefficients, so it
agrees with the field-by-field assembly to roundoff.
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
    dealias_two_thirds,
    derivative,
    gradient_into,
    hermitianize,
    perp_gradient_into,
    smoothing,
    rfft_half,
    sum_modes,
    to_physical,
    to_physical_padded,
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
    out = rfft_half(g, prod)
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


def casimirs(q: SpectralField, nmax: int) -> list[float]:
    """[integral(q), integral(q^2), ..., integral(q^nmax)], each by quadrature on a grid
    fine enough for q^n to be alias-free; one transform per distinct grid."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    g = q.grid
    mags = np.abs(q.coeffs)
    sx = int(np.abs(g.jx)[mags.max(axis=1) > 1e-300].max(initial=0))
    sy = int(np.abs(g.jy)[mags.max(axis=0) > 1e-300].max(initial=0))
    moments, shape, samples = [], None, None
    for n in range(1, nmax + 1):
        need = (max(g.nx, 2 * ((n * sx + 2 + 1) // 2)), max(g.ny, 2 * ((n * sy + 2 + 1) // 2)))
        if need != shape:
            shape, samples = need, to_physical_padded(q, need)
        moments.append(float(g.area * (samples**n).mean()))
    return moments


def energy_alpha(state: VorticityState) -> float:
    """E = (1/2) <u, u>_alpha = (1/2) S sum_k (1 + alpha^2 |k|^2) |uhat|^2."""
    u = state.velocity()
    w = smoothing(state.grid, state.alpha.alpha_sq).real
    # |uhat|^2 by np.abs, not through inner_product_alpha's Re(uhat.conj(uhat)): the
    # two round apart by up to 6e-16 relative, and every series.csv holds these bits
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

    One inverse transform of (u, Du, Lap u, grad m), plus the 1/2-rule Du when
    beta != 0, and one forward transform of the products and both stresses,
    whose divergences are taken on the coefficients.
    """
    if not u.is_vector:
        raise ValueError("third_grade_rhs expects a velocity field")
    g, c, alpha = u.grid, u.coeffs, p.alpha
    cubic = p.beta != 0.0
    # vector pairs: u, d_x u, d_y u, Lap u, d_x m, d_y m [, d_x u, d_y u of the 1/2 band]
    stack = np.empty((8 if cubic else 6, 2) + g.coeff_shape, dtype=np.complex128)
    stack[0] = c
    gradient_into(stack[1:3], c, g)
    np.multiply(g.laplacian, c, out=stack[3])
    _zero_nyquist(stack[3])
    gradient_into(stack[4:6], smoothing(g, alpha.alpha_sq) * c, g)
    if cubic:
        # Keep |j| <= (n-1)//4: a triple product of retained modes (support
        # 3K <= n - 1 - K) then aliases only into the zeroed band, so the
        # retained coefficients of the cubic term are exact.
        gradient_into(stack[6:8], c, g)
        np.copyto(stack[6:8], 0.0, where=g.drop_half)
    s = to_physical(FieldStack(g, stack.reshape((-1,) + g.coeff_shape))).reshape(stack.shape[:2] + g.shape)
    up, D, lap, gm = s[0], s[1:3], s[3], s[4:6]  # D[j, i] = d_j u^i
    A = D + D.swapaxes(0, 1)
    rows, cols = [0, 0, 1], [0, 1, 1]  # the entries 00, 01, 11 of a symmetric matrix
    prod = np.empty((8 if cubic else 5,) + g.shape)
    F = prod[:2]
    np.negative(up[0] * gm[0] + up[1] * gm[1], out=F)
    F += p.alpha1 * (D[:, 0] * lap[0] + D[:, 1] * lap[1])
    F += (p.alpha1 + p.alpha2) * (A[:, 0] * lap[0] + A[:, 1] * lap[1])
    prod[2:5] = D[0, rows] * D[0, cols] + D[1, rows] * D[1, cols]  # Du Du^t
    if cubic:
        Ah = s[6:8] + s[6:8].swapaxes(0, 1)
        prod[5:8] = (Ah[0, 0] ** 2 + 2.0 * Ah[0, 1] ** 2 + Ah[1, 1] ** 2) * Ah[rows, cols]
    h = rfft_half(g, prod)
    # div T = (ikx T_00 + iky T_01, ikx T_01 + iky T_11); the masks drop the Nyquist modes
    out = h[:2] + 2.0 * (p.alpha1 + p.alpha2) * (g.ikx * h[2:4] + g.iky * h[3:5])
    np.copyto(out, 0.0, where=g.drop_two_thirds)
    if p.nu > 0.0:
        out += p.nu * stack[3]
    if cubic:
        cubic_div = g.ikx * h[5:7] + g.iky * h[6:8]
        np.copyto(cubic_div, 0.0, where=g.drop_half)
        out += p.beta * cubic_div
    return leray_project(helmholtz_inverse(SpectralField._adopt(g, out), alpha))


def step_third_grade_rk4(u: SpectralField, dt: float, p: ThirdGradeParams) -> SpectralField:
    """One integrate.rk4 step in momentum variables; keeps the state dealiased and solenoidal."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    acc = rk4(lambda _, c: third_grade_rhs(SpectralField._adopt(u.grid, c), p).coeffs, 0.0, u.coeffs, dt)
    u_new = leray_project(dealias_two_thirds(SpectralField._adopt(u.grid, acc)))
    if not np.isfinite(np.abs(u_new.coeffs).max()):
        raise BlowUpError(float("nan"), "third-grade integration lost finiteness")
    return u_new
