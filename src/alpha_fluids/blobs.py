"""Free-space vortex-blob dynamics in the plane.

Each blob induces the smoothed velocity field of the kernel G with
Lap (1 - alpha^2 Lap) G = delta, i.e.

    G(r) = (1/2pi) [ ln r + K0(r/alpha) ],

so the speed a circulation-Gamma blob induces at distance r is
(Gamma / 2 pi r) (1 - (r/alpha) K1(r/alpha)): the point-vortex law at large
separation, desingularized to zero velocity at r -> 0.  Direct O(N^2)
summation; the classical invariants (kernel Hamiltonian, linear and angular
impulse, total circulation) are conserved along the flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bessel import k0, k1
from .integrate import march, rk4


@dataclass(frozen=True)
class BlobEnsemble:
    """Positions (N,2), circulations (N,), smoothing scale alpha > 0."""

    positions: np.ndarray
    circulations: np.ndarray
    alpha: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        gam = np.asarray(self.circulations, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or gam.shape != (pos.shape[0],):
            raise ValueError("positions must be (N,2) and circulations (N,)")
        if not np.isfinite(pos).all() or not np.isfinite(gam).all():
            raise ValueError("positions and circulations must be finite")
        if not (self.alpha > 0.0):
            raise ValueError("blob smoothing scale alpha must be positive")
        pos = pos.copy()
        gam = gam.copy()
        pos.flags.writeable = False
        gam.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "circulations", gam)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def total_circulation(self) -> float:
        return float(self.circulations.sum())

    def with_positions(self, pos: np.ndarray) -> "BlobEnsemble":
        return BlobEnsemble(pos, self.circulations, self.alpha)


def _pair_geometry(pos: np.ndarray):
    dx = pos[:, None, 0] - pos[None, :, 0]
    dy = pos[:, None, 1] - pos[None, :, 1]
    r2 = dx * dx + dy * dy
    return dx, dy, r2


def blob_rhs(ens: BlobEnsemble) -> np.ndarray:
    """Velocity of each blob: sum over the others of the smoothed kernel.

    Coincident pairs contribute nothing (the kernel velocity vanishes at
    r = 0), so collisions degrade accuracy but never raise.
    """
    pos, gam, a = ens.positions, ens.circulations, ens.alpha
    dx, dy, r2 = _pair_geometry(pos)
    r = np.sqrt(r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(r2 > 0.0, (1.0 - (r / a) * k1(r / a)) / (2.0 * np.pi * r2), 0.0)
    coef = factor * gam[None, :]
    u = np.empty_like(pos)
    u[:, 0] = (-dy * coef).sum(axis=1)
    u[:, 1] = (dx * coef).sum(axis=1)
    return u


def step_blobs_rk4(ens: BlobEnsemble, dt: float) -> BlobEnsemble:
    if dt == 0.0:
        return ens
    x = rk4(lambda _, p: blob_rhs(ens.with_positions(p)), 0.0, ens.positions, dt, blob_rhs(ens))
    return ens.with_positions(x)


def run_blobs(ens: BlobEnsemble, dt: float, T: float, on_step=None) -> BlobEnsemble:
    """round(|T / dt|) steps; a negative dt runs the flow backward."""
    return march(step_blobs_rk4, ens, dt, T, on_step)


def blob_diagnostics(ens: BlobEnsemble) -> dict:
    """Kernel Hamiltonian, linear impulse, angular impulse, total circulation.

    H = -(1/4pi) sum_{i != j} G_i G_j [ ln r_ij + K0(r_ij/alpha) ], conserved
    along blob_rhs together with sum G x, sum G y, sum G |x|^2, sum G.
    """
    pos, gam, a = ens.positions, ens.circulations, ens.alpha
    _, _, r2 = _pair_geometry(pos)
    off = ~np.eye(ens.n, dtype=bool)
    r = np.sqrt(r2[off])
    gg = (gam[:, None] * gam[None, :])[off]
    with np.errstate(divide="ignore"):
        interaction = np.where(r > 0.0, np.log(np.where(r > 0.0, r, 1.0)) + k0(np.where(r > 0.0, r / a, 1.0)), 0.0)
    h = float(-(gg * interaction).sum() / (4.0 * np.pi))
    return {
        "hamiltonian": h,
        "linear_impulse": (float((gam * pos[:, 0]).sum()), float((gam * pos[:, 1]).sum())),
        "angular_impulse": float((gam * (pos**2).sum(axis=1)).sum()),
        "total_circulation": ens.total_circulation,
    }


def blob_ring(n: int, radius: float, gamma_total: float, alpha: float) -> BlobEnsemble:
    """n equal blobs on a circle about the origin; a standard initial configuration."""
    theta = 2.0 * np.pi * np.arange(n) / n
    pos = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    return BlobEnsemble(pos, np.full(n, gamma_total / n), alpha)


def corotation_rate(gamma: float, d: float, alpha: float) -> float:
    """Angular rate of two equal-circulation blobs at separation d."""
    return gamma / (np.pi * d * d) * (1.0 - (d / alpha) * k1(d / alpha))
