"""The three benchmark workloads, derived from the shipped ``configs/*.cfg``.

Every workload is closed loop with one client: one process runs one
experiment after another through ``runner.run_experiment``.  Runs are shortened
only in ``t_final`` (and the flowmap ladder horizon ``t_diag``, the flowmap
experiment's second run length) or in the number of curvature pairs; grids, tracer
lattices and mode supports stay as shipped.  The benchmark seed goes into
``[run] seed``.

This module imports nothing from the program, so the launcher can read the
definitions without importing numpy or the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Experiment:
    """One ``run_experiment`` call: a shipped config plus the keys it shortens."""

    config: str
    overrides: dict
    warmup: dict  # overrides for the one-off first-call warm-up in set-up
    checks: tuple  # (manifest key, predicate, stated tolerance) triples


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiments: tuple
    units: tuple  # (module, function): one clock read at each call's start
    unit_label: str
    segments: tuple = ()  # (module, function) whose entry breaks the unit chain
    seed_note: str = ""


def _below(limit):
    return lambda v: isinstance(v, float) and v < limit


def _at_most(limit):
    return lambda v: isinstance(v, float) and v <= limit


def _in_open_unit(v):
    return isinstance(v, float) and 0.0 < v < 1.0


ANCHOR_TARGET = -1.0 / (8.0 * math.pi**2)

_CHECK_SIM2D = tuple(
    (key, _below(1e-8), "< 1e-8")
    for key in ["energy_drift_rel"] + [f"casimir_{n}_drift_rel" for n in range(1, 5)]
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="torus-128",
            why=(
                "128^2 solver with checkpoints, then co-advection of a 32^2 tracer lattice: FFTs, "
                "copies and hermitianize in spectral, helmholtz, dynamics, then eval_field_at direct sums"
            ),
            experiments=(
                Experiment(
                    "conservation_128.cfg",
                    {("time", "t_final"): 0.1, ("output", "checkpoint_every"): 25},
                    {("time", "t_final"): 0.002, ("output", "checkpoint_every"): 1},
                    _CHECK_SIM2D,
                ),
                Experiment(
                    "flowmap_transport.cfg",
                    {("time", "t_final"): 0.01, ("experiment", "t_diag"): 0.004},
                    {("time", "t_final"): 0.001, ("experiment", "t_diag"): 0.001},
                    (("transport_error_final", _below(1e-4), "< 1e-4"),),
                ),
            ),
            # 100 plain solver steps against 34 timed co-advection steps: the unit
            # median is a solver step, the 90th percentile a co-advection step
            units=(("dynamics", "step_rk4"),),
            unit_label="one step_rk4 (simulate2d) or co-advection step (solver step plus particle RK4)",
            segments=(("flowmap", "co_advect"),),
            seed_note="seed-independent: the two_mode initial condition draws no random numbers",
        ),
        Workload(
            name="curvature",
            why=(
                "tens of thousands of tiny transforms on 32^2-64^2 doubled grids and SpectralField "
                "constructions: per-call overhead dominates, not FFT throughput"
            ),
            experiments=(
                Experiment(
                    "alpha_sweep_flip.cfg",
                    {},
                    None,  # the sweep has no length key; set-up warms geometry via the pairs run
                    (("alpha0", _in_open_unit, "in (0,1)"),),
                ),
                Experiment(
                    "curvature_anchor.cfg",
                    {("experiment", "pairs"): 10},
                    {("experiment", "pairs"): 1},
                    (
                        (
                            "anchor_K",
                            lambda v: isinstance(v, float)
                            and abs(v - ANCHOR_TARGET) <= 1e-10 * abs(ANCHOR_TARGET),
                            "-1/(8 pi^2) to 1e-10 relative",
                        ),
                        ("max_K_observed", _at_most(1e-12), "<= 1e-12"),
                    ),
                ),
            ),
            units=(("geometry", "sectional_curvature"),),
            unit_label="one sectional_curvature",
            segments=(("geometry", "find_alpha0"),),
            seed_note="the seed chooses the curvature pairs; the alpha sweep is seed-independent",
        ),
        Workload(
            name="blob-ch",
            why=(
                "the only workload for bessel, blobs and camassa_holm (both boundary conditions); "
                "runs no torus FFT at all"
            ),
            experiments=(
                Experiment(
                    "blob_ring.cfg",
                    {("time", "t_final"): 1.0},
                    {("time", "t_final"): 0.001},
                    (
                        ("hamiltonian_drift_rel", _below(1e-8), "< 1e-8"),
                        ("impulse_drift_rel", _below(1e-8), "< 1e-8"),
                    ),
                ),
                Experiment(
                    "camassa_holm.cfg",
                    # 2 x 680 CH steps against 1000 blob steps: the unit median falls on
                    # a CH step, away from the blob steps, whose time swings up to 2x
                    # with host load; the 90th percentile is a blob step
                    {("time", "t_final"): 0.068},
                    {("time", "t_final"): 0.0001},
                    (
                        ("energy_drift_rel_dirichlet", _below(1e-6), "< 1e-6"),
                        ("energy_drift_rel_periodic", _below(1e-6), "< 1e-6"),
                    ),
                ),
            ),
            units=(("blobs", "step_blobs_rk4"), ("camassa_holm", "step_ch_rk4")),
            unit_label="one step_blobs_rk4 or step_ch_rk4",
            segments=(("blobs", "run_blobs"), ("camassa_holm", "run_ch")),
            seed_note="seed-independent: blob_ring and the CH sine initial data draw no random numbers",
        ),
    )
}
