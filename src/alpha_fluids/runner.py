"""Experiment drivers: orchestration, sweeps, and artifact emission.

Every experiment is launched from a validated RunConfig and writes, into its
output directory, one or more CSV time series / summary tables plus a flat
key=value manifest (config echo, config hash, code version, wall time, final
diagnostics, completion status).  Numeric CSV cells carry 17 significant
digits so a generic reader recovers the values exactly.  Data artifacts are
byte-identical across reruns of the same (config, seed) for any thread count
(_legs); the manifest additionally records wall time, which is exempt.

Exit status contract: 0 success; 1 bad input (a ValueError such as a CFL
violation by the initial state, or an output directory or artifact that cannot
be written), with one ``error:`` line on stderr; 2 numerical abort (blow-up, a
non-finite CH velocity, a CFL number the run grows into, non-finite particles,
a geometry product outgrowing its grid), which keeps the series rows so far
(_record_series).  Failures in an output directory leave an INCOMPLETE manifest
wherever manifest.txt can still be written.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from . import __version__
from .blobs import BlobEnsemble, blob_diagnostics, blob_ring, run_blobs
from .camassa_holm import CHState, MonotonicityError, ch_energy, run_ch
from .checkpoint import write_checkpoint
from .config import ConfigError, RunConfig
from .dynamics import (
    BlowUpError,
    DissipationMode,
    VorticityState,
    casimirs,
    energy_alpha,
    run,
    state_from_velocity,
    step_rk4,  # unused here; bound for perfbench's Patch test of every binding
)
from .flowmap import co_advect, make_lattice, transport_check, volume_check
from .geometry import (
    CurvaturePlane,
    DegeneratePlaneError,
    SupportOverflowError,
    arnold_closed_form,
    grid_for_modes,
    jacobi_evolve,
    sectional_curvature,
    stream_mode,
)
from .rng import SplitMix64, random_modes
from .spectral import (
    AlphaParam,
    SpectralField,
    TorusGrid2D,
    cosine_field,
    derivative,
    field_from_modes,
    make_grid,
    norm_alpha,
    norm_hs,
)


# numerical outcomes, exit 2, though DegeneratePlaneError is a ValueError
_ABORTS = (BlowUpError, MonotonicityError, FloatingPointError, SupportOverflowError, DegeneratePlaneError)


# -- artifact helpers -------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _record_series(path: str, header: list[str], every: int, state, row, advance):
    """(final state, rows) of advance(state, on_step), with the series written to path.

    advance runs the integrator from state, calling on_step(n, s) after step n.
    The rows are row(0, state), row(n, s) after every `every`-th step (none if
    every is 0), and the final state's row once.  A numerical abort writes the
    rows so far before it propagates.
    """
    rows = [row(0, state)]
    n_last = 0

    def on_step(n: int, s) -> None:
        nonlocal n_last
        n_last = n
        if every and n % every == 0:
            rows.append(row(n, s))

    try:
        state = advance(state, on_step)
    except _ABORTS:
        write_csv(path, header, rows)
        raise
    if not every or n_last % every:
        rows.append(row(n_last, state))
    write_csv(path, header, rows)
    return state, rows


def _drift_rel(first: float, last: float, scale: float) -> float:
    """|last - first| / scale; a zero scale reads 0.0 when the values agree, otherwise inf."""
    if scale == 0.0:
        return 0.0 if last == first else math.inf
    return abs(last - first) / scale


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(cfg.serialize().encode("utf-8")).hexdigest()


def write_manifest(outdir, cfg: RunConfig, status: str, wall_s: float, diagnostics: dict) -> None:
    lines = [
        f"status = {status}",
        f"experiment = {cfg.experiment}",
        f"code_version = {__version__}",
        f"config_sha256 = {config_hash(cfg)}",
        f"wall_time_s = {_fmt(wall_s)}",
    ]
    for key in sorted(diagnostics):
        lines.append(f"{key} = {_fmt(diagnostics[key])}")
    for section in sorted(cfg.sections):
        for key in sorted(cfg.sections[section]):
            v = cfg.sections[section][key]
            body = " ".join(map(_fmt, v)) if isinstance(v, tuple) else _fmt(v)
            lines.append(f"config.{section}.{key} = {body}")
    with open(os.path.join(outdir, "manifest.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# -- initial conditions -------------------------------------------------------------


def _grid_from(cfg: RunConfig) -> TorusGrid2D:
    return make_grid(*(cfg.get("grid", key) for key in ("nx", "ny", "lx", "ly")))


def _in_band(grid: TorusGrid2D, key: str, k: tuple) -> tuple:
    """k, unless it is the mean mode or outside the 2/3 band that state_from_velocity keeps."""
    k = tuple(k)
    if k == (0, 0):
        raise ConfigError(f"[ic] {key} = 0 0 is the mean mode, which carries no flow")
    if abs(k[0]) > grid.nx // 3 or abs(k[1]) > grid.ny // 3:
        raise ConfigError(
            f"[ic] {key} reaches mode ({k[0]}, {k[1]}), outside the 2/3 band "
            f"|jx| <= {grid.nx // 3}, |jy| <= {grid.ny // 3} of the {grid.nx}x{grid.ny} grid"
        )
    return k


def initial_velocity(cfg: RunConfig, grid: TorusGrid2D, seed: int) -> SpectralField:
    """Named presets for the 2D experiments; all are divergence-free."""
    kind = cfg.get("ic", "kind")
    if kind == "single_mode":
        return stream_mode(grid, _in_band(grid, "k", cfg.get("ic", "k")), cfg.get("ic", "amp"))
    if kind == "two_mode":
        k1 = _in_band(grid, "k1", cfg.get("ic", "k1"))
        k2 = _in_band(grid, "k2", cfg.get("ic", "k2"))
        amps = cfg.get("ic", "amps")
        phases = cfg.get("ic", "phases")
        psi = cosine_field(grid, k1, amps[0], phases[0]) + cosine_field(grid, k2, amps[1], phases[1])
        return derivative(psi, "perp_gradient")
    rng = SplitMix64(seed)  # random_seeded
    kmax = cfg.get("ic", "kmax")
    _in_band(grid, "kmax", (kmax, kmax))
    slope = cfg.get("ic", "spectrum_slope")
    amp = cfg.get("ic", "amp")
    psi = field_from_modes(grid, random_modes(rng, kmax, slope))
    return amp * derivative(psi, "perp_gradient")


def initial_state(cfg: RunConfig, grid: TorusGrid2D, alpha: AlphaParam, seed: int) -> VorticityState:
    return state_from_velocity(initial_velocity(cfg, grid, seed), alpha)


# -- experiment drivers ----------------------------------------------------------------


def _exp_simulate2d(cfg: RunConfig, outdir: str, seed: int, threads: int) -> dict:
    grid = _grid_from(cfg)
    alpha = AlphaParam(cfg.get("physics", "alpha"))
    mode = DissipationMode(cfg.get("physics", "dissipation"), cfg.get("physics", "nu"))
    dt = cfg.get("time", "dt")
    T = cfg.get("time", "t_final")
    every = cfg.get("output", "series_every")
    ckpt_every = cfg.get("output", "checkpoint_every")

    def advance(state: VorticityState, record) -> VorticityState:
        def on_step(n: int, s: VorticityState) -> None:
            record(n, s)
            if ckpt_every and n % ckpt_every == 0:
                write_checkpoint(s, os.path.join(outdir, f"state_{n:06d}.ckpt"), "simulate2d", mode.nu)

        return run(state, dt, T, mode, on_step)

    state, rows = _record_series(
        os.path.join(outdir, "series.csv"), _SERIES2D_HEADER, every, initial_state(cfg, grid, alpha, seed),
        lambda n, s: (s.t, energy_alpha(s), *casimirs(s.q, 4)), advance,
    )
    write_checkpoint(state, os.path.join(outdir, "final.ckpt"), "simulate2d", mode.nu)
    first, last = rows[0], rows[-1]
    diag = {"t_final": state.t, "energy_final": last[1]}
    diag["energy_drift_rel"] = _drift_rel(first[1], last[1], abs(first[1]))
    scale2 = first[2 + 1]  # integral(q^2)
    for n in range(1, 5):
        scale = max(abs(first[1 + n]), scale2 ** (n / 2.0))
        diag[f"casimir_{n}_drift_rel"] = _drift_rel(first[1 + n], last[1 + n], scale)
    return diag


_SERIES2D_HEADER = [
    "t_time",
    "E_alpha_energy",
    "casimir_1_int_q",
    "casimir_2_int_q2",
    "casimir_3_int_q3",
    "casimir_4_int_q4",
]


def _exp_blob(cfg: RunConfig, outdir: str, seed: int, threads: int) -> dict:
    alpha = cfg.get("physics", "alpha")
    n = cfg.get("ic", "n_blobs")
    radius = cfg.get("ic", "radius")
    gamma = cfg.get("ic", "gamma")
    dt = cfg.get("time", "dt")
    T = cfg.get("time", "t_final")
    every = cfg.get("output", "series_every")

    def row(n: int, e: BlobEnsemble) -> tuple:
        d = blob_diagnostics(e)
        return (n * dt, d["hamiltonian"], *d["linear_impulse"], d["angular_impulse"], d["total_circulation"])

    ens, rows = _record_series(
        os.path.join(outdir, "series.csv"),
        ["t_time", "hamiltonian", "impulse_x", "impulse_y", "angular_impulse", "total_circulation"],
        every, blob_ring(n, radius, gamma, alpha), row, lambda e, on_step: run_blobs(e, dt, T, on_step),
    )
    first, last = np.asarray(rows[0]), np.asarray(rows[-1])
    # physical scales: conserved components can start at roundoff-zero
    gam_abs = float(np.abs(ens.circulations).sum())
    ext = 1.0 + float(np.abs(ens.positions).max())
    scales = np.array(
        [
            1.0,
            max(abs(first[1]), gam_abs**2 / (4.0 * math.pi)),
            gam_abs * ext,
            gam_abs * ext,
            max(abs(first[4]), gam_abs * ext**2),
            max(abs(first[5]), gam_abs),
        ]
    )
    drifts = [float(_drift_rel(*v)) for v in zip(first, last, scales)]
    return {
        "hamiltonian_drift_rel": drifts[1],
        "impulse_drift_rel": max(drifts[2:4]),
        "angular_impulse_drift_rel": drifts[4],
        "circulation_drift_rel": drifts[5],
    }


def _exp_ch(cfg: RunConfig, outdir: str, seed: int, threads: int) -> dict:
    n = cfg.get("experiment", "n")
    bc = cfg.get("experiment", "bc")
    dt = cfg.get("time", "dt")
    T = cfg.get("time", "t_final")
    amp = cfg.get("ic", "amp")
    (m,) = cfg.get("ic", "k")
    every = cfg.get("output", "series_every")
    bcs = ("dirichlet", "periodic") if bc == "both" else (bc,)
    legs = []
    for this_bc in bcs:
        if this_bc == "dirichlet":
            x = np.arange(1, n + 1) / (n + 1)
            state = CHState(amp * np.sin(m * math.pi * x), "dirichlet")
        else:
            x = np.arange(n) * (2.0 * math.pi / n)
            state = CHState(amp * np.sin(m * x), "periodic")
        legs.append(partial(_ch_run, state, dt, T, every, os.path.join(outdir, f"series_{this_bc}.csv")))
    return {f"energy_drift_rel_{b}": drift for b, drift in zip(bcs, _legs(legs, threads))}


def _ch_run(state: CHState, dt: float, T: float, every: int, path: str) -> float:
    """Leg: integrate one boundary condition, write its series to path; the energy drift."""
    _, rows = _record_series(
        path, _CH_HEADER, every, state,
        lambda n, s: (s.t, ch_energy(s), float(np.abs(s.u).max())),
        lambda s, on_step: run_ch(s, dt, T, on_step),
    )
    return _drift_rel(rows[0][1], rows[-1][1], rows[0][1])


_CH_HEADER = ["t_time", "energy_h1", "sup_norm"]


def _exp_curvature(cfg: RunConfig, outdir: str, seed: int, threads: int) -> dict:
    n_pairs = cfg.get("experiment", "pairs")
    kmax = cfg.get("experiment", "kmax")
    alpha0 = AlphaParam(0.0)
    grid = grid_for_modes((kmax, kmax), (kmax, kmax))
    S = grid.area
    rng = SplitMix64(seed)
    rows = []
    worst = 0.0
    kmax_pos = -math.inf

    def draw_pair():
        while True:
            k = (int(rng.uniform() * (2 * kmax + 1)) - kmax, int(rng.uniform() * (2 * kmax + 1)) - kmax)
            l = (int(rng.uniform() * (2 * kmax + 1)) - kmax, int(rng.uniform() * (2 * kmax + 1)) - kmax)
            if k == (0, 0) or l == (0, 0) or k == l or k == (-l[0], -l[1]):
                continue
            return k, l

    for _ in range(n_pairs):
        k, l = draw_pair()
        x = stream_mode(grid, k)
        y = stream_mode(grid, l)
        K_num = sectional_curvature(x, y, alpha0)
        K_closed = arnold_closed_form(k, l, S)
        rows.append((k[0], k[1], l[0], l[1], K_num, K_closed))
        denom = max(abs(K_closed), 1e-15)
        worst = max(worst, abs(K_num - K_closed) / denom)
        kmax_pos = max(kmax_pos, K_num)
    write_csv(
        os.path.join(outdir, "pairs.csv"),
        ["k_x", "k_y", "l_x", "l_y", "K_numeric", "K_closed_form"],
        rows,
    )
    anchor_grid = grid_for_modes((1, 0), (0, 1))
    anchor = sectional_curvature(
        stream_mode(anchor_grid, (1, 0)), stream_mode(anchor_grid, (0, 1)), alpha0
    )
    return {
        "anchor_K": anchor,
        "anchor_target": -1.0 / (8.0 * math.pi**2),
        "max_rel_dev_from_closed_form": worst,
        "max_K_observed": kmax_pos,
    }


def _exp_visc_limit(cfg: RunConfig, outdir: str, seed: int, threads: int) -> dict:
    nus = cfg.get("experiment", "nus")
    variants = cfg.get("experiment", "variants")
    variant_list = ("viscous", "strong") if variants == "both" else (variants,)

    tasks = [("inviscid", 0.0)] + [(v, nu) for v in variant_list for nu in nus]
    u0_ref, *finals = _legs([partial(_viscosity_run, cfg, seed, v, nu) for v, nu in tasks], threads)

    grid = _grid_from(cfg)
    rows = [(v, nu, norm_hs(SpectralField(grid, c - u0_ref), 1.0)) for (v, nu), c in zip(tasks[1:], finals)]
    diag: dict = {}
    for v in variant_list:
        errors = [err for w, _, err in rows if w == v]
        slope = float(np.polyfit(np.log(np.asarray(nus)), np.log(np.asarray(errors)), 1)[0])
        diag[f"slope_{v}"] = slope
        diag[f"monotone_{v}"] = bool(np.all(np.diff(errors) < 0.0)) if nus[0] > nus[-1] else bool(
            np.all(np.diff(errors) > 0.0)
        )
    write_csv(os.path.join(outdir, "summary.csv"), ["variant", "nu_viscosity", "h1_error_vs_inviscid"], rows)
    return diag


def _viscosity_run(cfg: RunConfig, seed: int, variant: str, nu: float) -> np.ndarray:
    """Leg: integrate one (variant, nu) run; the final velocity coefficients."""
    alpha = AlphaParam(cfg.get("physics", "alpha"))
    state = initial_state(cfg, _grid_from(cfg), alpha, seed)
    state = run(state, cfg.get("time", "dt"), cfg.get("time", "t_final"), DissipationMode(variant, nu))
    return state.velocity().coeffs


def _exp_alpha_sweep(cfg: RunConfig, outdir: str, seed: int, threads: int) -> dict:
    k = cfg.get("ic", "k")
    eps = cfg.get("experiment", "eps")
    alphas = cfg.get("experiment", "alphas")
    l = (k[0] + eps[0], k[1] + eps[1])
    if (0, 0) in (k, l) or l in (k, (-k[0], -k[1])):
        raise ConfigError(
            f"[ic] k and [experiment] eps give the modes k = ({k[0]}, {k[1]}) and l = k + eps = "
            f"({l[0]}, {l[1]}), which span no plane: both must be nonzero, and l must not be k or -k"
        )
    grid = grid_for_modes(k, l)
    plane = CurvaturePlane(stream_mode(grid, k), stream_mode(grid, l))
    rows = [(a, plane.K(AlphaParam(a))) for a in alphas]
    write_csv(os.path.join(outdir, "sweep.csv"), ["alpha", "sectional_curvature"], rows)
    a0 = plane.alpha0()
    diag = {"k": f"{k[0]} {k[1]}", "l": f"{l[0]} {l[1]}"}
    diag["alpha0"] = a0 if a0 is not None else "no flip in (0,1]"
    return diag


def _exp_jacobi(cfg: RunConfig, outdir: str, seed: int, threads: int) -> dict:
    grid = _grid_from(cfg)
    alpha = AlphaParam(cfg.get("physics", "alpha"))
    dt = cfg.get("time", "dt")
    T = cfg.get("time", "t_final")
    epsilons = cfg.get("experiment", "epsilons")

    u0 = initial_velocity(cfg, grid, seed)
    pert = stream_mode(grid, (1, 1), 1.0)
    zero = SpectralField(grid, np.zeros_like(u0.coeffs))
    us = stream_mode(grid, (0, 1), 1.0)  # a steady single-mode geodesic
    du_final, steady_drift, base, *ends = _legs([
        partial(_jacobi_tangent, u0, zero, pert, T, dt, alpha, os.path.join(outdir, "norms.csv")),
        partial(_jacobi_steady, us, zero, min(T, 0.25), dt, alpha),
        partial(_endpoint, u0, dt, T, alpha),
        *(partial(_endpoint, u0 + eps * pert, dt, T, alpha) for eps in epsilons),
    ], threads)

    delta_u_final = SpectralField(grid, du_final)
    fds = [SpectralField(grid, (end - base) / eps) for eps, end in zip(epsilons, ends)]
    rows = [(eps, norm_alpha(fd - delta_u_final, alpha)) for eps, fd in zip(epsilons, fds)]
    write_csv(os.path.join(outdir, "fd_check.csv"), ["epsilon", "fd_vs_linearized_error"], rows)
    return {"fd_error_ratio": rows[0][1] / rows[1][1], "steady_tangent_drift_rel": steady_drift}


def _jacobi_tangent(u0, y0, ydot0, T: float, dt: float, alpha: AlphaParam, path: str) -> np.ndarray:
    """Leg: the Jacobi field along the geodesic from u0, its norms written to path; the final delta u."""
    traj = jacobi_evolve(u0, y0, ydot0, T, dt, alpha)
    header = ["t_time", "jacobi_norm_alpha", "delta_u_norm_alpha"]
    write_csv(path, header, zip(traj.times, traj.y_norms, traj.du_norms))
    return traj.delta_u_final.coeffs


def _jacobi_steady(us, zero, T: float, dt: float, alpha: AlphaParam) -> float:
    """Leg: the relative drift of the tangent norm along the steady geodesic from us."""
    steady = jacobi_evolve(us, us, zero, T, dt, alpha)
    return float(np.abs(steady.y_norms - steady.y_norms[0]).max() / steady.y_norms[0])


def _endpoint(u0, dt: float, T: float, alpha: AlphaParam) -> np.ndarray:
    """Leg: the velocity coefficients at T of the inviscid run from u0."""
    return run(state_from_velocity(u0, alpha), dt, T, DissipationMode.inviscid()).velocity().coeffs


def _exp_flowmap(cfg: RunConfig, outdir: str, seed: int, threads: int) -> dict:
    grid = _grid_from(cfg)
    alpha = AlphaParam(cfg.get("physics", "alpha"))
    dt = cfg.get("time", "dt")
    T = cfg.get("time", "t_final")
    m = cfg.get("experiment", "m")
    t_diag = cfg.get("experiment", "t_diag")
    refine = cfg.get("experiment", "refine")
    ladders = cfg.get("experiment", "ladders")

    state0 = initial_state(cfg, grid, alpha, seed)
    legs = [partial(_flowmap_run, state0, dt, T, m, ("transport", "volume"))]
    columns = {}  # ladder -> (the name of its first CSV column, its value on each rung)
    rungs = range(refine + 1)
    if ladders in ("both", "transport"):
        columns["transport"] = ("dt_step", [dt / 2**i for i in rungs])
        legs += [partial(_flowmap_run, state0, dt / 2**i, t_diag, m, ("transport",)) for i in rungs]
    if ladders in ("both", "volume"):
        columns["volume"] = ("lattice_m", [m * 2**i for i in rungs])
        legs += [partial(_flowmap_run, state0, dt, t_diag, m * 2**i, ("volume",)) for i in rungs]
    (transport, volume), *errors = _legs(legs, threads)

    diag = {"transport_error_final": transport, "volume_error_final": volume}
    for ladder, (name, xs) in columns.items():
        rows = [(x, err) for x, (err,) in zip(xs, errors)]
        errors = errors[len(rows):]
        write_csv(os.path.join(outdir, f"{ladder}.csv"), [name, f"{ladder}_error"], rows)
        diag[f"{ladder}_improvement"] = rows[0][1] / max(rows[-1][1], 1e-300)
    return diag


def _flowmap_run(state0: VorticityState, dt: float, T: float, m: int, checks: tuple) -> list:
    """Leg: co-advect an m x m lattice from state0 to T; the named checks ("transport", "volume")."""
    state, fmap = co_advect(state0, DissipationMode.inviscid(), dt, T, make_lattice(state0.grid, m))
    return [transport_check(state0.q, state.q, fmap) if c == "transport" else volume_check(fmap) for c in checks]


_DRIVERS = {
    "simulate2d": _exp_simulate2d,
    "blob": _exp_blob,
    "ch": _exp_ch,
    "curvature": _exp_curvature,
    "visc-limit": _exp_visc_limit,
    "alpha-sweep": _exp_alpha_sweep,
    "jacobi": _exp_jacobi,
    "flowmap": _exp_flowmap,
}


def _retain_freed_memory() -> None:
    """Keep freed array memory in the process (glibc, Linux only): glibc's defaults
    mmap or trim a 128^2 RK4 step's few MB of temporaries, so every step faults
    them in again: 291-614 against 0 minor faults per step (1577-2026 against 0
    for a co-advection step with a 32^2 lattice) in fresh processes on a 2-core
    x86-64 VM."""
    libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
    if hasattr(libc, "mallopt"):
        libc.mallopt(-3, 4 << 20)   # M_MMAP_THRESHOLD
        libc.mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD


def _legs(calls: list, threads: int) -> list:
    """The results of calls, picklable zero-argument callables, in call order: run
    here if threads is 1 or there is one call, else in min(threads, len(calls))
    worker processes, which set _retain_freed_memory themselves (spawn and
    forkserver inherit nothing).  The first call to raise, in call order, raises
    here; a call not yet started then never starts."""
    if threads == 1 or len(calls) == 1:
        return [call() for call in calls]
    pool = ProcessPoolExecutor(min(threads, len(calls)), initializer=_retain_freed_memory)
    try:
        futures = [pool.submit(call) for call in calls]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def run_experiment(cfg: RunConfig, outdir: str, seed: int = 0, threads: int = 1) -> int:
    """Run one experiment; artifacts land in outdir.  Returns the exit status."""
    _retain_freed_memory()
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as e:  # no directory, so no manifest: bad input
        print(f"error: cannot create output directory {outdir}: {e.strerror}", file=sys.stderr)
        return 1
    t0 = time.monotonic()
    try:
        try:
            driver = _DRIVERS.get(cfg.experiment)
            if driver is None:
                raise ConfigError(f"unknown experiment {cfg.experiment!r}")
            diag = driver(cfg, outdir, seed, threads)
        except _ABORTS as e:  # caught before ValueError, which DegeneratePlaneError is
            t_last = getattr(e, "t_last_good", getattr(e, "t", float("nan")))
            write_manifest(outdir, cfg, "INCOMPLETE", time.monotonic() - t0, {"abort_reason": str(e), "t_last_good": t_last})
            return 2
        except ValueError as e:
            write_manifest(outdir, cfg, "INCOMPLETE", time.monotonic() - t0, {"abort_reason": str(e)})
            print(f"error: {e}", file=sys.stderr)
            return 1
        write_manifest(outdir, cfg, "COMPLETE", time.monotonic() - t0, diag)
        return 0
    except OSError as e:  # an artifact path that cannot be written, manifest.txt included
        with contextlib.suppress(OSError):
            write_manifest(outdir, cfg, "INCOMPLETE", time.monotonic() - t0, {"abort_reason": str(e)})
        print(f"error: {e}", file=sys.stderr)
        return 1
