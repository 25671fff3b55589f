"""Acceptance gate: one test per criterion, each at a pinned tolerance.

Every test prints a single "ACCEPTANCE <n>: PASS/FAIL" line (run with -s to
see them live).  Criterion 8 is kept in its original form and is a documented
failure: for the stream-mode pair k=(1,0), l=(1,1) the sectional curvature of
the alpha metric stays negative on all of (0, 1] (verified by two
independent curvature assemblies); the sign-flip apparatus itself is
demonstrated by the companion test on a pair where the flip does occur.
"""

import math
import time

import numpy as np
import pytest

from alpha_fluids.blobs import BlobEnsemble, blob_diagnostics, blob_ring, corotation_rate, run_blobs
from alpha_fluids.camassa_holm import (
    CHState,
    ch_energy,
    ch_rhs_eulerian,
    eulerian_from_lagrangian,
    lagrangian_from_velocity,
    run_ch,
    run_spray,
)
from alpha_fluids.checkpoint import read_checkpoint, write_checkpoint
from alpha_fluids.config import parse_config
from alpha_fluids.dynamics import (
    DissipationMode,
    ThirdGradeParams,
    VorticityState,
    casimirs,
    energy_alpha,
    rhs_vorticity,
    run,
    state_from_velocity,
    step_rk4,
    third_grade_rhs,
)
from alpha_fluids.flowmap import co_advect, make_lattice, transport_check, volume_check
from alpha_fluids.geometry import (
    arnold_closed_form,
    find_alpha0,
    grid_for_modes,
    jacobi_evolve,
    sectional_curvature,
    stream_mode,
)
from alpha_fluids.helmholtz import (
    helmholtz_apply,
    helmholtz_inverse,
    leray_project,
    stokes_project,
)
from alpha_fluids.runner import run_experiment
from alpha_fluids.spectral import (
    AlphaParam,
    SpectralField,
    cosine_field,
    derivative,
    divergence_defect,
    full_coeffs,
    inner_product_alpha,
    make_grid,
    mode,
    norm_alpha,
    norm_hs,
    to_physical,
    to_spectral,
    zero_field,
)


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n}: {status} - {detail}")
    return ok


def two_mode_velocity(grid, amps=(0.25, 0.2), k2=(2, 1)):
    psi = cosine_field(grid, (1, 0), amps[0]) + cosine_field(grid, k2, amps[1], 0.7)
    return derivative(psi, "perp_gradient")


def make_state(grid, alpha, amps=(0.25, 0.2), k2=(2, 1)):
    return state_from_velocity(two_mode_velocity(grid, amps, k2), alpha)


@pytest.fixture(scope="module")
def vigorous_run():
    """The criterion-4 run: inviscid 128^2 two-mode, t in [0,1], dt = 1e-3,
    co-advected with a 32^2 tracer lattice (shared by criteria 4 and 5)."""
    grid = make_grid(128, 128)
    alpha = AlphaParam(0.2)
    state0 = make_state(grid, alpha)
    t0 = time.monotonic()
    state, fmap = co_advect(state0, DissipationMode.inviscid(), 1e-3, 1.0, make_lattice(grid, 32))
    elapsed = time.monotonic() - t0
    return state0, state, fmap, elapsed


def test_criterion_01_spectral_infrastructure():
    t0 = time.monotonic()
    worst = 0.0
    for n in (64, 128):
        g = make_grid(n, n)
        rng = np.random.default_rng(n)
        s = rng.standard_normal((n, n))
        f = to_spectral(g, s)
        # Parseval
        worst = max(worst, abs((s**2).mean() - np.sum(np.abs(full_coeffs(f)) ** 2)) / (s**2).mean())
        # round trip
        worst = max(worst, np.abs(to_physical(f) - s).max() / np.abs(s).max())
        # derivative exactness on a resolvable trig polynomial
        X, Y = g.nodes()
        kx, ky = 7, -n // 4
        samples = np.cos(kx * X + ky * Y + 0.3)
        exact = -kx * np.sin(kx * X + ky * Y + 0.3)
        got = to_physical(derivative(to_spectral(g, samples), "x"))
        worst = max(worst, np.abs(got - exact).max() / np.abs(exact).max())
    elapsed = time.monotonic() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    assert report(1, ok, f"spectral max rel err {worst:.2e} (< 1e-12), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_02_helmholtz_leray_stokes():
    g = make_grid(64, 64)
    rng = np.random.default_rng(2)
    w = to_spectral(g, rng.standard_normal((2, 64, 64)))
    a = AlphaParam(0.6)
    # round-trip inverse
    rt = np.abs(helmholtz_apply(helmholtz_inverse(w, a), a).coeffs - w.coeffs).max()
    # idempotence
    p1 = leray_project(w)
    idem_l = np.abs(leray_project(p1).coeffs - p1.coeffs).max()
    p2 = stokes_project(w, a)
    idem_s = np.abs(stokes_project(p2, a).coeffs - p2.coeffs).max()
    # metric orthogonality of the Stokes decomposition
    resid = w - p2
    orth = abs(inner_product_alpha(p2, resid, a, method="deformation"))
    orth_rel = orth / inner_product_alpha(w, w, a, method="deformation")
    # Stokes = Leray on the torus
    agree = np.abs(p1.coeffs - p2.coeffs).max()
    ok = rt < 1e-12 and idem_l < 1e-12 and idem_s < 1e-12 and orth_rel < 1e-11 and agree < 1e-12
    assert report(
        2,
        ok,
        f"inverse rt {rt:.1e}, idempotence {max(idem_l, idem_s):.1e}, "
        f"orthogonality {orth_rel:.1e}, stokes-leray {agree:.1e}",
    )


def test_criterion_03_linear_decay_rates():
    g = make_grid(16, 16)
    a_val, nu, T, dt = 0.8, 0.37, 1.0, 1e-4
    alpha = AlphaParam(a_val)
    q0 = cosine_field(g, (0, 1), -(1 + alpha.alpha_sq))
    results = {}
    for variant, expected in (
        ("viscous", nu / (1 + a_val**2)),
        ("strong", nu),
    ):
        st = VorticityState(q0, alpha)
        m0 = abs(mode(st.q, 0, 1))
        mode_obj = DissipationMode(variant, nu)
        for i in range(round(T / dt)):
            st = step_rk4(st, dt, mode_obj, check_cfl=False)
        rate = -math.log(abs(mode(st.q, 0, 1)) / m0) / T
        results[variant] = abs(rate - expected) / expected
    ok = all(v < 1e-6 for v in results.values())
    assert report(
        3,
        ok,
        f"viscous rate rel err {results['viscous']:.2e}, strong {results['strong']:.2e} (< 1e-6)",
    )


def test_criterion_04_conservation_128(vigorous_run):
    state0, state, _, elapsed = vigorous_run
    E0, E1 = energy_alpha(state0), energy_alpha(state)
    C0, C1 = casimirs(state0.q, 4), casimirs(state.q, 4)
    drifts = [abs(E1 - E0) / E0]
    for n in range(4):
        scale = max(abs(C0[n]), C0[1] ** ((n + 1) / 2))
        drifts.append(abs(C1[n] - C0[n]) / scale)
    ok = max(drifts) < 1e-8 and elapsed < 300.0
    assert report(
        4,
        ok,
        f"energy+casimir drifts max {max(drifts):.2e} (< 1e-8), no blow-up, "
        f"runtime {elapsed:.0f}s (< 300s)",
    )


def test_criterion_05_transport_and_volume(vigorous_run):
    state0, state, fmap, _ = vigorous_run
    tr_base = transport_check(state0.q, state.q, fmap)

    # volume on its own gentler configured run (64^2, modest amplitudes)
    g64 = make_grid(64, 64)
    alpha = AlphaParam(0.2)
    gentle0 = make_state(g64, alpha, amps=(0.12, 0.08), k2=(1, 1))
    _, vmap = co_advect(gentle0, DissipationMode.inviscid(), 1e-3, 1.0, make_lattice(g64, 32))
    vol_base = volume_check(vmap)

    # transport improves at O(dt^2+) when dt is halved twice (vigorous flow)
    t_errs = []
    for i in range(3):
        dti = 1e-3 / 2**i
        s, f = co_advect(state0, DissipationMode.inviscid(), dti, 0.125, make_lattice(state0.grid, 32))
        t_errs.append(transport_check(state0.q, s.q, f))
    # volume improves at O(h^2) when the lattice is refined twice
    v_errs = []
    for m in (16, 32, 64):
        _, f = co_advect(gentle0, DissipationMode.inviscid(), 1e-3, 0.25, make_lattice(g64, m))
        v_errs.append(volume_check(f))

    t_gain = t_errs[0] / t_errs[2]
    v_gain = v_errs[0] / v_errs[2]
    ok = tr_base < 1e-4 and vol_base < 1e-3 and t_gain >= 8.0 and v_gain >= 8.0
    assert report(
        5,
        ok,
        f"transport {tr_base:.2e} (< 1e-4), volume {vol_base:.2e} (< 1e-3), "
        f"refinement gains {t_gain:.1f}x / {v_gain:.1f}x (>= 8x)",
    )


def test_criterion_06_viscosity_limit():
    t0 = time.monotonic()
    grid = make_grid(128, 128)
    alpha = AlphaParam(0.2)
    nus = (1e-1, 1e-2, 1e-3, 1e-4)
    dt, T = 2e-3, 0.5
    state0 = make_state(grid, alpha)
    u_inviscid = run(state0, dt, T, DissipationMode.inviscid()).velocity()
    summary = {}
    for variant in ("viscous", "strong"):
        errs = []
        for nu in nus:
            st = run(make_state(grid, alpha), dt, T, DissipationMode(variant, nu))
            diff = SpectralField(grid, st.velocity().coeffs - u_inviscid.coeffs)
            errs.append(norm_hs(diff, 1.0))
        slope = float(np.polyfit(np.log(nus), np.log(errs), 1)[0])
        summary[variant] = (errs, slope)
    elapsed = time.monotonic() - t0
    ok = elapsed < 1200.0
    detail = []
    for variant, (errs, slope) in summary.items():
        decreasing = all(b < a for a, b in zip(errs, errs[1:]))
        ok = ok and decreasing and 0.8 <= slope <= 1.2
        detail.append(f"{variant}: slope {slope:.3f}, decreasing {decreasing}")
    assert report(6, ok, "; ".join(detail) + f"; runtime {elapsed:.0f}s (< 1200s)")


def test_criterion_07_arnold_anchor():
    t0 = time.monotonic()
    g = make_grid(64, 64)
    a0 = AlphaParam(0.0)
    anchor = sectional_curvature(stream_mode(g, (1, 0)), stream_mode(g, (0, 1)), a0)
    target = -1.0 / (8.0 * math.pi**2)
    anchor_err = abs(anchor - target) / abs(target)

    rng = np.random.default_rng(7)
    checked = 0
    max_K = -np.inf
    max_dev = 0.0
    while checked < 50:
        k = tuple(int(v) for v in rng.integers(-4, 5, 2))
        l = tuple(int(v) for v in rng.integers(-4, 5, 2))
        if k == (0, 0) or l == (0, 0) or k == l or k == (-l[0], -l[1]):
            continue
        K = sectional_curvature(stream_mode(g, k), stream_mode(g, l), a0)
        Ka = arnold_closed_form(k, l, g.area)
        max_K = max(max_K, K)
        max_dev = max(max_dev, abs(K - Ka) / max(abs(Ka), 1e-12))
        checked += 1
    elapsed = time.monotonic() - t0
    ok = anchor_err < 1e-10 and max_K <= 1e-12 and elapsed < 60.0
    assert report(
        7,
        ok,
        f"anchor rel err {anchor_err:.1e} (< 1e-10), 50 pairs nonpositive (max K {max_K:.1e}), "
        f"closed-form dev {max_dev:.1e}, runtime {elapsed:.0f}s (< 60s)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="documented limitation: for k=(1,0), l=(1,1) the sectional curvature of "
    "the alpha metric stays negative throughout (0,1] (confirmed by two independent "
    "curvature assemblies); the sign flip needs |eps|/|k| small, and the smallest "
    "lattice eps is not small against |k| = 1 -- see test_criterion_08_sign_flip_apparatus "
    "for the pair (2,2) where the flip does occur",
)
def test_criterion_08_sign_flip_as_stated():
    k, eps = (1, 0), (0, 1)
    a0 = find_alpha0(k, eps)
    scan = {
        a: sectional_curvature(
            stream_mode(grid_for_modes(k, (1, 1)), k),
            stream_mode(grid_for_modes(k, (1, 1)), (1, 1)),
            AlphaParam(a),
        )
        for a in (0.0, 0.25, 0.5, 0.75, 1.0)
    }
    ok = a0 is not None and 0.0 < a0 < 1.0
    report(8, ok, f"find_alpha0(k=(1,0), eps=(0,1)) = {a0}; K(alpha) scan {scan}")
    assert ok, f"no sign flip in (0,1] for k=(1,0), l=(1,1); K(alpha) = {scan}"


def test_criterion_08_sign_flip_apparatus():
    """The alpha0 search demonstrated on a pair where the flip does occur."""
    k, eps = (2, 2), (0, 1)
    l = (k[0] + eps[0], k[1] + eps[1])
    a0 = find_alpha0(k, eps)
    ok = a0 is not None and 0.0 < a0 < 1.0
    g = grid_for_modes(k, l)
    x, y = stream_mode(g, k), stream_mode(g, l)
    if ok:
        ok = sectional_curvature(x, y, AlphaParam(a0 - 1e-3)) < 0.0
        ok = ok and sectional_curvature(x, y, AlphaParam(a0 + 1e-3)) > 0.0
        tail = [sectional_curvature(x, y, AlphaParam(a)) for a in np.linspace(a0 + 0.02, 1.0, 10)]
        ok = ok and all(v > 0.0 for v in tail)
    assert report(
        "8s",
        ok,
        f"supplementary: alpha0(k=(2,2), eps=(0,1)) = {a0} in (0,1), sign bracket at "
        f"+-1e-3 verified, K > 0 at 10 sampled alpha > alpha0",
    )


def test_criterion_09_jacobi():
    grid = make_grid(64, 64)
    alpha = AlphaParam(0.2)
    dt, T = 1e-3, 0.5
    u0 = two_mode_velocity(grid)
    pert = stream_mode(grid, (1, 1))
    zero = zero_field(grid, "vector")
    traj = jacobi_evolve(u0, zero, pert, T, dt, alpha)

    def endpoint(u):
        return run(state_from_velocity(u, alpha), dt, T, DissipationMode.inviscid()).velocity()

    base = endpoint(u0)
    errs = []
    for eps in (1e-4, 5e-5):
        fd = SpectralField(grid, (endpoint(u0 + eps * pert).coeffs - base.coeffs) / eps)
        errs.append(norm_alpha(fd - traj.delta_u_final, alpha))
    ratio = errs[0] / errs[1]

    us = stream_mode(grid, (0, 1))
    steady = jacobi_evolve(us, us, zero, T, dt, alpha)
    drift = np.abs(steady.y_norms - steady.y_norms[0]).max() / steady.y_norms[0]
    ok = 1.4 <= ratio <= 2.6 and drift < 1e-8
    assert report(
        9,
        ok,
        f"FD-deviation error ratio {ratio:.3f} (2 +- 30%), steady tangent drift {drift:.1e} (< 1e-8)",
    )


def test_criterion_10_camassa_holm():
    n, dt, T = 512, 1e-4, 1.0
    drifts = {}
    x_d = np.arange(1, n + 1) / (n + 1)
    st = CHState(0.1 * np.sin(math.pi * x_d), "dirichlet")
    e0 = ch_energy(st)
    drifts["dirichlet"] = abs(ch_energy(run_ch(st, dt, T)) - e0) / e0
    x_p = np.arange(n) * (2 * math.pi / n)
    st = CHState(0.1 * np.sin(x_p), "periodic")
    e0 = ch_energy(st)
    drifts["periodic"] = abs(ch_energy(run_ch(st, dt, T)) - e0) / e0

    # Eulerian vs Lagrangian spray at t = 0.5
    n_s = 511
    xs = np.arange(1, n_s + 1) / (n_s + 1)
    u0 = CHState(0.1 * np.sin(math.pi * xs), "dirichlet")
    ls = run_spray(lagrangian_from_velocity(u0), 5e-4, 0.5)
    eul = run_ch(u0, 5e-4, 0.5)
    spray_err = np.abs(eulerian_from_lagrangian(ls, n_s).u - eul.u).max()

    # sin-mode RHS hand value at O(h^2)
    rhs_errs = []
    for n_r in (256, 512):
        xr = np.arange(n_r) * (2 * math.pi / n_r)
        r = ch_rhs_eulerian(CHState(np.sin(xr), "periodic"))
        rhs_errs.append(np.abs(r + 0.6 * np.sin(2 * xr)).max())
    h2_ok = rhs_errs[1] < 1e-5 and 3.5 <= rhs_errs[0] / rhs_errs[1] <= 4.5

    ok = max(drifts.values()) < 1e-6 and spray_err < 1e-4 and h2_ok
    assert report(
        10,
        ok,
        f"energy drift dirichlet {drifts['dirichlet']:.1e} / periodic {drifts['periodic']:.1e} "
        f"(< 1e-6), spray agreement {spray_err:.1e} (< 1e-4), rhs O(h^2) ratio "
        f"{rhs_errs[0] / rhs_errs[1]:.2f}",
    )


def test_criterion_11_blobs():
    d, gamma, alpha = 1.0, 1.0, 0.35
    omega = corotation_rate(gamma, d, alpha)
    period = 2 * math.pi / omega
    pair = BlobEnsemble(np.array([[-d / 2, 0.0], [d / 2, 0.0]]), np.array([gamma, gamma]), alpha)
    out = run_blobs(pair, period / 4096, period / 4)  # quarter turn resolves the rate
    angle = math.atan2(out.positions[1, 1], out.positions[1, 0])
    rate_err = abs(angle / (period / 4) - omega) / omega

    ring = blob_ring(4, 1.0, 1.0, 0.3)
    d0 = blob_diagnostics(ring)
    ring_out = run_blobs(ring, 1e-3, 10.0)
    d1 = blob_diagnostics(ring_out)
    gam = float(np.abs(ring.circulations).sum())
    h_drift = abs(d1["hamiltonian"] - d0["hamiltonian"]) / max(abs(d0["hamiltonian"]), gam**2 / (4 * math.pi))
    imp_drift = max(
        abs(d1["linear_impulse"][0] - d0["linear_impulse"][0]),
        abs(d1["linear_impulse"][1] - d0["linear_impulse"][1]),
        abs(d1["angular_impulse"] - d0["angular_impulse"]),
    ) / (gam * (1.0 + float(np.abs(ring.positions).max()) ** 2))

    small = BlobEnsemble(pair.positions, pair.circulations, d / 100)
    from alpha_fluids.blobs import blob_rhs

    speed = float(np.abs(blob_rhs(small)[0, 1]))
    point_err = abs(speed - gamma / (2 * math.pi * d)) / (gamma / (2 * math.pi * d))

    ok = rate_err < 1e-4 and h_drift < 1e-8 and imp_drift < 1e-8 and point_err < 1e-4
    assert report(
        11,
        ok,
        f"co-rotation rate rel err {rate_err:.1e} (< 1e-4), H drift {h_drift:.1e} and impulse "
        f"drift {imp_drift:.1e} (< 1e-8), point-vortex recovery {point_err:.1e} (< 1e-4)",
    )


def test_criterion_12_third_grade():
    grid = make_grid(64, 64)
    a = AlphaParam(0.6)
    st = make_state(grid, a)
    u = st.velocity()
    p0 = ThirdGradeParams(alpha1=a.alpha_sq, alpha2=0.0, beta=0.0, nu=0.01)
    du = third_grade_rhs(u, p0)
    dq_m = helmholtz_apply(derivative(du, "curl"), a)
    dq_v = rhs_vorticity(st, DissipationMode.viscous(0.01))
    reduction = np.abs(dq_m.coeffs - dq_v.coeffs).max() / np.abs(dq_v.coeffs).max()

    from alpha_fluids.dynamics import step_third_grade_rk4

    p = ThirdGradeParams(alpha1=0.09, alpha2=0.05, beta=0.1, nu=0.02)
    g48 = make_grid(48, 48)
    u = make_state(g48, p.alpha, amps=(0.2, 0.15)).velocity()
    energies = [0.5 * inner_product_alpha(u, u, p.alpha)]
    for _ in range(500):
        u = step_third_grade_rk4(u, 2e-3, p)
        energies.append(0.5 * inner_product_alpha(u, u, p.alpha))
    monotone = all(b <= a_ + 1e-14 for a_, b in zip(energies, energies[1:]))
    ok = reduction < 1e-10 and monotone
    assert report(
        12,
        ok,
        f"reduction to averaged system {reduction:.1e} (< 1e-10), energy monotone over t=1: {monotone}",
    )


def test_criterion_13_infrastructure(tmp_path):
    # restart determinism at 1e-14
    grid = make_grid(32, 32)
    alpha = AlphaParam(0.25)
    st = make_state(grid, alpha, amps=(0.2, 0.15))
    mode_obj = DissipationMode.viscous(0.02)
    straight = run(st, 1e-3, 0.04, mode_obj)
    half = run(st, 1e-3, 0.02, mode_obj)
    ck = tmp_path / "mid.ckpt"
    write_checkpoint(half, ck, nu=0.02)
    resumed, _ = read_checkpoint(ck)
    finished = run(resumed, 1e-3, 0.02, mode_obj)
    restart_err = np.abs(finished.q.coeffs - straight.q.coeffs).max() / np.abs(straight.q.coeffs).max()

    # config round trip
    text = """
[run]
experiment = simulate2d
seed = 5
[grid]
nx = 32
ny = 32
[physics]
alpha = 0.25
dissipation = viscous
nu = 0.02
[time]
dt = 1e-3
t_final = 0.02
[ic]
kind = two_mode
k1 = 1 0
k2 = 2 1
amps = 0.2 0.15
"""
    cfg = parse_config(text)
    round_trip = parse_config(cfg.serialize()) == cfg

    # byte-identical reruns in single-threaded mode
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_experiment(cfg, str(out1), seed=5)
    run_experiment(cfg, str(out2), seed=5)
    identical = (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes() and (
        out1 / "final.ckpt"
    ).read_bytes() == (out2 / "final.ckpt").read_bytes()

    ok = restart_err < 1e-14 and round_trip and identical
    assert report(
        13,
        ok,
        f"restart determinism {restart_err:.1e} (< 1e-14), config round trip {round_trip}, "
        f"byte-identical reruns {identical}",
    )
