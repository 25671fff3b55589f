"""2D solver: velocity recovery, transport dynamics, conservation, third grade."""

import numpy as np
import pytest
import scipy.fft

from alpha_fluids import dynamics
from alpha_fluids.dynamics import (
    BlowUpError,
    DissipationMode,
    ThirdGradeParams,
    VorticityState,
    casimirs,
    energy_alpha,
    rhs_vorticity,
    run,
    state_from_velocity,
    step_rk4,
    step_third_grade_rk4,
    third_grade_rhs,
    velocity_from_q,
)
from alpha_fluids.helmholtz import helmholtz_apply, helmholtz_inverse, leray_project
from alpha_fluids.spectral import (
    AlphaParam,
    SpectralField,
    cosine_field,
    dealias_two_thirds,
    derivative,
    full_coeffs,
    hermitian_asymmetry,
    inner_product_alpha,
    make_grid,
    mode,
    to_physical,
    to_physical_padded,
    to_spectral,
    zero_field,
)

from test_spectral import complex_to_physical, complex_to_spectral


def shear_state(grid, a):
    """q = -(1 + a^2) cos y, whose velocity is the steady shear (sin y, 0)."""
    alpha = AlphaParam(a)
    return VorticityState(cosine_field(grid, (0, 1), -(1 + alpha.alpha_sq)), alpha)


def two_mode_state(grid, a, amps=(0.25, 0.2)):
    alpha = AlphaParam(a)
    psi = cosine_field(grid, (1, 0), amps[0]) + cosine_field(grid, (2, 1), amps[1], 0.7)
    return state_from_velocity(derivative(psi, "perp_gradient"), alpha)


def random_state(grid, a, seed=0, amplitude=0.05, mean_velocity=(0.3, -0.1)):
    """Dealiased white-noise stream function: every retained mode is live."""
    noise = np.random.default_rng(seed).standard_normal(grid.shape)
    u0 = derivative(dealias_two_thirds(to_spectral(grid, amplitude * noise)), "perp_gradient")
    return state_from_velocity(u0 + constant_velocity(grid, mean_velocity), AlphaParam(a))


def constant_velocity(grid, mean_velocity):
    c = np.zeros((2, *grid.coeff_shape), dtype=complex)
    c[:, 0, 0] = mean_velocity
    return SpectralField(grid, c)


NON_SQUARE = (24, 40, 3.0, 7.5)
MODES = [DissipationMode.inviscid(), DissipationMode.viscous(0.05), DissipationMode.strong(0.05)]
ORACLE_SHAPES = [(16, 16), (128, 128), NON_SQUARE]


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()  # also the sign of every zero, which checkpoints store


# -- the field-by-field predecessors of the fused stage, kept as bitwise oracles --------


def predecessor_velocity_from_q(q, alpha, mean_velocity=(0.0, 0.0)):
    """Invert q -> u: omega = (1-a^2 Lap)^{-1} q, Lap psi = omega, u = perp_grad psi."""
    g = q.grid
    ksq = np.where(g.k_sq > 0.0, g.k_sq, 1.0)
    psi_c = helmholtz_inverse(q, alpha).coeffs / -ksq
    psi_c[0, 0] = 0.0
    u = derivative(SpectralField._adopt(g, psi_c), "perp_gradient")
    # u owns a fresh array that nothing else references yet: set its mean in place
    u.coeffs.flags.writeable = True
    u.coeffs[:, 0, 0] = mean_velocity
    u.coeffs.flags.writeable = False
    return u


def predecessor_exact_moment(q, n):
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


def predecessor_casimirs(q, nmax):
    """[integral(q), integral(q^2), ..., integral(q^nmax)], one padded transform per n."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    return [predecessor_exact_moment(q, n) for n in range(1, nmax + 1)]


def predecessor_advection(up, q):
    """Dealiased pseudospectral u . grad q from physical velocity samples up."""
    gqp = to_physical(derivative(q, "gradient"))
    return dealias_two_thirds(to_spectral(q.grid, up[0] * gqp[0] + up[1] * gqp[1]))


def predecessor_rhs_vorticity(state, mode):
    """dq/dt = -dealias(u . grad q) + {0 | nu Lap omega | nu Lap q}."""
    up = to_physical(predecessor_velocity_from_q(state.q, state.alpha, state.mean_velocity))
    out = -1.0 * predecessor_advection(up, state.q)
    if mode.variant == "viscous":
        out = out + mode.nu * derivative(helmholtz_inverse(state.q, state.alpha), "laplacian")
    elif mode.variant == "strong":
        out = out + mode.nu * derivative(state.q, "laplacian")
    return out


def predecessor_step_rk4(state, dt, mode, check_cfl=True):
    """One classical RK4 step on qhat; dealiases the result."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    q, t = state.q, state.t
    k1 = predecessor_rhs_vorticity(state, mode)
    if check_cfl:
        c = dynamics._cfl_number(state, dt)
        if c >= 1.0:
            message = f"CFL number {c:.2f} >= 1; reduce dt"
            if state._from_solver:
                raise BlowUpError(t, message)
            raise ValueError(message)
    k2 = predecessor_rhs_vorticity(state.with_q(q + 0.5 * dt * k1, t + 0.5 * dt), mode)
    k3 = predecessor_rhs_vorticity(state.with_q(q + 0.5 * dt * k2, t + 0.5 * dt), mode)
    k4 = predecessor_rhs_vorticity(state.with_q(q + dt * k3, t + dt), mode)
    q_new = dealias_two_thirds(q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    scale = np.abs(q_new.coeffs).max()
    if not np.isfinite(scale) or scale > dynamics.BLOWUP_LIMIT:
        raise BlowUpError(t)
    return state.with_q(q_new, t + dt)


def predecessor_step_third_grade_rk4(u, dt, p):
    """The hand-written RK4 stage sum that integrate.rk4 replaced, kept as a bitwise oracle."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    k1 = third_grade_rhs(u, p)
    k2 = third_grade_rhs(u + 0.5 * dt * k1, p)
    k3 = third_grade_rhs(u + 0.5 * dt * k2, p)
    k4 = third_grade_rhs(u + dt * k3, p)
    u_new = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    u_new = leray_project(dealias_two_thirds(u_new))
    if not np.isfinite(np.abs(u_new.coeffs).max()):
        raise BlowUpError(float("nan"), "third-grade integration lost finiteness")
    return u_new


# -- the field-by-field third-grade right-hand side, kept as an oracle ------------------


def predecessor_grad_components(u):
    """Physical-space velocity gradient samples G[i,j] = d_j u^i, shape (2,2,nx,ny)."""
    return np.stack([to_physical(derivative(u.component(i), "gradient")) for i in range(2)])


def predecessor_dealias_half(f):
    """1/2-rule truncation for cubic products."""
    return SpectralField._adopt(f.grid, np.where(f.grid.drop_half, 0.0, f.coeffs))


def predecessor_matrix_divergence(g, T):
    """(div T)^i = d_j T_{ij} of physical-space matrix samples, back in physical space."""
    out = np.empty((2, g.nx, g.ny))
    for i in range(2):
        out[i] = to_physical(derivative(to_spectral(g, T[i]), "divergence"))
    return out


def predecessor_cubic_stress_divergence(u, g):
    """div[Tr(A A^t) A] with the 1/2-rule truncation appropriate to a cubic term."""
    D = predecessor_grad_components(predecessor_dealias_half(u))
    A = np.array([[2.0 * D[0][0], D[0][1] + D[1][0]], [D[0][1] + D[1][0], 2.0 * D[1][1]]])
    trAA = A[0][0] ** 2 + 2.0 * A[0][1] ** 2 + A[1][1] ** 2
    return predecessor_dealias_half(to_spectral(g, predecessor_matrix_divergence(g, trAA * A)))


def predecessor_third_grade_rhs(u, p):
    """du/dt for the third-grade system, assembled field by field: 12 inverse and 6 forward transforms."""
    g = u.grid
    alpha = p.alpha
    D = predecessor_grad_components(u)  # D[i,j] = d_j u^i, physical
    lap_u = to_physical(derivative(u, "laplacian"))
    m = helmholtz_apply(u, alpha)
    grad_m = [to_physical(derivative(m.component(i), "gradient")) for i in range(2)]
    up = to_physical(u)
    F = np.empty((2, g.nx, g.ny))
    for i in range(2):
        F[i] = -(up[0] * grad_m[i][0] + up[1] * grad_m[i][1])
        F[i] += p.alpha1 * (D[0][i] * lap_u[0] + D[1][i] * lap_u[1])
    c = p.alpha1 + p.alpha2
    A = np.array([[2.0 * D[0][0], D[0][1] + D[1][0]], [D[0][1] + D[1][0], 2.0 * D[1][1]]])
    for i in range(2):
        F[i] += c * (A[i][0] * lap_u[0] + A[i][1] * lap_u[1])
    T = np.empty((2, 2, g.nx, g.ny))
    for i in range(2):
        for j in range(2):
            T[i, j] = D[i][0] * D[j][0] + D[i][1] * D[j][1]
    F += 2.0 * c * predecessor_matrix_divergence(g, T)
    out = dealias_two_thirds(to_spectral(g, F))
    if p.nu > 0.0:
        out = out + p.nu * derivative(u, "laplacian")
    if p.beta != 0.0:
        out = out + p.beta * predecessor_cubic_stress_divergence(u, g)
    return leray_project(helmholtz_inverse(out, alpha))


THIRD_GRADE_PARAMS = [
    ThirdGradeParams(alpha1=0.09),
    ThirdGradeParams(alpha1=0.36, nu=0.01),
    ThirdGradeParams(alpha1=0.09, alpha2=0.05, beta=0.1, nu=0.02),
]


class TestStateFromVelocity:
    @pytest.mark.parametrize("shape", [(32, 32), NON_SQUARE])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_velocity_round_trip(self, shape, seed):
        """Divergence-free u inside the 2/3 band with a nonzero mean comes back."""
        g = make_grid(*shape)
        rng = np.random.default_rng(seed)
        psi = dealias_two_thirds(to_spectral(g, rng.standard_normal(g.shape)))
        u = derivative(psi, "perp_gradient") + constant_velocity(g, rng.standard_normal(2))
        st = state_from_velocity(u, AlphaParam(0.3))
        assert np.abs(st.velocity().coeffs - u.coeffs).max() <= 1e-13 * np.abs(u.coeffs).max()
        assert np.array_equal(st.mean_velocity, u.coeffs[:, 0, 0].real)
        assert st.t == 0.0


class TestVelocityFromQ:
    def test_shear_hand_value(self):
        g = make_grid(32, 32)
        st = shear_state(g, 0.45)
        _, Y = g.nodes()
        up = to_physical(st.velocity())
        assert np.abs(up[0] - np.sin(Y)).max() < 1e-13
        assert np.abs(up[1]).max() < 1e-13

    def test_result_read_only_and_unaliased(self):
        st = two_mode_state(make_grid(16, 16), 0.3)
        u = velocity_from_q(st.q, st.alpha, (0.5, 0.25))
        assert not u.coeffs.flags.writeable and not np.shares_memory(u.coeffs, st.q.coeffs)
        assert mode(u, 0, 0).tolist() == [0.5, 0.25]

    def test_zero_q_gives_mean_flow(self):
        g = make_grid(16, 16)
        st = VorticityState(zero_field(g), AlphaParam(0.3), mean_velocity=(0.7, -0.2))
        up = to_physical(st.velocity())
        assert np.abs(up[0] - 0.7).max() < 1e-14
        assert np.abs(up[1] + 0.2).max() < 1e-14

    def test_round_trip_composite(self):
        g = make_grid(64, 64)
        st = two_mode_state(g, 0.6)
        q_back = helmholtz_apply(derivative(st.velocity(), "curl"), st.alpha)
        assert np.abs(q_back.coeffs - st.q.coeffs).max() < 1e-11

    def test_nonzero_mean_q_rejected(self):
        g = make_grid(16, 16)
        bad = cosine_field(g, (0, 1)) + SpectralField(g, np.full(g.coeff_shape, 0.5, dtype=complex))
        with pytest.raises(ValueError):
            VorticityState(bad, AlphaParam(0.1))


class TestRhsVorticity:
    def test_single_mode_is_steady(self):
        g = make_grid(32, 32)
        st = shear_state(g, 0.8)
        r = rhs_vorticity(st, DissipationMode.inviscid())
        assert np.abs(r.coeffs).max() < 1e-13

    def test_viscous_decay_rate(self):
        g = make_grid(16, 16)
        a, nu = 0.8, 0.37
        st = shear_state(g, a)
        mode_0 = mode(st.q, 0, 1)
        for _ in range(100):
            st = step_rk4(st, 1e-3, DissipationMode.viscous(nu), check_cfl=False)
        rate = -np.log(abs(mode(st.q, 0, 1) / mode_0)) / 0.1
        assert rate == pytest.approx(nu / (1 + a * a), rel=1e-8)

    def test_strong_decay_rate(self):
        g = make_grid(16, 16)
        a, nu = 0.8, 0.37
        st = shear_state(g, a)
        mode_0 = mode(st.q, 0, 1)
        for _ in range(100):
            st = step_rk4(st, 1e-3, DissipationMode.strong(nu), check_cfl=False)
        rate = -np.log(abs(mode(st.q, 0, 1) / mode_0)) / 0.1
        assert rate == pytest.approx(nu, rel=1e-8)


class TestStepRk4:
    def test_steady_state_unchanged(self):
        g = make_grid(32, 32)
        st = shear_state(g, 0.5)
        new = step_rk4(st, 1e-2, DissipationMode.inviscid())
        assert np.abs(new.q.coeffs - st.q.coeffs).max() < 1e-13

    def test_fourth_order_convergence(self):
        g = make_grid(32, 32)
        T = 0.2

        def endpoint(dt):
            return run(two_mode_state(g, 0.2), dt, T, DissipationMode.inviscid()).q.coeffs

        ref = endpoint(T / 256)
        e1 = np.abs(endpoint(T / 16) - ref).max()
        e2 = np.abs(endpoint(T / 32) - ref).max()
        assert e1 / e2 == pytest.approx(16.0, rel=0.2)

    def test_rejects_bad_dt(self):
        g = make_grid(16, 16)
        with pytest.raises(ValueError):
            step_rk4(shear_state(g, 0.1), -1e-3, DissipationMode.inviscid())

    def test_zero_dt_run_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            run(shear_state(make_grid(16, 16), 0.1), 0.0, 1.0, DissipationMode.inviscid())

    def test_cfl_guard(self):
        g = make_grid(64, 64)
        st = shear_state(g, 0.0)
        with pytest.raises(ValueError, match="CFL"):
            step_rk4(st, 0.1, DissipationMode.inviscid())
        with pytest.warns(UserWarning, match="CFL"):
            step_rk4(st, 0.03, DissipationMode.inviscid())

    def test_hermitian_symmetry_per_step(self):
        g = make_grid(32, 32)
        st = step_rk4(two_mode_state(g, 0.3), 1e-3, DissipationMode.inviscid())
        assert hermitian_asymmetry(st.q) < 1e-14

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.variant)
    def test_exactly_hermitian_after_50_steps(self, mode):
        st = random_state(make_grid(*NON_SQUARE), 0.3)
        for _ in range(50):
            st = step_rk4(st, 1e-3, mode)
        assert hermitian_asymmetry(st.q) == 0.0
        assert hermitian_asymmetry(st.velocity()) == 0.0

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.variant)
    def test_matches_complex_transforms_with_hermitianize(self, mode, monkeypatch):
        """Oracle: the predecessor on the complex transform pair, hermitianize on every stage."""
        g = make_grid(*NON_SQUARE)
        new = random_state(g, 0.3)
        for _ in range(20):
            new = step_rk4(new, 1e-3, mode)
        monkeypatch.setitem(
            globals(), "to_spectral",
            lambda grid, s: SpectralField(grid, complex_to_spectral(grid, s)[..., : grid.ny // 2 + 1]),
        )
        monkeypatch.setitem(globals(), "to_physical", lambda f: complex_to_physical(f.grid, full_coeffs(f)))
        monkeypatch.setattr(
            VorticityState, "with_q", lambda self, q, t: VorticityState(q, self.alpha, t, self.mean_velocity)
        )
        old = random_state(g, 0.3)
        for _ in range(20):
            old = predecessor_step_rk4(old, 1e-3, mode)
        scale = np.abs(old.q.coeffs).max()
        assert np.abs(new.q.coeffs - old.q.coeffs).max() <= 1e-12 * scale
        assert not np.array_equal(new.q.coeffs, old.q.coeffs)  # the oracle did take the complex path

    def test_cfl_check_costs_no_transform(self, monkeypatch):
        calls = []
        for name in ("rfft2", "irfft2", "fft2", "ifft2"):
            transform = getattr(scipy.fft, name)
            monkeypatch.setattr(scipy.fft, name, lambda *a, _t=transform, **k: calls.append(1) or _t(*a, **k))
        counts = []
        for check in (True, False):
            st = two_mode_state(make_grid(32, 32), 0.3)
            calls.clear()
            step_rk4(st, 1e-3, DissipationMode.inviscid(), check_cfl=check)
            counts.append(len(calls))
        assert counts == [8, 8]  # one transform pair per stage

    def test_cfl_reaching_one_mid_run_aborts_there(self, monkeypatch):
        numbers = iter([0.2, 0.4, 1.5, 0.1])
        checked = []

        def cfl(state, dt):
            checked.append(state.t)
            return next(numbers)

        monkeypatch.setattr(dynamics, "_cfl_number", cfl)
        with pytest.raises(BlowUpError, match="CFL number 1.50") as info:
            run(two_mode_state(make_grid(16, 16), 0.3), 1e-3, 5e-3, DissipationMode.inviscid())
        assert checked == pytest.approx([0.0, 1e-3, 2e-3])
        assert info.value.t_last_good == pytest.approx(2e-3)

    def test_blow_up_guard(self):
        g = make_grid(16, 16)
        alpha = AlphaParam(0.1)
        huge = cosine_field(g, (0, 1), -1e11)
        st = VorticityState(huge, alpha)
        with pytest.raises(BlowUpError):
            # strong dissipation far past the RK4 stability limit explodes
            s = st
            for _ in range(200):
                s = step_rk4(s, 0.5, DissipationMode.strong(50.0), check_cfl=False)


class TestFusedStageMatchesPredecessor:
    """The fused stage and the in-place RK4 against the field-by-field predecessors, bit for bit."""

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: "x".join(map(str, s[:2])))
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.variant)
    def test_rhs_and_steps(self, shape, mode):
        g = make_grid(*shape)
        new = old = random_state(g, 0.3, amplitude=0.05 if g.nx < 128 else 0.01)
        for _ in range(20):
            assert_same_bits(rhs_vorticity(new, mode).coeffs, predecessor_rhs_vorticity(old, mode).coeffs)
            new, old = step_rk4(new, 1e-3, mode), predecessor_step_rk4(old, 1e-3, mode)
            assert_same_bits(new.q.coeffs, old.q.coeffs)
        u = predecessor_velocity_from_q(old.q, old.alpha, old.mean_velocity)
        assert_same_bits(new.velocity().coeffs, u.coeffs)
        rhs_vorticity(new, mode)
        assert_same_bits(new.velocity_samples(), to_physical(u))

    def test_velocity_from_q_default_mean(self):
        st = random_state(make_grid(*NON_SQUARE), 0.4)
        assert_same_bits(velocity_from_q(st.q, st.alpha).coeffs, predecessor_velocity_from_q(st.q, st.alpha).coeffs)


class TestConservedQuantities:
    def test_casimirs_hand_values(self):
        g = make_grid(32, 32)
        q = cosine_field(g, (0, 1))
        c = casimirs(q, 4)
        S = g.area
        assert c[0] == pytest.approx(0.0, abs=1e-13)
        assert c[1] == pytest.approx(S / 2, rel=1e-13)          # mean cos^2 = 1/2
        assert c[2] == pytest.approx(0.0, abs=1e-13)
        assert c[3] == pytest.approx(3 * S / 8, rel=1e-13)      # mean cos^4 = 3/8

    def test_casimirs_match_per_n_predecessor(self):
        g = make_grid(128, 128)
        st = two_mode_state(g, 0.2)  # conservation_128.cfg's initial state, then t = 0.05
        qs = [st.q, run(st, 1e-3, 0.05, DissipationMode.inviscid()).q, cosine_field(make_grid(32, 32), (0, 1))]
        qs += [random_state(make_grid(*NON_SQUARE), 0.3).q, to_spectral(g, np.random.default_rng(1).standard_normal(g.shape))]
        qs += [zero_field(g), cosine_field(g, (60, 3))]  # wide support: the padded grid grows with n
        for q in qs:
            for nmax in (1, 4, 6):
                assert_same_bits(np.array(casimirs(q, nmax)), np.array(predecessor_casimirs(q, nmax)))

    def test_zero_field(self):
        g = make_grid(16, 16)
        assert casimirs(zero_field(g), 3) == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            casimirs(zero_field(g), 0)

    def test_inviscid_conservation_short_run(self):
        g = make_grid(64, 64)
        st = two_mode_state(g, 0.2)
        E0, C0 = energy_alpha(st), casimirs(st.q, 4)
        st = run(st, 1e-3, 0.2, DissipationMode.inviscid())
        E1, C1 = energy_alpha(st), casimirs(st.q, 4)
        assert abs(E1 - E0) / E0 < 1e-10
        for n in range(4):
            scale = max(abs(C0[n]), C0[1] ** ((n + 1) / 2))
            assert abs(C1[n] - C0[n]) / scale < 1e-10

    def test_energy_hand_value(self):
        g = make_grid(32, 32)
        for a in (0.0, 0.4):
            st = shear_state(g, a)
            assert energy_alpha(st) == pytest.approx(np.pi**2 * (1 + a * a), rel=1e-12)

    def test_zero_energy(self):
        g = make_grid(16, 16)
        st = VorticityState(zero_field(g), AlphaParam(0.5))
        assert energy_alpha(st) == 0.0

    def test_viscous_energy_monotone(self):
        g = make_grid(48, 48)
        st = two_mode_state(g, 0.3)
        energies = [energy_alpha(st)]
        for _ in range(50):
            st = step_rk4(st, 2e-3, DissipationMode.viscous(0.05), check_cfl=False)
            energies.append(energy_alpha(st))
        assert all(b <= a for a, b in zip(energies, energies[1:]))


class TestThirdGrade:
    def test_zero_velocity(self):
        g = make_grid(32, 32)
        out = third_grade_rhs(zero_field(g, "vector"), ThirdGradeParams(alpha1=0.25))
        assert np.abs(out.coeffs).max() == 0.0

    def test_reduces_to_averaged_system(self):
        """alpha2 = beta = 0: the momentum route must match the vorticity route."""
        g = make_grid(64, 64)
        a = AlphaParam(0.6)
        st = two_mode_state(g, 0.6)
        u = st.velocity()
        p = ThirdGradeParams(alpha1=a.alpha_sq, alpha2=0.0, beta=0.0, nu=0.01)
        du = third_grade_rhs(u, p)
        dq_momentum = helmholtz_apply(derivative(du, "curl"), a)
        dq_vorticity = rhs_vorticity(st, DissipationMode.viscous(0.01))
        scale = np.abs(dq_vorticity.coeffs).max()
        assert np.abs(dq_momentum.coeffs - dq_vorticity.coeffs).max() < 1e-10 * max(1.0, scale)

    def test_dissipative_energy_decay(self):
        g = make_grid(48, 48)
        p = ThirdGradeParams(alpha1=0.09, alpha2=0.05, beta=0.1, nu=0.02)
        st = two_mode_state(g, 0.3)
        u = st.velocity()
        a = p.alpha
        energies = [0.5 * inner_product_alpha(u, u, a)]
        for _ in range(100):
            u = step_third_grade_rk4(u, 2e-3, p)
            energies.append(0.5 * inner_product_alpha(u, u, a))
        assert all(b <= a_ + 1e-14 for a_, b in zip(energies, energies[1:]))

    def test_exactly_hermitian_after_20_steps(self):
        u = random_state(make_grid(*NON_SQUARE), 0.3).velocity()
        p = ThirdGradeParams(alpha1=0.09, alpha2=0.05, beta=0.1, nu=0.02)
        for _ in range(20):
            u = step_third_grade_rk4(u, 1e-3, p)
        assert hermitian_asymmetry(u) == 0.0

    def test_step_matches_predecessor_bitwise(self):
        new = old = random_state(make_grid(*NON_SQUARE), 0.3).velocity()
        p = ThirdGradeParams(alpha1=0.09, alpha2=0.05, beta=0.1, nu=0.02)
        for _ in range(20):
            new, old = step_third_grade_rk4(new, 1e-3, p), predecessor_step_third_grade_rk4(old, 1e-3, p)
            assert_same_bits(new.coeffs, old.coeffs)

    @pytest.mark.parametrize("shape", [(48, 48), NON_SQUARE])
    @pytest.mark.parametrize("p", THIRD_GRADE_PARAMS, ids=["alpha1", "alpha1-nu", "all"])
    def test_matches_field_by_field_predecessor(self, shape, p):
        for seed in range(3):
            u = random_state(make_grid(*shape), 0.3, seed=seed).velocity()
            new, old = third_grade_rhs(u, p).coeffs, predecessor_third_grade_rhs(u, p).coeffs
            assert np.abs(new - old).max() <= 1e-13 * np.abs(old).max()

    @pytest.mark.parametrize("p", THIRD_GRADE_PARAMS, ids=["alpha1", "alpha1-nu", "all"])
    def test_one_transform_pair_per_call(self, p, monkeypatch):
        u = random_state(make_grid(*NON_SQUARE), 0.3).velocity()
        calls = []
        for name in ("to_physical", "to_spectral_padded"):
            transform = getattr(dynamics, name)
            monkeypatch.setattr(dynamics, name, lambda *a, _n=name, _t=transform: calls.append(_n) or _t(*a))
        for name in ("rfft2", "irfft2", "fft2", "ifft2"):
            transform = getattr(scipy.fft, name)
            monkeypatch.setattr(scipy.fft, name, lambda *a, _t=transform, **k: calls.append("fft") or _t(*a, **k))
        third_grade_rhs(u, p)
        assert calls == ["to_physical", "fft", "to_spectral_padded", "fft"]

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ThirdGradeParams(alpha1=0.0)
        with pytest.raises(ValueError):
            ThirdGradeParams(alpha1=0.1, beta=-1.0)

    def test_cubic_term_alias_free(self):
        """The 1/2-rule band of the cubic stress term matches a padded-grid
        reference exactly, mode for mode.  The term is the beta difference of
        the right-hand side; Leray and (1 - alpha1 Lap)^{-1} act per mode, so
        they keep a mode-for-mode match."""
        k_in = (7, 3)  # at the n=32 cubic cutoff (31//4 = 7)
        p0, p1 = ThirdGradeParams(alpha1=0.09), ThirdGradeParams(alpha1=0.09, beta=1.0)

        def cubic_term(n):
            u = derivative(cosine_field(make_grid(n, n), k_in, 0.5), "perp_gradient")
            return third_grade_rhs(u, p1) - third_grade_rhs(u, p0)

        out = cubic_term(32)
        ref = cubic_term(64)  # alias-free for |j| <= 15 here
        scale = np.abs(ref.coeffs).max()
        for jx in range(-7, 8):
            for jy in range(-7, 8):
                d = np.abs(mode(out, jx, jy) - mode(ref, jx, jy)).max()
                assert d < 1e-13 * scale
        assert not out.coeffs[:, out.grid.drop_half].any()  # exactly zero past the band


class TestAlphaContinuity:
    def test_distance_to_euler_decreases_with_alpha(self):
        """Fixed smooth q0, fixed short horizon: the alpha solution approaches
        the alpha = 0 (Euler) solution monotonically through the ladder."""
        g = make_grid(64, 64)
        q0 = dealias_two_thirds(
            cosine_field(g, (1, 0), 0.5) + cosine_field(g, (2, 1), 0.4, 0.7)
        )
        T, dt = 0.25, 1e-3
        ref = run(VorticityState(q0, AlphaParam(0.0)), dt, T, DissipationMode.inviscid()).velocity()
        dists = []
        for a in (0.4, 0.2, 0.1, 0.05):
            st = run(VorticityState(q0, AlphaParam(a)), dt, T, DissipationMode.inviscid())
            diff = SpectralField(g, st.velocity().coeffs - ref.coeffs)
            dists.append(inner_product_alpha(diff, diff, AlphaParam(0.0)) ** 0.5)
        assert all(b < a for a, b in zip(dists, dists[1:]))


class TestDissipationMode:
    def test_variants(self):
        assert DissipationMode.inviscid().nu == 0.0
        assert DissipationMode.viscous(0.1).variant == "viscous"
        with pytest.raises(ValueError):
            DissipationMode.viscous(0.0)
        with pytest.raises(ValueError):
            DissipationMode("inviscid", 0.5)
        with pytest.raises(ValueError):
            DissipationMode("weird", 0.1)
