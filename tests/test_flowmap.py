"""Flow-map co-advection, exact evaluation, volume/transport checks."""

import numpy as np
import pytest

from alpha_fluids import dynamics, flowmap
from alpha_fluids.dynamics import DissipationMode, VorticityState, run, state_from_velocity
from alpha_fluids.flowmap import (
    _EVAL_TRUNCATION,
    FlowMap,
    co_advect,
    eval_field_at,
    make_lattice,
    transport_check,
    volume_check,
)
from alpha_fluids.geometry import stream_mode
from alpha_fluids.spectral import (
    AlphaParam,
    SpectralField,
    cosine_field,
    derivative,
    full_coeffs,
    make_grid,
    to_physical,
    to_spectral,
)


def shear_field(grid):
    return stream_mode(grid, (0, 1))  # u = (sin y, 0)


def two_mode_setup(grid, a=0.2, amps=(0.25, 0.2)):
    alpha = AlphaParam(a)
    psi = cosine_field(grid, (1, 0), amps[0]) + cosine_field(grid, (2, 1), amps[1], 0.7)
    return state_from_velocity(derivative(psi, "perp_gradient"), alpha)


def direct_sum_eval_field_at(f: SpectralField, points: np.ndarray) -> np.ndarray:
    """Oracle: the full complex direct sum over the live mode block.

    Sums u(x) = sum_k fhat(k) exp(i k.x) over the live mode block (modes below
    1e-16 of the peak are dropped; their total contribution is under 1e-13
    relative).  Cost O(P * live modes).
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return np.zeros((0, 2) if f.is_vector else (0,))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (P, 2)")
    g = f.grid
    c = full_coeffs(f) if f.is_vector else full_coeffs(f)[None, :, :]
    ky = (2 * np.pi / g.Ly) * np.fft.fftfreq(g.ny, d=1.0 / g.ny).astype(np.int64)[None, :].astype(float)
    mags = np.abs(c).max(axis=0)
    scale = mags.max()
    if scale == 0.0:
        out = np.zeros((pts.shape[0], c.shape[0]))
        return out if f.is_vector else out[:, 0]
    thr = _EVAL_TRUNCATION * scale
    keep_x = mags.max(axis=1) > thr
    keep_y = mags.max(axis=0) > thr
    kxs = g.kx[keep_x, 0]
    kys = ky[0, keep_y]
    sub = c[:, keep_x][:, :, keep_y]                      # (r, Kx, Ky)
    ex = np.exp(1j * np.outer(pts[:, 0], kxs))            # (P, Kx)
    ey = np.exp(1j * np.outer(pts[:, 1], kys))            # (P, Ky)
    t = sub @ ey.T                                        # (r, Kx, P)
    out = np.einsum("pk,rkp->pr", ex, t).real
    return out if f.is_vector else out[:, 0]


def band_limited_field(grid, kmax, vector, rng, hermitian=True):
    """Random coefficients on |jx|, |jy| <= kmax (kmax = n/2 keeps the Nyquist modes).

    Drawn on the full (nx, ny) layout and, if hermitian, projected there as
    (c[k] + conj(c[-k]))/2; the field stores the jy >= 0 half.
    """
    shape = (2, grid.nx, grid.ny) if vector else grid.shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    jy = np.fft.fftfreq(grid.ny, d=1.0 / grid.ny)
    c *= (np.abs(grid.jx)[:, None] <= kmax) & (np.abs(jy)[None, :] <= kmax)
    if hermitian:
        c = 0.5 * (c + np.conj(np.roll(c[..., ::-1, ::-1], shift=(1, 1), axis=(-2, -1))))
    return SpectralField(grid, c[..., : grid.ny // 2 + 1])


def assert_matches_oracle(f, pts):
    new = eval_field_at(f, pts)
    ref = direct_sum_eval_field_at(f, pts)
    assert new.shape == ref.shape
    assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()


GRIDS = [(32, 32, 2 * np.pi, 2 * np.pi), (24, 40, 3.0, 7.5)]


class TestEvalFieldOracle:
    """The folded real-table sum against the complex direct sum, to 1e-13 relative."""

    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize("shape", GRIDS)
    def test_band_limited(self, shape, vector):
        g = make_grid(*shape)
        rng = np.random.default_rng(7)
        f = band_limited_field(g, 6, vector, rng)
        pts = rng.uniform(0.0, 1.0, (300, 2)) * [g.Lx, g.Ly]
        assert_matches_oracle(f, pts)

    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize("shape", GRIDS)
    def test_nyquist_row_and_column(self, shape, vector):
        g = make_grid(*shape)
        rng = np.random.default_rng(8)
        f = to_spectral(g, rng.standard_normal((2, *g.shape) if vector else g.shape))
        c = f.coeffs if vector else f.coeffs[None]
        assert np.abs(c[:, g.nx // 2, :]).min() > 1e-6  # white noise keeps every mode live
        assert np.abs(c[:, :, g.ny // 2]).min() > 1e-6
        pts = rng.uniform(-1.0, 2.0, (300, 2)) * [g.Lx, g.Ly]
        assert_matches_oracle(f, pts)

    def test_general_complex_coefficients(self):
        # the fold is an identity: Re of the full sum, with no symmetry assumed
        g = make_grid(*GRIDS[1])
        rng = np.random.default_rng(9)
        f = band_limited_field(g, g.nx // 2, True, rng, hermitian=False)
        assert_matches_oracle(f, rng.uniform(0.0, 1.0, (200, 2)) * [g.Lx, g.Ly])

    def test_truncated_to_few_live_modes(self):
        g = make_grid(32, 32)
        rng = np.random.default_rng(10)
        f = cosine_field(g, (3, 0), 0.8) + cosine_field(g, (1, -5), 0.3, 0.4)
        dust = 1e-18 * band_limited_field(g, 16, False, rng)  # below the truncation level
        f = f + dust
        pts = rng.uniform(0.0, 2 * np.pi, (200, 2))
        assert_matches_oracle(f, pts)
        exact = 0.8 * np.cos(3 * pts[:, 0]) + 0.3 * np.cos(pts[:, 0] - 5 * pts[:, 1] + 0.4)
        assert np.abs(eval_field_at(f, pts) - exact).max() < 1e-13

    @pytest.mark.parametrize("vector", [False, True])
    def test_zero_field_and_empty_points(self, vector):
        g = make_grid(*GRIDS[1])
        zero = SpectralField(g, np.zeros((2, *g.coeff_shape) if vector else g.coeff_shape))
        live = band_limited_field(g, 4, vector, np.random.default_rng(11))
        pts = np.array([[0.3, 1.1], [4.0, 5.5]])
        for field, p in ((zero, pts), (zero, pts[:0]), (live, pts[:0])):
            new = eval_field_at(field, p)
            ref = direct_sum_eval_field_at(field, p)
            assert new.shape == ref.shape
            assert np.all(new == 0.0) and np.all(ref == 0.0)

    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize("shape", GRIDS)
    def test_unwrapped_far_points(self, shape, vector):
        # phases k.x near |x| = 100 carry argument rounding of order ulp(k.x)
        # in either sum; a band of |j| <= 8 keeps that under the gate
        g = make_grid(*shape)
        rng = np.random.default_rng(12)
        f = band_limited_field(g, 8, vector, rng)
        pts = rng.uniform(-100.0, 100.0, (300, 2))
        assert_matches_oracle(f, pts)


class TestEvalVelocity:
    def test_closed_form_point(self):
        g = make_grid(32, 32)
        u = shear_field(g)
        out = eval_field_at(u, np.array([[0.0, np.pi / 2]]))
        assert out[0, 0] == pytest.approx(1.0, abs=1e-13)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-13)

    def test_lattice_points_match_samples(self):
        g = make_grid(32, 32)
        rng = np.random.default_rng(1)
        u = to_spectral(g, rng.standard_normal((2, 32, 32)))
        X, Y = g.nodes()
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        vals = eval_field_at(u, pts)
        samples = to_physical(u)
        assert np.abs(vals[:, 0] - samples[0].ravel()).max() < 1e-13
        assert np.abs(vals[:, 1] - samples[1].ravel()).max() < 1e-13

    def test_empty_points(self):
        g = make_grid(16, 16)
        out = eval_field_at(shear_field(g), np.zeros((0, 2)))
        assert out.shape == (0, 2)

    def test_scalar_field_eval(self):
        g = make_grid(32, 32)
        f = cosine_field(g, (2, 1))
        pts = np.array([[0.3, 1.1], [4.0, 5.5]])
        vals = eval_field_at(f, pts)
        assert np.abs(vals - np.cos(2 * pts[:, 0] + pts[:, 1])).max() < 1e-13


def predecessor_rk4_particles(pos_flat, at, t, dt):
    """Particle RK4 that evaluates (and folds) the field anew at every stage."""
    mid = at(t + 0.5 * dt)
    u1 = eval_field_at(at(t), pos_flat)
    u2 = eval_field_at(mid, pos_flat + 0.5 * dt * u1)
    u3 = eval_field_at(mid, pos_flat + 0.5 * dt * u2)
    u4 = eval_field_at(at(t + dt), pos_flat + dt * u3)
    return pos_flat + (dt / 6.0) * (u1 + 2.0 * u2 + 2.0 * u3 + u4)


# -- the hand-written loop that integrate.march replaced, kept as a bitwise oracle --


def predecessor_co_advect(state, mode, dt, T, fmap):
    """Stage velocities by linear interpolation (1 - w) a + w b between the step's snapshots."""
    m = fmap.m
    pos = fmap.positions.reshape(m * m, 2).copy()
    n_steps = max(1, round(T / dt))
    u_prev = state.velocity()
    t0 = state.t
    for _ in range(n_steps):
        new_state = dynamics.step_rk4(state, dt, mode)
        u_next = new_state.velocity()

        def at(t, a=u_prev, b=u_next, t_a=state.t):
            w = min(max((t - t_a) / dt, 0.0), 1.0)
            return a if w == 0.0 else SpectralField(a.grid, (1.0 - w) * a.coeffs + w * b.coeffs)

        pos = predecessor_rk4_particles(pos, at, state.t, dt)
        state, u_prev = new_state, u_next
    return state, fmap.with_positions(pos.reshape(m, m, 2), t0 + n_steps * dt)


def assert_same_flow_map(new, old):
    assert new.positions.tobytes() == old.positions.tobytes()
    assert np.float64(new.t).tobytes() == np.float64(old.t).tobytes()


class TestFoldOncePerStep:
    def test_co_advect_matches_predecessor_bitwise(self):
        g = make_grid(32, 32)
        args = (DissipationMode.inviscid(), 1e-3, 5e-3, make_lattice(g, 16))
        new_state, new = co_advect(two_mode_setup(g), *args)
        old_state, old = predecessor_co_advect(two_mode_setup(g), *args)
        assert_same_flow_map(new, old)
        assert new_state.q.coeffs.tobytes() == old_state.q.coeffs.tobytes()
        assert new_state.t == old_state.t

    @pytest.mark.parametrize("dt, T", [(1e-3, 1e-3), (2e-3, 7e-3), (1e-3, 4.6e-3)])
    def test_co_advect_loop_from_a_later_state(self, dt, T):
        """A state and a lattice that start at t > 0, and T that is not a whole number of steps."""
        g = make_grid(24, 40)
        state = run(two_mode_setup(g), 1e-3, 3e-3, DissipationMode.viscous(0.01))
        fmap = make_lattice(g, 8)
        fmap = fmap.with_positions(fmap.positions + 0.1, 0.25)
        args = (DissipationMode.viscous(0.01), dt, T, fmap)
        new_state, new = co_advect(state, *args)
        old_state, old = predecessor_co_advect(state, *args)
        assert_same_flow_map(new, old)
        assert new_state.q.coeffs.tobytes() == old_state.q.coeffs.tobytes()

    def test_each_distinct_field_folded_once(self, monkeypatch):
        """N steps fold N + 1 snapshots and N exact midpoint means, each once."""
        fold = flowmap._folded
        folded = []
        monkeypatch.setattr(flowmap, "_folded", lambda f: folded.append(f) or fold(f))
        g = make_grid(16, 16)
        inviscid, dt, n = DissipationMode.inviscid(), 1e-3, 3
        co_advect(two_mode_setup(g), inviscid, dt, n * dt, make_lattice(g, 8))
        assert len(folded) == 2 * n + 1
        states = [two_mode_setup(g)]
        for _ in range(n):
            states.append(dynamics.step_rk4(states[-1], dt, inviscid))
        snaps = [s.velocity().coeffs for s in states]
        means = [0.5 * (a + b) for a, b in zip(snaps, snaps[1:])]
        expected = [snaps[0]] + [c for i in range(n) for c in (snaps[i + 1], means[i])]
        assert [f.coeffs.tobytes() for f in folded] == [c.tobytes() for c in expected]
        assert len({f.coeffs.tobytes() for f in folded}) == 2 * n + 1


class TestVolumeCheck:
    def test_identity_map(self):
        g = make_grid(16, 16)
        assert volume_check(make_lattice(g, 16)) < 1e-13

    def test_analytic_shear_map(self):
        # (x + t sin y, y) has det = 1, and centered differences reproduce it
        # exactly here (the h^2 entry error multiplies a zero entry)
        g = make_grid(32, 32)
        base = make_lattice(g, 16)
        ref = base.reference
        pos = ref.copy()
        pos[..., 0] += 0.8 * np.sin(ref[..., 1])
        assert volume_check(FlowMap(g, ref, pos, 0.8)) < 1e-13

    def test_composed_shears_second_order(self):
        # composing two transverse shears keeps det = 1 but makes the FD
        # truncation visible at O(h^2)
        g = make_grid(32, 32)
        errs = []
        for m in (16, 32, 64):
            ref = make_lattice(g, m).reference
            x1 = ref[..., 0] + 0.5 * np.sin(ref[..., 1])
            y1 = ref[..., 1] + 0.4 * np.sin(2 * x1)
            errs.append(volume_check(FlowMap(g, ref, np.stack([x1, y1], axis=-1), 1.0)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)

    def test_advected_run_preserves_volume(self):
        g = make_grid(64, 64)
        st = two_mode_setup(g, amps=(0.12, 0.08))
        _, fmap = co_advect(st, DissipationMode.inviscid(), 2e-3, 0.25, make_lattice(g, 32))
        assert volume_check(fmap) < 1e-3


class TestTransportCheck:
    def test_time_zero(self):
        g = make_grid(32, 32)
        st = two_mode_setup(g)
        assert transport_check(st.q, st.q, make_lattice(g, 16)) < 1e-12

    def test_steady_shear_transport(self):
        g = make_grid(32, 32)
        alpha = AlphaParam(0.5)
        st = VorticityState(cosine_field(g, (0, 1), -(1 + alpha.alpha_sq)), alpha)
        st_end, fmap = co_advect(st, DissipationMode.inviscid(), 1e-2, 1.0, make_lattice(g, 16))
        assert transport_check(st.q, st_end.q, fmap) < 1e-10

    def test_generic_run_transport(self):
        g = make_grid(64, 64)
        st = two_mode_setup(g)
        st_end, fmap = co_advect(st, DissipationMode.inviscid(), 1e-3, 0.25, make_lattice(g, 16))
        assert transport_check(st.q, st_end.q, fmap) < 1e-6


def test_co_advect_zero_dt_rejected():
    g = make_grid(16, 16)
    with pytest.raises(ValueError, match="dt"):
        co_advect(two_mode_setup(g), DissipationMode.inviscid(), 0.0, 1e-2, make_lattice(g, 8))


def test_co_advect_checks_cfl_every_step(monkeypatch):
    cfl = dynamics._cfl_number
    checked = []
    monkeypatch.setattr(dynamics, "_cfl_number", lambda state, dt: checked.append(state.t) or cfl(state, dt))
    g = make_grid(16, 16)
    co_advect(two_mode_setup(g), DissipationMode.inviscid(), 1e-3, 3e-3, make_lattice(g, 8))
    assert checked == pytest.approx([0.0, 1e-3, 2e-3])


class TestLattice:
    def test_minimum_size(self):
        g = make_grid(16, 16)
        with pytest.raises(ValueError):
            make_lattice(g, 4)
