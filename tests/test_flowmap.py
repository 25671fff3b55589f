"""Flow-map co-advection, exact evaluation, volume/transport checks."""

import math

import numpy as np
import pytest

from alpha_fluids import dynamics, flowmap
from alpha_fluids.dynamics import DissipationMode, VorticityState, run, state_from_velocity
from alpha_fluids.flowmap import (
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


def per_mode_block(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rule the shell cut replaced: the rows and columns of c (r, nx, ny)
    that hold a mode above 1e-16 of the peak |c|."""
    mags = np.abs(c).max(axis=0)
    thr = 1e-16 * mags.max()
    return mags.max(axis=1) > thr, mags.max(axis=0) > thr


def direct_sum_eval_field_at(f: SpectralField, points: np.ndarray) -> np.ndarray:
    """Oracle: the full complex direct sum over the per-mode live block.

    Sums u(x) = sum_k fhat(k) exp(i k.x) over the rows and columns of
    per_mode_block.  Cost O(P * live modes).
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return np.zeros((0, 2) if f.is_vector else (0,))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (P, 2)")
    g = f.grid
    c = full_coeffs(f) if f.is_vector else full_coeffs(f)[None, :, :]
    ky = (2 * np.pi / g.Ly) * np.fft.fftfreq(g.ny, d=1.0 / g.ny).astype(np.int64)[None, :].astype(float)
    if not c.any():
        out = np.zeros((pts.shape[0], c.shape[0]))
        return out if f.is_vector else out[:, 0]
    keep_x, keep_y = per_mode_block(c)
    kxs = g.kx[keep_x, 0]
    kys = ky[0, keep_y]
    sub = c[:, keep_x][:, :, keep_y]                      # (r, Kx, Ky)
    ex = np.exp(1j * np.outer(pts[:, 0], kxs))            # (P, Kx)
    ey = np.exp(1j * np.outer(pts[:, 1], kys))            # (P, Ky)
    t = sub @ ey.T                                        # (r, Kx, P)
    out = np.einsum("pk,rkp->pr", ex, t).real
    return out if f.is_vector else out[:, 0]


def per_mode_folded(f: SpectralField):
    """flowmap._folded as it was under the per-mode rule: the same fold and tables over per_mode_block."""
    g = f.grid
    c = full_coeffs(f).reshape(-1, g.nx, g.ny)
    keep_x, keep_y = per_mode_block(c)
    jx = g.jx[keep_x]
    jy = np.fft.fftfreq(g.ny, d=1.0 / g.ny).astype(np.int64)[keep_y]
    ux, gx = flowmap._fold(jx)
    uy, gy = flowmap._fold(jy)
    folded = (gx @ c[:, jx][:, :, jy] @ gy.T).real

    def at(pts):
        x = flowmap._trig_table(pts[:, 0], 2 * np.pi / g.Lx, ux)
        y = flowmap._trig_table(pts[:, 1], 2 * np.pi / g.Ly, uy)
        out = np.einsum("ip,rip->pr", x, folded @ y)
        return out if f.is_vector else out[:, 0]

    return at


def live_block(monkeypatch, f: SpectralField) -> tuple[np.ndarray, np.ndarray]:
    """The mode numbers (jx, jy) that flowmap._folded keeps for f, read off its two _fold calls."""
    seen = []
    fold = flowmap._fold
    with monkeypatch.context() as m:
        m.setattr(flowmap, "_fold", lambda j: seen.append(j) or fold(j))
        flowmap._folded(f)
    jx, jy = seen
    return jx, jy


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


def exact_exp_trig_table(coord: np.ndarray, h: float, j: np.ndarray) -> np.ndarray:
    """The predecessor of flowmap._trig_table: exp(i j h x) as the product of the
    exactly computed exp(i lo h x) and exp(i b hi h x), j = lo + b hi, from about
    2 sqrt(max j) complex exponentials per point."""
    top = int(j.max(initial=0))
    b = math.isqrt(top) + 1
    lo = np.exp(1j * np.outer(h * np.arange(b), coord))
    hi = np.exp(1j * np.outer((h * b) * np.arange(top // b + 1), coord))
    e = lo[j % b] * hi[j // b]
    return np.concatenate((e.real, e.imag))


def longdouble_trig_table(coord: np.ndarray, h: float, j: np.ndarray) -> np.ndarray:
    """cos and sin of j h coord in extended precision, from the float64 h and coord."""
    a = np.outer(j.astype(np.longdouble) * np.longdouble(h), coord.astype(np.longdouble))
    return np.concatenate((np.cos(a), np.sin(a)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18, reason="the truth needs an extended-precision long double")
class TestTrigTable:
    """Running powers of two exponentials per point against the exactly computed factors."""

    @staticmethod
    def errors(x, h, K):
        """Largest error of flowmap._trig_table and of its predecessor over modes 0..K."""
        j = np.arange(K + 1)
        truth = longdouble_trig_table(x, h, j)
        return [float(np.abs(table(x, h, j) - truth).max()) for table in (flowmap._trig_table, exact_exp_trig_table)]

    @pytest.mark.parametrize("K", [0, 1, 26, 42, 85])
    @pytest.mark.parametrize("span", [(-0.5, 6.8), (-100.0, 100.0)])
    @pytest.mark.parametrize("L", [2 * np.pi, 7.5])
    def test_error_within_the_exact_factors_plus_the_products(self, K, span, L):
        x = np.random.default_rng(K).uniform(*span, 2048)
        err, oracle_err = self.errors(x, 2 * np.pi / L, K)
        b = math.isqrt(K) + 1
        assert err <= oracle_err + 4 * (b + K // b) * np.finfo(float).eps

    @pytest.mark.parametrize("K", [26, 42, 85])
    def test_exact_arguments_leave_only_the_products(self, K):
        """With h = 1 and x on a 1/1024 lattice every j h x is exact, so only the
        products' rounding is left: at most b + K // b ulp, where a running power of
        exp(i x) alone reaches about K / 3."""
        x = np.round(np.random.default_rng(K).uniform(-100.0, 100.0, 2048) * 1024) / 1024
        err, oracle_err = self.errors(x, 1.0, K)
        b = math.isqrt(K) + 1
        assert err <= oracle_err + (b + K // b) * np.finfo(float).eps

    def test_mode_zero_is_exact(self):
        x = np.random.default_rng(0).uniform(-100.0, 100.0, 64)
        assert np.array_equal(flowmap._trig_table(x, 0.9, np.zeros(1, np.int64)), np.stack([np.ones(64), np.zeros(64)]))
        table = flowmap._trig_table(x, 0.9, np.arange(27))
        assert np.array_equal(table[[0, 27]], np.stack([np.ones(64), np.zeros(64)]))


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


class TestShellTruncation:
    """The live block is the smallest square |jx|, |jy| <= K whose outside sums to 1e-13 of sum |c|."""

    def test_roundoff_tail_is_cut_within_its_sum(self, monkeypatch):
        # two modes plus dust of 1e-15 relative on every mode of the 2/3 band, the shape of solver roundoff
        g = make_grid(32, 32)
        rng = np.random.default_rng(13)
        clean = cosine_field(g, (3, 0), 0.8) + cosine_field(g, (1, -5), 0.3, 0.4)
        dust = band_limited_field(g, g.nx // 3, False, rng)
        f = clean + (1e-15 * np.abs(clean.coeffs).max() / np.abs(dust.coeffs).max()) * dust
        c = np.abs(full_coeffs(f))
        keep_x, keep_y = per_mode_block(c[None])
        jx, jy = live_block(monkeypatch, f)
        assert len(jx) < keep_x.sum() and len(jy) < keep_y.sum()
        kept = np.isin(g.jx, jx)[:, None] & np.isin(np.fft.fftfreq(g.ny, d=1.0 / g.ny), jy)[None, :]
        dropped = c[~kept].sum()
        assert 0.0 < dropped <= 1e-13 * c.sum()
        pts = rng.uniform(-1.0, 2.0, (300, 2)) * [g.Lx, g.Ly]
        new = eval_field_at(f, pts)
        ref = direct_sum_eval_field_at(f, pts)
        assert np.abs(new - ref).max() <= dropped + 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize("shape", GRIDS)
    def test_white_noise_keeps_every_mode(self, monkeypatch, shape, vector):
        g = make_grid(*shape)
        rng = np.random.default_rng(14)
        f = to_spectral(g, rng.standard_normal((2, *g.shape) if vector else g.shape))
        jx, jy = live_block(monkeypatch, f)
        assert (len(jx), len(jy)) == (g.nx, g.ny)
        pts = rng.uniform(-1.0, 2.0, (300, 2)) * [g.Lx, g.Ly]
        assert eval_field_at(f, pts).tobytes() == per_mode_folded(f)(pts).tobytes()
        assert_matches_oracle(f, pts)

    @pytest.mark.parametrize("vector", [False, True])
    def test_zero_field_keeps_the_mean_mode_only(self, monkeypatch, vector):
        g = make_grid(*GRIDS[1])
        zero = SpectralField(g, np.zeros((2, *g.coeff_shape) if vector else g.coeff_shape))
        jx, jy = live_block(monkeypatch, zero)  # its values: test_zero_field_and_empty_points
        assert jx.tolist() == [0] and jy.tolist() == [0]


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
