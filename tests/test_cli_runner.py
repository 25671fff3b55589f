"""CLI and experiment orchestration: exit codes, determinism, restartability."""

import concurrent.futures
import math
import os
import pickle
import warnings

import numpy as np
import pytest

from alpha_fluids import dynamics, runner
from alpha_fluids.camassa_holm import MonotonicityError
from alpha_fluids.checkpoint import read_checkpoint, write_checkpoint
from alpha_fluids.cli import main
from alpha_fluids.config import EXPERIMENTS, ConfigError, load_config, parse_config
from alpha_fluids.dynamics import BlowUpError, DissipationMode, run
from alpha_fluids.geometry import DegeneratePlaneError, SupportOverflowError
from alpha_fluids.runner import run_experiment
from alpha_fluids.spectral import AlphaParam

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

SMALL_2D = """
[run]
experiment = simulate2d
seed = 11
[grid]
nx = 32
ny = 32
[physics]
alpha = 0.2
dissipation = viscous
nu = 0.01
[time]
dt = 2e-3
t_final = 0.05
[ic]
kind = two_mode
k1 = 1 0
k2 = 2 1
amps = 0.2 0.15
[output]
series_every = 5
"""


def read_manifest(outdir):
    entries = {}
    with open(os.path.join(outdir, "manifest.txt")) as fh:
        for line in fh:
            k, _, v = line.partition(" = ")
            entries[k.strip()] = v.strip()
    return entries


class TestCli:
    def test_happy_path(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_2D)
        out = tmp_path / "out"
        assert main(["simulate2d", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "series.csv").exists()
        assert (out / "final.ckpt").exists()
        assert read_manifest(out)["status"] == "COMPLETE"

    def test_experiment_mismatch_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_2D)
        assert main(["blob", "--config", str(cfg_path)]) == 1
        assert "declares experiment" in capsys.readouterr().err

    def test_missing_config(self, tmp_path, capsys):
        assert main(["simulate2d", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_config_error_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(SMALL_2D.replace("alpha = 0.2", "alpha = -1"))
        assert main(["simulate2d", "--config", str(cfg_path)]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_help_exits_0(self):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0

    def test_every_experiment_has_a_driver(self):
        assert set(runner._DRIVERS) == set(EXPERIMENTS)


class TestInputErrors:
    """Bad paths and seeds end in exit 1 with one error line, not a traceback."""

    @staticmethod
    def assert_one_error_line(capsys):
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["bogus", "--config", "{cfg}"],
        ["simulate2d"],
        ["simulate2d", "--config", "{cfg}", "--seed", "abc"],
        ["simulate2d", "--config", "{cfg}", "--threads", "q"],
        ["simulate2d", "--config", "{cfg}", "--threads", "0"],
        ["simulate2d", "--config", "{cfg}", "--threads", "-3"],
        ["simulate2d", "--config", "{cfg}", "--bogus"],
    ], ids=["unknown experiment", "no --config", "--seed abc", "--threads q", "--threads 0", "--threads -3",
            "unknown flag"])
    def test_usage_error(self, tmp_path, capsys, args):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_2D)
        out = tmp_path / "o"
        assert main([a.format(cfg=cfg_path) for a in args] + ["--out", str(out)]) == 1
        self.assert_one_error_line(capsys)
        assert not out.exists()

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert main(["simulate2d", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
        self.assert_one_error_line(capsys)

    def test_config_is_not_utf8(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes(SMALL_2D.encode() + b"# caf\xe9\n")
        assert main(["simulate2d", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        self.assert_one_error_line(capsys)

    def test_out_under_a_regular_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_2D)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["simulate2d", "--config", str(cfg_path), "--out", str(blocker / "out")]) == 1
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("artifact", ["series.csv", "final.ckpt"])
    def test_artifact_path_is_a_directory(self, tmp_path, capsys, artifact):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SINGLE_16)
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        assert main(["simulate2d", "--config", str(cfg_path), "--out", str(out)]) == 1
        self.assert_one_error_line(capsys)
        assert read_manifest(out)["status"] == "INCOMPLETE"

    def test_manifest_path_is_a_directory(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SINGLE_16)
        out = tmp_path / "out"
        (out / "manifest.txt").mkdir(parents=True)
        assert main(["simulate2d", "--config", str(cfg_path), "--out", str(out)]) == 1
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("seed_args, seed_line", [
        (["--seed", "-1"], "seed = 11"),
        (["--seed", str(2**64)], "seed = 11"),
        (["--seed", str(2**64 + 1)], "seed = 11"),
        ([], f"seed = {2**64}"),
    ])
    def test_seed_outside_u64(self, tmp_path, capsys, seed_args, seed_line):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_2D.replace("seed = 11", seed_line))
        out = tmp_path / "o"
        assert main(["simulate2d", "--config", str(cfg_path), "--out", str(out), *seed_args]) == 1
        self.assert_one_error_line(capsys)
        assert not out.exists()


SINGLE_16 = """
[run]
experiment = simulate2d
[grid]
nx = 16
ny = 16
[physics]
alpha = 0.2
[time]
dt = 1e-2
t_final = 0.02
[ic]
kind = single_mode
k = 1 0
amp = 0.5
"""

SWEEP = "[run]\nexperiment = alpha-sweep\n[ic]\nk = 1 0\n[experiment]\neps = 0 1\nalphas = 0.0 0.5\n"
BLOB = (
    "[run]\nexperiment = blob\n[physics]\nalpha = 0.3\n[ic]\nkind = blob_ring\nn_blobs = 3\n"
    "radius = 1.0\ngamma = 1.0\n[time]\ndt = 1e-2\nt_final = 0.05\n"
)
CH = "[run]\nexperiment = ch\n[experiment]\nn = 32\nbc = periodic\n[ic]\namp = 0.1\nk = 1\n[time]\ndt = 0.01\nt_final = 0.02\n"


RANDOM_16 = SINGLE_16.replace("kind = single_mode\nk = 1 0\namp = 0.5", "kind = random_seeded\nkmax = 3")
TWO_MODE_16 = SINGLE_16.replace("kind = single_mode\nk = 1 0\namp = 0.5", "kind = two_mode\nk1 = 1 0\nk2 = 2 1")
JACOBI_16 = TWO_MODE_16.replace("simulate2d", "jacobi") + "[experiment]\nepsilons = 1e-4 5e-5\n"


# a short run; the two reproducers of the ROADMAP's "Measured" add keys their experiment does not read
SHORT = "[run]\nexperiment = {}\n[time]\ndt = 0.01\nt_final = 0.02\n"
SIMULATE2D_16 = SHORT.format("simulate2d") + "[grid]\nnx = 16\nny = 16\n"


class TestShapeAndFiniteness:
    """Short tuples, non-finite amplitudes, an [ic] k of the wrong length and keys the
    experiment does not read end in exit 1 with one error line, at parse time with the
    line number."""

    PARSE_CASES = [
        ("simulate2d", SINGLE_16, "amp = 0.5", "amp = nan"),
        ("simulate2d", SINGLE_16, "amp = 0.5", "amp = inf"),
        ("simulate2d", SMALL_2D, "k1 = 1 0", "k1 = 1"),
        ("simulate2d", SMALL_2D, "k2 = 2 1", "k2 = 2 1 0"),
        ("simulate2d", SMALL_2D, "amps = 0.2 0.15", "amps = 0.25"),
        ("simulate2d", SMALL_2D, "amps = 0.2 0.15", "amps = 0.2 nan"),
        ("simulate2d", SMALL_2D, "amps = 0.2 0.15", "amps = 0.2 0.15\nphases = 0.1"),
        ("blob", BLOB, "gamma = 1.0", "gamma = nan"),
        ("alpha-sweep", SWEEP, "eps = 0 1", "eps = 1"),
        ("alpha-sweep", SWEEP, "eps = 0 1", "eps = 0 1 2"),
        ("alpha-sweep", SWEEP, "alphas = 0.0 0.5", "alphas ="),
        ("alpha-sweep", SWEEP, "alphas = 0.0 0.5", "alphas = 0.0 -0.5"),
        ("alpha-sweep", SWEEP, "alphas = 0.0 0.5", "alphas = 0.0 nan"),
        ("jacobi", JACOBI_16, "epsilons = 1e-4 5e-5", "epsilons = 0"),
        ("jacobi", JACOBI_16, "epsilons = 1e-4 5e-5", "epsilons = 1e-4"),
        ("jacobi", JACOBI_16, "epsilons = 1e-4 5e-5", "epsilons = 1e-4 1e-4"),
        ("jacobi", JACOBI_16, "epsilons = 1e-4 5e-5", "epsilons = 1e-4 0"),
        ("jacobi", JACOBI_16, "epsilons = 1e-4 5e-5", "epsilons = inf"),
        ("jacobi", JACOBI_16, "epsilons = 1e-4 5e-5", "epsilons = 1e-4 nan"),
        ("simulate2d", RANDOM_16, "kmax = 3", "kmax = 3\nspectrum_slope = nan"),
        ("simulate2d", RANDOM_16, "kmax = 3", "kmax = 3\nspectrum_slope = -inf"),
        ("alpha-sweep", SWEEP, "k = 1 0", "k = 2"),
        ("alpha-sweep", SWEEP, "k = 1 0", "k = 1 0 2"),
        ("simulate2d", SINGLE_16, "k = 1 0", "k = 1"),
        ("simulate2d", SINGLE_16, "k = 1 0", "k = 1 0 2"),
        ("ch", CH, "k = 1", "k = 1 2"),
        ("blob", SHORT.format("blob"), "[time]", "[grid]\nnx = 16\n[ic]\nkind = two_mode\nk1 = 1 0\n[time]"),
        (
            "simulate2d", SHORT.format("simulate2d"), "[time]",
            "[ic]\nn_blobs = 3\n[experiment]\npairs = 5\nnus = 0.1 0.01\n[time]",
        ),
        # a [physics] nu that the dissipation contradicts: ignored, or missing
        ("simulate2d", SIMULATE2D_16, "[time]", "[physics]\ndissipation = inviscid\nnu = 0.5\n[time]"),
        ("simulate2d", SIMULATE2D_16, "[time]", "[physics]\ndissipation = viscous\n[time]"),
    ]

    @pytest.mark.parametrize("experiment, text, old, new", PARSE_CASES, ids=[f"{c[0]}: {c[3]}" for c in PARSE_CASES])
    def test_rejected_at_parse_time(self, tmp_path, capsys, experiment, text, old, new):
        assert old in text
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text.replace(old, new))
        out = tmp_path / "out"
        assert main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "(line " in err[0]
        line = int(err[0].rsplit("(line ", 1)[1].rstrip(")"))
        key = text.replace(old, new).splitlines()[line - 1].split("=")[0].strip()
        assert repr(key) in err[0]  # the error names the key on the line it cites
        assert not out.exists()

    @pytest.mark.parametrize("experiment, text", [
        ("simulate2d", SINGLE_16), ("alpha-sweep", SWEEP), ("blob", BLOB), ("ch", CH),
    ], ids=["simulate2d", "alpha-sweep", "blob", "ch"])
    def test_well_formed_inputs_still_run(self, tmp_path, experiment, text):
        cfg_path = tmp_path / "ok.cfg"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 0
        assert read_manifest(out)["status"] == "COMPLETE"


class TestIcWavevectorBand:
    """A torus ic wavevector that is (0, 0), or that lies outside the 2/3 band
    state_from_velocity keeps, is a config error from the driver: it would
    integrate a flow at rest, or one aliased onto a lower mode."""

    CASES = [
        (SINGLE_16, "k = 1 0", "k = 0 0", "k"),
        (SINGLE_16, "k = 1 0", "k = 8 0", "k"),
        (SINGLE_16, "k = 1 0", "k = 100 0", "k"),
        (SINGLE_16, "k = 1 0", "k = 0 -6", "k"),
        (TWO_MODE_16, "k1 = 1 0", "k1 = 0 0", "k1"),
        (TWO_MODE_16, "k2 = 2 1", "k2 = 0 0", "k2"),
        (TWO_MODE_16, "k2 = 2 1", "k2 = 2 6", "k2"),
        (RANDOM_16, "kmax = 3", "kmax = 6", "kmax"),
        (RANDOM_16, "kmax = 3", "kmax = 40", "kmax"),
    ]

    @pytest.mark.parametrize("text, old, new, key", CASES, ids=[c[2] for c in CASES])
    def test_rejected_by_driver(self, tmp_path, capsys, text, old, new, key):
        assert old in text
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text.replace(old, new))
        out = tmp_path / "out"
        assert main(["simulate2d", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: [ic] {key} ")
        manifest = read_manifest(out)
        assert manifest["status"] == "INCOMPLETE"
        assert manifest["abort_reason"].startswith(f"[ic] {key} ")

    @pytest.mark.parametrize("text, old, new", [
        (SINGLE_16, "k = 1 0", "k = 5 -5"),
        (TWO_MODE_16, "k2 = 2 1", "k2 = -5 5"),
        (RANDOM_16, "kmax = 3", "kmax = 5"),
    ], ids=["k = 5 -5", "k2 = -5 5", "kmax = 5"])
    def test_band_edge_still_runs(self, tmp_path, text, old, new):
        cfg_path = tmp_path / "ok.cfg"
        cfg_path.write_text(text.replace(old, new))
        out = tmp_path / "out"
        assert main(["simulate2d", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["status"] == "COMPLETE"
        assert float(manifest["energy_final"]) > 0.0


class TestSweepPlane:
    """An alpha-sweep whose stream modes k and l = k + eps span no plane (one of
    them the mean mode, or l = +-k) is a config error from the driver, not a
    numerical abort."""

    CASES = [
        ("k = 1 0", "k = 0 0", "eps = 0 1", "eps = 0 1"),
        ("k = 1 0", "k = 1 0", "eps = 0 1", "eps = 0 0"),
        ("k = 1 0", "k = 1 0", "eps = 0 1", "eps = -2 0"),
        ("k = 1 0", "k = 1 0", "eps = 0 1", "eps = -1 0"),
    ]

    @pytest.mark.parametrize("old_k, new_k, old_eps, new_eps", CASES, ids=["k = 0", "l = k", "l = -k", "l = 0"])
    def test_rejected_by_driver(self, tmp_path, capsys, old_k, new_k, old_eps, new_eps):
        assert old_k in SWEEP and old_eps in SWEEP
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(SWEEP.replace(old_k, new_k).replace(old_eps, new_eps))
        out = tmp_path / "out"
        assert main(["alpha-sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: [ic] k and [experiment] eps ") and "span no plane" in err[0]
        manifest = read_manifest(out)
        assert manifest["status"] == "INCOMPLETE"
        assert "span no plane" in manifest["abort_reason"]


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(SMALL_2D)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_experiment(cfg, str(out1), seed=11) == 0
        assert run_experiment(cfg, str(out2), seed=11) == 0
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
        assert (out1 / "final.ckpt").read_bytes() == (out2 / "final.ckpt").read_bytes()

    def test_restart_matches_straight_run(self, tmp_path):
        from test_dynamics import two_mode_state
        from alpha_fluids.spectral import make_grid

        g = make_grid(32, 32)
        mode = DissipationMode.viscous(0.02)
        st = two_mode_state(g, 0.25)
        straight = run(st, 1e-3, 0.04, mode)
        half = run(st, 1e-3, 0.02, mode)
        path = tmp_path / "mid.ckpt"
        write_checkpoint(half, path, nu=0.02)
        resumed, _ = read_checkpoint(path)
        finished = run(resumed, 1e-3, 0.02, mode)
        scale = np.abs(straight.q.coeffs).max()
        assert np.abs(finished.q.coeffs - straight.q.coeffs).max() < 1e-14 * scale


class TestNumericalAbort:
    def test_blowup_yields_incomplete_manifest_and_exit_2(self, tmp_path):
        cfg = parse_config(
            SMALL_2D.replace("dissipation = viscous", "dissipation = strong")
            .replace("nu = 0.01", "nu = 80.0")
            .replace("t_final = 0.05", "t_final = 2.0")
        )
        out = tmp_path / "boom"
        assert run_experiment(cfg, str(out), seed=1) == 2
        manifest = read_manifest(out)
        assert manifest["status"] == "INCOMPLETE"
        assert "t_last_good" in manifest
        assert (out / "series.csv").exists()  # partial series still emitted

    def test_nonfinite_particles_yield_incomplete_manifest_and_exit_2(self, tmp_path, monkeypatch):
        def lost(*args, **kwargs):
            raise FloatingPointError("particle positions lost finiteness at t=0.001")

        monkeypatch.setattr(runner, "co_advect", lost)
        out = tmp_path / "particles"
        assert main(["flowmap", "--config", os.path.join(CONFIG_DIR, "flowmap_transport.cfg"), "--out", str(out)]) == 2
        manifest = read_manifest(out)
        assert manifest["status"] == "INCOMPLETE"
        assert "finiteness" in manifest["abort_reason"]

    def test_support_overflow_yields_incomplete_manifest_and_exit_2(self, tmp_path, monkeypatch):
        def overflow(*args, **kwargs):
            raise SupportOverflowError("product support (9,0) exceeds the 16x16 grid; rerun on a larger grid")

        monkeypatch.setattr(runner, "sectional_curvature", overflow)
        out = tmp_path / "curvature"
        cfg_path = os.path.join(CONFIG_DIR, "curvature_anchor.cfg")
        assert main(["curvature", "--config", cfg_path, "--out", str(out)]) == 2
        manifest = read_manifest(out)
        assert manifest["status"] == "INCOMPLETE"
        assert "exceeds the 16x16 grid" in manifest["abort_reason"]

    def test_degenerate_plane_yields_incomplete_manifest_and_exit_2(self, tmp_path, monkeypatch, capsys):
        def collinear(*args, **kwargs):
            raise DegeneratePlaneError("directions are numerically collinear")

        monkeypatch.setattr(runner, "sectional_curvature", collinear)
        out = tmp_path / "curvature"
        cfg_path = os.path.join(CONFIG_DIR, "curvature_anchor.cfg")
        assert main(["curvature", "--config", cfg_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == ""
        manifest = read_manifest(out)
        assert manifest["status"] == "INCOMPLETE"
        assert manifest["abort_reason"] == "directions are numerically collinear"

    def test_curvature_overflow_yields_incomplete_manifest_and_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(SWEEP.replace("k = 1 0", "k = 2 2").replace("alphas = 0.0 0.5", "alphas = 0.5 1e77"))
        out = tmp_path / "sweep"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["alpha-sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        manifest = read_manifest(out)
        assert manifest["status"] == "INCOMPLETE"
        assert "alpha = 1e+77" in manifest["abort_reason"]

    def test_cfl_reaching_one_on_step_3_aborts_there(self, tmp_path, monkeypatch):
        """The guard runs every step; a CFL number the run grows into is a numerical abort."""
        numbers = iter([0.2, 0.4, 1.5, 0.1])
        checked = []

        def cfl(state, dt):
            checked.append(state.t)
            return next(numbers)

        monkeypatch.setattr(dynamics, "_cfl_number", cfl)
        cfg_path = tmp_path / "small.cfg"
        cfg_path.write_text(SMALL_2D)
        out = tmp_path / "cfl"
        assert main(["simulate2d", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert checked == pytest.approx([0.0, 2e-3, 4e-3])
        manifest = read_manifest(out)
        assert manifest["status"] == "INCOMPLETE"
        assert manifest["abort_reason"].startswith("CFL number 1.50")
        assert float(manifest["t_last_good"]) == pytest.approx(4e-3)


    def test_ch_blow_up_is_exit_2_with_the_rows_so_far(self, tmp_path, capsys):
        """Non-finite velocity in the CH integrator is a numerical abort, not bad input."""
        cfg_path = tmp_path / "ch.cfg"
        cfg_path.write_text(
            "[run]\nexperiment = ch\n[experiment]\nn = 64\nbc = periodic\n[ic]\namp = 50\nk = 3\n"
            "[time]\ndt = 0.05\nt_final = 5\n[output]\nseries_every = 1\n"
        )
        out = tmp_path / "ch"
        with np.errstate(all="ignore"):
            assert main(["ch", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "error:" not in capsys.readouterr().err
        manifest = read_manifest(out)
        assert manifest["status"] == "INCOMPLETE"
        assert manifest["abort_reason"].startswith("blow-up detected")
        t_last = float(manifest["t_last_good"])
        t = np.loadtxt(out / "series_periodic.csv", delimiter=",", skiprows=1)[:, 0]
        assert 0.0 < t_last < 5.0
        assert t == pytest.approx(np.arange(len(t)) * 0.05) and t[-1] == pytest.approx(t_last)


    def test_ch_blow_up_prints_no_numpy_warnings(self, tmp_path, capsys):
        """The run silences the floating-point warnings on the way to a detected blow-up."""
        cfg_path = tmp_path / "ch.cfg"
        cfg_path.write_text(
            "[run]\nexperiment = ch\n[experiment]\nn = 64\nbc = periodic\n[ic]\namp = 50\nk = 3\n"
            "[time]\ndt = 0.05\nt_final = 5\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["ch", "--config", str(cfg_path), "--out", str(tmp_path / "ch")]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""


class TestZeroInitialEnergy:
    """A flow at rest conserves everything exactly: its drifts read 0, not a crash or nan."""

    @pytest.mark.parametrize("experiment, text, keys", [
        (
            "simulate2d",
            SMALL_2D.replace("amps = 0.2 0.15", "amps = 0.0 0.0"),
            ["energy_drift_rel"] + [f"casimir_{n}_drift_rel" for n in range(1, 5)],
        ),
        (
            "ch",
            "[run]\nexperiment = ch\n[experiment]\nn = 32\nbc = both\n[ic]\namp = 0.0\nk = 1\n"
            "[time]\ndt = 0.01\nt_final = 0.05\n",
            ["energy_drift_rel_dirichlet", "energy_drift_rel_periodic"],
        ),
        (
            "blob",
            "[run]\nexperiment = blob\n[physics]\nalpha = 0.3\n[ic]\nkind = blob_ring\nn_blobs = 3\n"
            "radius = 1.0\ngamma = 0.0\n[time]\ndt = 1e-2\nt_final = 0.05\n",
            ["hamiltonian_drift_rel", "impulse_drift_rel", "angular_impulse_drift_rel", "circulation_drift_rel"],
        ),
    ], ids=["simulate2d", "ch", "blob"])
    def test_drifts_read_zero(self, tmp_path, capsys, experiment, text, keys):
        cfg_path = tmp_path / "rest.cfg"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        manifest = read_manifest(out)
        assert manifest["status"] == "COMPLETE"
        assert [float(manifest[k]) for k in keys] == [0.0] * len(keys)

    def test_drift_helper(self):
        assert runner._drift_rel(0.0, 0.0, 0.0) == 0.0
        assert runner._drift_rel(0.0, 1e-300, 0.0) == math.inf
        assert runner._drift_rel(2.0, 2.5, 4.0) == abs(2.5 - 2.0) / 4.0


class TestBadInput:
    @pytest.mark.parametrize(
        "name, experiment", [("conservation_128.cfg", "simulate2d"), ("flowmap_transport.cfg", "flowmap")]
    )
    def test_cfl_violation_is_exit_1_with_incomplete_manifest(self, tmp_path, capsys, name, experiment):
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            text = fh.read()
        assert "dt = 1e-3" in text
        cfg_path = tmp_path / name
        cfg_path.write_text(text.replace("dt = 1e-3", "dt = 0.5"))
        out = tmp_path / "out"
        assert main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: CFL number")
        manifest = read_manifest(out)
        assert manifest["status"] == "INCOMPLETE"
        assert manifest["abort_reason"].startswith("CFL number")


class TestCsvFormat:
    def test_full_precision_and_headers(self, tmp_path):
        cfg = parse_config(SMALL_2D)
        out = tmp_path / "csv"
        run_experiment(cfg, str(out), seed=11)
        lines = (out / "series.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t_time"
        assert header[1] == "E_alpha_energy"
        # reparse and verify 17-significant-digit round trip of a float cell
        cell = lines[1].split(",")[1]
        assert float(cell) == float(format(float(cell), ".17g"))

    def test_manifest_has_hash_and_version(self, tmp_path):
        cfg = parse_config(SMALL_2D)
        out = tmp_path / "man"
        run_experiment(cfg, str(out), seed=11)
        manifest = read_manifest(out)
        assert len(manifest["config_sha256"]) == 64
        assert manifest["code_version"]
        assert "config.grid.nx" in manifest


class TestBlobDriverEdge:
    def test_endpoint_only_series(self, tmp_path):
        cfg = parse_config(
            """
[run]
experiment = blob
[physics]
alpha = 0.3
[ic]
kind = blob_ring
n_blobs = 3
radius = 1.0
gamma = 1.0
[time]
dt = 1e-2
t_final = 0.1
[output]
series_every = 0
"""
        )
        out = tmp_path / "blob0"
        assert run_experiment(cfg, str(out), seed=0) == 0
        lines = (out / "series.csv").read_text().splitlines()
        assert len(lines) == 3  # header + first + last


VISC_32 = """
[run]
experiment = visc-limit
[grid]
nx = 32
ny = 32
[physics]
alpha = 0.2
[time]
dt = 2e-3
t_final = 0.1
[ic]
kind = two_mode
k1 = 1 0
k2 = 2 1
amps = 0.2 0.15
[experiment]
nus = 0.1 0.01
variants = viscous
"""


# a small run of every experiment built from independent legs, with its leg count
LEG_RUNS = {
    "visc-limit": (VISC_32, 3),  # the inviscid leg and two viscosities of one variant
    "flowmap": ("""
[run]
experiment = flowmap
[grid]
nx = 16
ny = 16
[time]
dt = 0.01
t_final = 0.02
[experiment]
m = 8
t_diag = 0.01
refine = 1
ladders = both
""", 5),  # the main run and two rungs of each ladder
    "ch": ("""
[run]
experiment = ch
[experiment]
n = 32
bc = both
[time]
dt = 1e-3
t_final = 0.01
""", 2),  # one leg per boundary condition
    "jacobi": ("""
[run]
experiment = jacobi
[grid]
nx = 16
ny = 16
[time]
dt = 0.01
t_final = 0.02
[experiment]
epsilons = 1e-4 5e-5 2.5e-5
""", 6),  # the tangent, steady and base runs and one endpoint per epsilon
}

# the 16x16 visc-limit run that grows past CFL 1 in its first strong-dissipation leg
VISC_ABORT = """
[run]
experiment = visc-limit
[grid]
nx = 16
ny = 16
[physics]
alpha = 0.2
[time]
dt = 0.01
t_final = 0.5
[ic]
kind = two_mode
k1 = 1 0
k2 = 2 1
amps = 0.25 0.2
phases = 0.0 0.7
[experiment]
nus = 100 10
variants = both
"""


class TestSweepParallelism:
    def test_visc_limit_threads_agree(self, tmp_path):
        cfg = parse_config(VISC_32)
        out1, out2 = tmp_path / "st", tmp_path / "mt"
        assert run_experiment(cfg, str(out1), seed=0, threads=1) == 0
        assert run_experiment(cfg, str(out2), seed=0, threads=2) == 0
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    @pytest.mark.parametrize("experiment", sorted(LEG_RUNS))
    def test_pool_is_no_larger_than_the_sweep(self, tmp_path, monkeypatch, experiment):
        """A fork pool starts all its workers up front, so --threads must not size it alone."""
        sizes = []

        class InProcessPool:  # records the size asked for and starts no process
            def __init__(self, max_workers, initializer):
                assert initializer is runner._retain_freed_memory
                sizes.append(max_workers)

            def submit(self, call):
                done = concurrent.futures.Future()
                done.set_result(call())
                return done

            def shutdown(self, cancel_futures):
                pass

        monkeypatch.setattr(runner, "ProcessPoolExecutor", InProcessPool)
        text, n_legs = LEG_RUNS[experiment]
        assert run_experiment(parse_config(text), str(tmp_path), seed=0, threads=100000) == 0
        assert sizes == [n_legs]

    @pytest.mark.parametrize("experiment", sorted(LEG_RUNS))
    def test_legs_and_their_results_pickle(self, tmp_path, monkeypatch, experiment):
        """What a spawn or forkserver worker needs: every call, and what it returns,
        crosses the process boundary, and the run writes the same artifacts."""
        text, _ = LEG_RUNS[experiment]
        here, crossed = tmp_path / "here", tmp_path / "crossed"
        assert run_experiment(parse_config(text), str(here), seed=0) == 0

        def crossing(calls, threads):
            results = [pickle.loads(pickle.dumps(call))() for call in calls]
            return [pickle.loads(pickle.dumps(result)) for result in results]

        monkeypatch.setattr(runner, "_legs", crossing)
        assert run_experiment(parse_config(text), str(crossed), seed=0) == 0
        for f in sorted(here.iterdir()):
            if f.name != "manifest.txt":
                assert (crossed / f.name).read_bytes() == f.read_bytes(), f.name

    @pytest.mark.filterwarnings("ignore:CFL number:UserWarning")  # the run's CFL number grows before it aborts
    def test_abort_in_a_worker_reaches_the_manifest(self, tmp_path, capfd):
        """Exit 2 and the same INCOMPLETE manifest for one worker or two, and no traceback."""
        cfg_path = tmp_path / "abort.cfg"
        cfg_path.write_text(VISC_ABORT)
        manifests = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            assert main(["visc-limit", "--config", str(cfg_path), "--out", str(out), "--threads", str(threads)]) == 2
            assert "Traceback" not in capfd.readouterr().err
            manifests.append(read_manifest(out))
        assert manifests[0]["status"] == manifests[1]["status"] == "INCOMPLETE"
        assert manifests[0]["abort_reason"] == manifests[1]["abort_reason"] == "CFL number 5.43 >= 1; reduce dt"
        assert manifests[0]["t_last_good"] == manifests[1]["t_last_good"]

    def test_every_abort_and_config_error_survive_pickle(self):
        """A leg's exception comes back from its worker with its message and fields."""
        errors = [
            BlowUpError(0.03, "CFL number 5.43 >= 1; reduce dt"),
            BlowUpError(0.5),
            MonotonicityError(0.25),
            FloatingPointError("particle positions lost finiteness at t=0.001"),
            SupportOverflowError("product support (9,0) exceeds the 16x16 grid; rerun on a larger grid"),
            DegeneratePlaneError("directions are numerically collinear"),
            ConfigError("[ic] k = 0 0 is the mean mode, which carries no flow", line=7),
        ]
        assert {type(e) for e in errors} == set(runner._ABORTS) | {ConfigError}
        for e in errors:
            back = pickle.loads(pickle.dumps(e))
            assert (type(back), str(back), vars(back)) == (type(e), str(e), vars(e))


class TestInitialState:
    def test_shipped_mean_velocity_has_no_sign_bit(self):
        """A -0.0 mean would reach the checkpoint header as a set sign bit."""
        cfg = load_config(os.path.join(CONFIG_DIR, "conservation_128.cfg"))
        st = runner.initial_state(cfg, runner._grid_from(cfg), AlphaParam(cfg.get("physics", "alpha")), 0)
        assert not np.signbit(st.mean_velocity).any()
