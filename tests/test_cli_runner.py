"""CLI and experiment orchestration: exit codes, determinism, restartability."""

import math
import os

import numpy as np
import pytest

from alpha_fluids import runner
from alpha_fluids.checkpoint import read_checkpoint, write_checkpoint
from alpha_fluids.cli import main
from alpha_fluids.config import parse_config
from alpha_fluids.dynamics import DissipationMode, run
from alpha_fluids.runner import run_experiment

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

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ALPHA_FLUIDS_THREADS", "not-a-number")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_2D)
        assert main(["simulate2d", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0


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


class TestSweepParallelism:
    def test_visc_limit_threads_agree(self, tmp_path):
        text = """
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
        cfg = parse_config(text)
        out1, out2 = tmp_path / "st", tmp_path / "mt"
        assert run_experiment(cfg, str(out1), seed=0, threads=1) == 0
        assert run_experiment(cfg, str(out2), seed=0, threads=2) == 0
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
