"""Small-scale end-to-end runs of every experiment driver."""

import os

import numpy as np
import pytest

from alpha_fluids.config import parse_config
from alpha_fluids.runner import run_experiment


def manifest_of(outdir):
    entries = {}
    with open(os.path.join(outdir, "manifest.txt")) as fh:
        for line in fh:
            k, _, v = line.partition(" = ")
            entries[k.strip()] = v.strip()
    return entries


def launch(tmp_path, text, seed=3):
    cfg = parse_config(text)
    out = tmp_path / cfg.experiment
    rc = run_experiment(cfg, str(out), seed=seed)
    assert rc == 0
    return manifest_of(out), out


def test_ch_driver(tmp_path):
    man, out = launch(
        tmp_path,
        """
[run]
experiment = ch
[experiment]
n = 128
bc = both
[time]
dt = 1e-3
t_final = 0.1
[ic]
amp = 0.1
k = 1
""",
    )
    assert float(man["energy_drift_rel_dirichlet"]) < 1e-6
    assert float(man["energy_drift_rel_periodic"]) < 1e-6
    assert (out / "series_dirichlet.csv").exists()
    assert (out / "series_periodic.csv").exists()


def test_curvature_driver(tmp_path):
    man, out = launch(
        tmp_path,
        """
[run]
experiment = curvature
[experiment]
pairs = 8
kmax = 2
""",
    )
    assert abs(float(man["anchor_K"]) - float(man["anchor_target"])) < 1e-12
    assert float(man["max_rel_dev_from_closed_form"]) < 1e-10
    assert float(man["max_K_observed"]) <= 1e-12
    rows = (out / "pairs.csv").read_text().splitlines()
    assert len(rows) == 9  # header + 8 pairs


def test_alpha_sweep_driver(tmp_path):
    man, out = launch(
        tmp_path,
        """
[run]
experiment = alpha-sweep
[ic]
k = 1 0
[experiment]
eps = 0 1
alphas = 0.0 0.5 1.0
""",
    )
    assert man["alpha0"] == "no flip in (0,1]"
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert len(sweep) == 4
    assert all(float(line.split(",")[1]) < 0 for line in sweep[1:])


def test_jacobi_driver(tmp_path):
    man, out = launch(
        tmp_path,
        """
[run]
experiment = jacobi
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
epsilons = 1e-4 5e-5
""",
    )
    assert 1.4 <= float(man["fd_error_ratio"]) <= 2.6
    assert float(man["steady_tangent_drift_rel"]) < 1e-8
    assert (out / "norms.csv").exists() and (out / "fd_check.csv").exists()


def test_flowmap_driver(tmp_path):
    man, out = launch(
        tmp_path,
        """
[run]
experiment = flowmap
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
k2 = 1 1
amps = 0.1 0.05
[experiment]
m = 16
t_diag = 0.05
refine = 1
ladders = both
""",
    )
    assert float(man["transport_error_final"]) < 1e-6
    assert float(man["volume_error_final"]) < 1e-3
    assert (out / "transport.csv").exists() and (out / "volume.csv").exists()


def test_random_seeded_ic(tmp_path):
    man, _ = launch(
        tmp_path,
        """
[run]
experiment = simulate2d
[grid]
nx = 32
ny = 32
[physics]
alpha = 0.3
[time]
dt = 2e-3
t_final = 0.05
[ic]
kind = random_seeded
kmax = 3
spectrum_slope = -2.0
amp = 0.2
""",
        seed=99,
    )
    assert man["status"] == "COMPLETE"
    assert float(man["energy_drift_rel"]) < 1e-9


VISC_LIMIT = """
[run]
experiment = visc-limit
[grid]
nx = 16
ny = 16
[physics]
alpha = 0.2
[time]
dt = 1e-2
t_final = 0.1
[ic]
kind = {kind}
[experiment]
nus = 0.1 0.01
variants = viscous
"""


def test_visc_limit_follows_ic_kind(tmp_path):
    summaries = {}
    for kind in ("single_mode", "two_mode"):
        out = tmp_path / kind
        assert run_experiment(parse_config(VISC_LIMIT.format(kind=kind)), str(out), seed=0) == 0
        summaries[kind] = (out / "summary.csv").read_bytes()
    assert summaries["single_mode"] != summaries["two_mode"]


# ten steps of dt = 0.01 in each driver that writes a time series
SERIES_RUNS = {
    "simulate2d": ("[grid]\nnx = 16\nny = 16\n", "series.csv"),
    "blob": ("[ic]\nn_blobs = 3\n", "series.csv"),
    "ch": ("[experiment]\nn = 32\nbc = periodic\n", "series_periodic.csv"),
}


@pytest.mark.parametrize("every, n_rows", [(0, 2), (5, 3), (3, 5)])  # 0 and 10; 0, 5, 10; 0, 3, 6, 9, 10
@pytest.mark.parametrize("experiment", sorted(SERIES_RUNS))
def test_series_rows(tmp_path, experiment, every, n_rows):
    """The start, every `every`-th step, and the final state exactly once."""
    sections, name = SERIES_RUNS[experiment]
    text = f"[run]\nexperiment = {experiment}\n{sections}[time]\ndt = 0.01\nt_final = 0.1\n"
    _, out = launch(tmp_path, text + f"[output]\nseries_every = {every}\n")
    t = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)[:, 0]
    assert len(t) == n_rows
    assert t[0] == 0.0
    assert np.all(np.diff(t) > 0.0)
    assert t[-1] == pytest.approx(0.1, abs=1e-15)
