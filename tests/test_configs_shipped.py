"""Every shipped config parses, validates, names a real experiment, and reruns
byte for byte, with one worker process or two.  Run as a script, prints the
sha256 of every data artifact."""

import copy
import glob
import hashlib
import os
import pathlib

import pytest

from alpha_fluids.config import EXPERIMENTS, RunConfig, load_config, parse_config
from alpha_fluids.runner import run_experiment

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
CONFIG_PATHS = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))

# the shortened lengths of the artifact-parity runs; every other config runs in full
SHORTENED = {
    "blob_ring": {("time", "t_final"): 1.0},
    "camassa_holm": {("time", "t_final"): 0.05},
    "conservation_128": {("time", "t_final"): 0.05, ("output", "checkpoint_every"): 10},
    "flowmap_transport": {("time", "t_final"): 0.02, ("experiment", "t_diag"): 0.01},
    "flowmap_volume": {("time", "t_final"): 0.05, ("experiment", "t_diag"): 0.025},
    "jacobi": {("time", "t_final"): 0.02},
    "visc_limit": {("time", "t_final"): 0.02},
}


def stem(path):
    return os.path.basename(path)[: -len(".cfg")]


def test_shipped_configs_parse():
    assert len(CONFIG_PATHS) >= 8
    assert set(SHORTENED) <= {stem(p) for p in CONFIG_PATHS}
    for path in CONFIG_PATHS:
        cfg = load_config(path)
        assert cfg.experiment in EXPERIMENTS
        # round trip through the canonical form
        assert parse_config(cfg.serialize()) == cfg


def artifact_digests(path, outdir, threads) -> dict:
    """{file name: sha256} of the data artifacts of one run of the shipped config
    at path, at its SHORTENED length, with `threads` workers, written to outdir."""
    cfg = load_config(path)
    sections = copy.deepcopy(cfg.sections)
    for (section, key), value in SHORTENED.get(stem(path), {}).items():
        sections.setdefault(section, {})[key] = value
    cfg = RunConfig(cfg.experiment, sections)
    assert run_experiment(cfg, str(outdir), seed=cfg.get("run", "seed"), threads=threads) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(pathlib.Path(outdir).iterdir()) if f.name != "manifest.txt"}


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=stem)
def test_single_threaded_rerun_is_byte_identical(path, tmp_path):
    digests = [artifact_digests(path, tmp_path / name, threads=1) for name in ("first", "second")]
    assert digests[0]  # every experiment writes at least one data artifact
    assert digests[0] == digests[1]


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=stem)
def test_two_workers_write_the_single_threaded_artifacts(path, tmp_path):
    assert artifact_digests(path, tmp_path / "two", threads=2) == artifact_digests(path, tmp_path / "one", threads=1)


if __name__ == "__main__":
    # "config file sha256" for every data artifact of every shipped config, after the
    # path of the alpha_fluids it ran; diff two commits' outputs with
    #   PYTHONPATH=<other checkout>/src python tests/test_configs_shipped.py > other.txt
    import argparse
    import tempfile

    import alpha_fluids

    parser = argparse.ArgumentParser(description="sha256 of every shipped config's data artifacts")
    parser.add_argument("--threads", type=int, default=1, help="worker processes per run")
    threads = parser.parse_args().threads
    print(alpha_fluids.__file__)
    for path in CONFIG_PATHS:
        with tempfile.TemporaryDirectory() as tmp:
            for name, digest in artifact_digests(path, os.path.join(tmp, "out"), threads).items():
                print(stem(path), name, digest)
