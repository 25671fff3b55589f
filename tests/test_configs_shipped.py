"""Every shipped config parses, validates, names a real experiment, and reruns
byte for byte."""

import copy
import glob
import hashlib
import os

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


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=stem)
def test_single_threaded_rerun_is_byte_identical(path, tmp_path):
    cfg = load_config(path)
    sections = copy.deepcopy(cfg.sections)
    for (section, key), value in SHORTENED.get(stem(path), {}).items():
        sections.setdefault(section, {})[key] = value
    cfg = RunConfig(cfg.experiment, sections)
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert run_experiment(cfg, str(out), seed=cfg.get("run", "seed"), threads=1) == 0
        digests.append(
            {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir() if f.name != "manifest.txt"}
        )
    assert digests[0]  # every experiment writes at least one data artifact
    assert digests[0] == digests[1]
