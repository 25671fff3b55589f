"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The end-to-end test runs every workload briefly, untraced and traced, twice
(about three minutes on two cores).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from tracing import COUNTERS, LAYERS, Patch, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _is_count(name: str) -> bool:
    return name.endswith(".calls") or name in COUNTERS


@pytest.fixture(scope="module")
def two_runs():
    runs = []
    for _ in range(2):
        done = _bench("--workload", "all", "--seed", "5", "--seconds", "1")
        assert done.returncode == 0, done.stderr
        runs.append((done.stdout, json.loads(done.stdout.strip().splitlines()[-1])))
    return runs


def test_one_command_prints_every_metric_with_its_unit(two_runs):
    stdout, summary = two_runs[0]
    spec = _spec()
    lines = {tuple(line.split()[:2]): line.split()[-1] for line in stdout.splitlines() if "#" not in line}
    for workload in spec["workloads"]:
        w = workload["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            for metric in spec[group]:
                assert lines.get((w, metric["name"])) == metric["unit"], (w, metric["name"])
                assert summary["metrics"][f"{w}.{trace}.{metric['name']}"]["unit"] == metric["unit"]
    assert summary["correct"] and summary["failed"] == 0


def test_counts_repeat_exactly(two_runs):
    (_, first), (_, second) = two_runs
    counts = {k: v["value"] for k, v in first["metrics"].items() if _is_count(k.split(".", 2)[2])}
    assert counts
    assert counts == {k: second["metrics"][k]["value"] for k in counts}


def test_spec_matches_the_metrics_the_benchmark_emits():
    from run import END_TO_END
    from tracing import layer_metric_units
    from workloads import WORKLOADS

    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_metric_units()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "torus-128", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_patch_reaches_every_binding_and_restores_it():
    from alpha_fluids import dynamics, flowmap, runner

    original = dynamics.step_rk4
    patch = Patch()
    Tracer().install(patch, [("dynamics", "step_rk4")])
    try:
        assert dynamics.step_rk4 is not original
        assert flowmap.step_rk4 is dynamics.step_rk4 is runner.step_rk4
    finally:
        patch.restore()
    assert dynamics.step_rk4 is original and flowmap.step_rk4 is original and runner.step_rk4 is original


def test_self_times_partition_the_traced_time():
    from alpha_fluids import runner
    from alpha_fluids.config import parse_config
    from alpha_fluids.spectral import AlphaParam, make_grid

    cfg = parse_config("[run]\nexperiment = simulate2d\n[grid]\nnx = 16\nny = 16\n")
    tracer = Tracer()
    patch = Patch()
    tracer.install(patch, [])
    tracer.begin_pass()
    try:
        runner.initial_state(cfg, make_grid(16, 16), AlphaParam(0.2), 0)
    finally:
        patch.restore()
    tracer.end_pass()
    layers = tracer.pass_layers(0, len(tracer.spans))
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
    assert sum(v for k, v in layers.items() if k.endswith(".self_s")) == pytest.approx(roots, rel=1e-9)
    names = {f"{m}.{n}" for m, ns in LAYERS.items() for n in ns}
    assert {s[0] for s in tracer.spans} <= names
    assert tracer.passes[0][2]["runner.initial_state"] == 1
