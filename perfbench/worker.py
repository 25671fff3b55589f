"""One workload in one fresh process; started by ``run.py``, not by hand.

Set-up (imports, ``load_config``, a first-call warm-up run of each experiment)
ends with a ``READY`` line on stdout; the launcher times set-up up to that
line.  Unless ``--setup-only`` is given, passes follow: one ``run_experiment``
call per experiment of the workload, repeated until ``--seconds`` is spent.
With ``--trace 1`` passes alternate between untraced and traced.  The last
stdout line is one JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

from tracing import TRACE_OVERHEAD, Patch, Tracer, UnitClock
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from alpha_fluids import config as config_mod  # noqa: E402
from alpha_fluids import runner  # noqa: E402


def derive_config(name: str, overrides: dict, seed: int):
    """A shipped config with its run length shortened and the seed set.

    The result goes through the canonical text form and ``parse_config``, so
    every override is validated exactly as a config file would be.
    """
    cfg = config_mod.load_config(os.path.join(ROOT, "configs", name))
    sections = {s: dict(entries) for s, entries in cfg.sections.items()}
    for (section, key), value in overrides.items():
        sections.setdefault(section, {})[key] = value
    sections["run"]["seed"] = seed
    return config_mod.parse_config(config_mod.RunConfig(cfg.experiment, sections).serialize())


def read_manifest(outdir: str) -> dict:
    values = {}
    with open(os.path.join(outdir, "manifest.txt"), encoding="utf-8") as fh:
        for line in fh:
            key, _, raw = line.rstrip("\n").partition(" = ")
            try:
                values[key] = float(raw)
            except ValueError:
                values[key] = raw
    return values


def artifact_hashes(outdir: str) -> dict:
    """sha256 of every data artifact (CSV and checkpoint; not the manifest)."""
    return {
        name: hashlib.sha256(open(os.path.join(outdir, name), "rb").read()).hexdigest()
        for name in sorted(os.listdir(outdir))
        if name.endswith((".csv", ".ckpt"))
    }


class WorkloadRunner:
    """Passes of one workload with their correctness and determinism checks."""

    def __init__(self, name: str, seed: int, out: str):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.out = out
        self.attempted = 0
        self.failures: list = []
        self.checked: dict = {}  # "<experiment>.<key>" -> last value seen
        self.first_hashes: dict = {}

    def warm_up(self) -> None:
        for i, exp in enumerate(self.spec.experiments):
            if exp.warmup is None:
                continue
            cfg = derive_config(exp.config, exp.warmup, self.seed)
            runner.run_experiment(cfg, os.path.join(self.out, "warmup", str(i)), seed=self.seed)

    def run_pass(self, instrument) -> float:
        """One run_experiment per experiment; returns their summed wall time."""
        run_s = 0.0
        for i, exp in enumerate(self.spec.experiments):
            cfg = derive_config(exp.config, exp.overrides, self.seed)
            outdir = os.path.join(self.out, "runs", f"{i}-{cfg.experiment}")
            shutil.rmtree(outdir, ignore_errors=True)
            self.attempted += 1
            instrument.break_chain()
            t0 = time.perf_counter()
            try:
                status = runner.run_experiment(cfg, outdir, seed=self.seed)
            except Exception:  # a crash is a failed run, reported with the others
                run_s += time.perf_counter() - t0
                self.failures.append(f"{cfg.experiment}: raised\n{traceback.format_exc()}")
                continue
            run_s += time.perf_counter() - t0
            instrument.break_chain()
            problem = self._check(exp, cfg.experiment, outdir, status)
            if problem:
                self.failures.append(f"{cfg.experiment}: {problem}")
        return run_s

    def _check(self, exp, experiment: str, outdir: str, status: int) -> str:
        manifest = read_manifest(outdir)
        if status != 0 or manifest.get("status") != "COMPLETE":
            return f"exit {status}, manifest status {manifest.get('status')!r}"
        missed = []
        for key, ok, stated in exp.checks:
            value = manifest.get(key)
            self.checked[f"{experiment}.{key}"] = value
            if not ok(value):
                missed.append(f"{key} = {value!r} (needs {stated})")
        if missed:
            return "missed tolerance: " + "; ".join(missed)
        hashes = artifact_hashes(outdir)
        first = self.first_hashes.setdefault(experiment, hashes)
        if hashes != first:
            return "data artifacts differ from the first run of this seed"
        return ""


def settings(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": args.seed,
        "seconds": args.seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = WorkloadRunner(args.workload, args.seed, args.out)
    work.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    spec = work.spec
    clock = UnitClock()
    tracer = Tracer()
    untraced_s, traced_s, durations = [], [], []
    t_begin = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(untraced_s) > len(traced_s)
        patch = Patch()
        if traced:
            tracer.install(patch, spec.units)
            tracer.begin_pass()
        else:
            clock.install(patch, spec.units, spec.segments)
        try:
            run_s = work.run_pass(tracer if traced else clock)
        finally:
            patch.restore()
        if traced:
            tracer.end_pass()
            traced_s.append(run_s)
        else:
            untraced_s.append(run_s)
        durations.append(run_s)
        # stop before a pass that would overrun; at least one pass per mode
        elapsed = time.perf_counter() - t_begin
        if len(durations) >= 2 and elapsed + max(durations[-2:]) > args.seconds:
            break

    result = {
        "run_s": untraced_s,
        "unit_ms": clock.unit_ms(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": work.attempted,
        "failures": work.failures,
        "checked": work.checked,
        "settings": settings(args),
    }
    if args.trace == 1:
        layers, counts_repeat = tracer.layer_metrics()
        layers[TRACE_OVERHEAD] = statistics.median(traced_s) / statistics.median(untraced_s)
        result["layers"] = layers
        result["counts_repeat"] = counts_repeat
        tracer.write_spans(os.path.join(args.out, "spans.csv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
