"""Benchmark of the alpha-fluids laboratory: one workload per invocation.

    python3 perfbench/run.py --workload torus-128 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from the root of a source checkout (``src/alpha_fluids`` and ``configs``
must be present; nothing is installed).  Each workload runs in fresh worker
processes (``worker.py``) with the BLAS thread count pinned.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of three fresh
processes, spawn to first timed unit), ``run_s`` (median per pass of the summed
``run_experiment`` wall time), ``unit_ms_p50``/``unit_ms_p90`` (one clock read
per unit of work), ``peak_rss_mb`` and ``success_frac`` (share of attempted
runs that exited 0 with a COMPLETE manifest, met their stated tolerance and
reproduced the first run's data artifacts byte for byte).

``--trace 1`` prints the per-layer metrics of ``tracing.LAYERS`` and
``tracing.COUNTERS`` from traced passes, and the tracing overhead as traced
over untraced ``run_s`` of the same process; spans go to ``spans.csv``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Outputs land in
``.perfbench_runs/`` under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from tracing import layer_metric_units
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_runs")
BLAS_THREADS = "1"  # single client, single thread: the byte-identical rerun mode
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "unit_ms_p50": "ms",
    "unit_ms_p90": "ms",
    "peak_rss_mb": "MiB",
    "success_frac": "fraction",
}


class BenchError(RuntimeError):
    pass


def host_record() -> dict:
    """CPU model and cache sizes, read from the kernel's CPU description."""
    record = {"nproc": os.cpu_count(), "cpu_model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    record["cpu_model"] = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for index in sorted(os.listdir(cache_dir)):
            try:
                parts = []
                for leaf in ("level", "type", "size"):
                    with open(os.path.join(cache_dir, index, leaf), encoding="utf-8") as fh:
                        parts.append(fh.read().strip())
            except OSError:
                continue
            record["caches"][f"L{parts[0]} {parts[1]}"] = parts[2]
    return record


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(argv: list, deadline: float) -> tuple[float, dict | None]:
    """Start worker.py; return (seconds from spawn to READY, final JSON or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        env=worker_env(),
        cwd=ROOT,
    )
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        status = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if status != 0 or ready is None:
        raise BenchError(f"worker {' '.join(argv)} ended with status {status} (killed at the deadline if negative)")
    return ready, (json.loads(last) if last is not None else None)


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    out = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if trace == 0:
        for i in range(SETUP_SAMPLES - 1):
            ready, _ = run_worker(common + ["--setup-only", "--out", os.path.join(out, f"setup{i}")], deadline)
            setups.append(ready)
    ready, raw = run_worker(common + ["--trace", str(trace), "--out", out], deadline)
    setups.append(ready)
    if raw is None:
        raise BenchError(f"worker for {workload} printed no result")

    attempted, failures = raw["attempted"], raw["failures"]
    correct = not failures
    if trace == 0:
        units = raw["unit_ms"]
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(raw["run_s"]),
            "unit_ms_p50": statistics.median(units),
            "unit_ms_p90": statistics.quantiles(units, n=10)[8],
            "peak_rss_mb": raw["peak_rss_mb"],
            "success_frac": 1.0 - len(failures) / attempted,
        }
        metric_units = END_TO_END
        notes = [
            f"units: {len(units)} x {WORKLOADS[workload].unit_label}",
            f"passes: {len(raw['run_s'])}; setup samples: {', '.join(f'{s:.3f}' for s in setups)} s",
        ]
    else:
        values = raw["layers"]
        metric_units = layer_metric_units()
        correct = correct and raw["counts_repeat"]
        self_times = {k[: -len(".self_s")]: v for k, v in values.items() if k.endswith(".self_s")}
        top = max(self_times, key=self_times.get)
        notes = [
            f"largest self time: {top} ({self_times[top]:.4f} s per pass)",
            f"counts repeat across traced passes: {raw['counts_repeat']}",
            f"spans: {os.path.relpath(os.path.join(out, 'spans.csv'), ROOT)}",
        ]
    record = {
        "workload": workload,
        "why": WORKLOADS[workload].why,
        "seed_note": WORKLOADS[workload].seed_note,
        "settings": raw["settings"],
        "host": host_record(),
        "checked": raw["checked"],
    }
    with open(os.path.join(out, "settings.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for failure in failures:
        print(f"FAILED {workload}: {failure}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metric_units.items()},
        "notes": notes,
        "record": record,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [
        p
        for p in (os.path.join("src", "alpha_fluids", "runner.py"), "configs")
        if not os.path.exists(os.path.join(ROOT, p))
    ]
    if missing:
        print(f"error: not a source checkout of alpha-fluids; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    seed = args.seed % 2**63  # [run] seed must be a nonnegative integer
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = []
    try:
        for workload, trace in runs:
            result = measure(workload, seed, args.seconds, trace, time.monotonic() + DEADLINE_S)
            results.append(result)
            for name, m in result["metrics"].items():
                print(f"{workload:12s} {name:44s} {m['value']:.6g} {m['unit']}")
            for note in result["notes"]:
                print(f"{workload:12s} # {note}")
            print(f"{workload:12s} # settings: {json.dumps(result['record']['settings'], sort_keys=True)}")
            print(f"{workload:12s} # host: {json.dumps(result['record']['host'], sort_keys=True)}")
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{w}.{t}.{k}": v for (w, t), r in zip(runs, results) for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
