"""Command-line entry point.

    alpha-fluids <experiment> --config <path> [--out <dir>] [--seed <u64>] [--threads <n>]

The positional experiment must agree with the config's [run] experiment (a
guard against launching the wrong file).  --threads falls back to the
ALPHA_FLUIDS_THREADS environment variable, then 1.  Exit status: 0 success,
1 usage, configuration or other bad-input (e.g. CFL) error, 2 numerical abort.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import EXPERIMENTS, ConfigError, load_config
from .runner import run_experiment


def _default_threads() -> int:
    raw = os.environ.get("ALPHA_FLUIDS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="alpha-fluids",
        description="batch experiment driver for the averaged-fluids laboratory",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="path to a sectioned key=value config file")
    parser.add_argument("--out", default=None, help="output directory (default: [run] out, else ./runs/<experiment>)")
    parser.add_argument("--seed", type=int, default=None, help="64-bit root seed (default: [run] seed, else 0)")
    parser.add_argument("--threads", type=int, default=None, help="worker count for sweeps (env ALPHA_FLUIDS_THREADS)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if cfg.experiment != args.experiment:
        print(
            f"error: config declares experiment {cfg.experiment!r}, command line says {args.experiment!r}",
            file=sys.stderr,
        )
        return 1

    outdir = args.out or cfg.get("run", "out") or os.path.join("runs", cfg.experiment)
    seed = args.seed if args.seed is not None else cfg.get("run", "seed", 0)
    threads = args.threads if args.threads is not None else _default_threads()
    return run_experiment(cfg, outdir, seed=seed, threads=threads)


if __name__ == "__main__":
    sys.exit(main())
