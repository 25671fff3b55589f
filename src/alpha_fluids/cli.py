"""Command-line entry point.

    alpha-fluids <experiment> --config <path> [--out <dir>] [--seed <u64>] [--threads <n>]

The positional experiment must agree with the config's [run] experiment (a
guard against launching the wrong file).  --threads defaults to 1.  Exit
status: 0 success, 1 bad input (usage, config file, seed outside [0, 2^64),
--threads below 1, CFL) with one `error:` line on stderr, 2 numerical abort.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import EXPERIMENTS, ConfigError, load_config
from .runner import run_experiment


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so they leave by main's one error path."""

    def error(self, message):
        raise ConfigError(message)


def _worker_count(text: str) -> int:
    if (n := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"worker count {n} is below 1")
    return n


def main(argv=None) -> int:
    parser = _Parser(
        prog="alpha-fluids",
        description="batch experiment driver for the averaged-fluids laboratory",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="path to a sectioned key=value config file")
    parser.add_argument("--out", default=None, help="output directory (default: [run] out, else ./runs/<experiment>)")
    parser.add_argument("--seed", type=int, default=None, help="64-bit root seed (default: [run] seed, else 0)")
    parser.add_argument("--threads", type=_worker_count, default=1, help="worker count for sweeps")

    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        if cfg.experiment != args.experiment:
            raise ConfigError(f"config declares experiment {cfg.experiment!r}, command line says {args.experiment!r}")
        seed = args.seed if args.seed is not None else cfg.get("run", "seed")
        if not 0 <= seed < 2**64:
            raise ConfigError(f"seed {seed} is not an unsigned 64-bit integer")
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 1
    except (ConfigError, OSError, UnicodeDecodeError) as e:  # OSError: a directory, unreadable, ...
        print(f"error: {e}", file=sys.stderr)
        return 1

    outdir = args.out or cfg.get("run", "out") or os.path.join("runs", cfg.experiment)
    return run_experiment(cfg, outdir, seed=seed, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
