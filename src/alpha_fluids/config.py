"""Run configuration: a minimal sectioned key=value text format.

Grammar (one entry per line):

    # comment                    blank lines and full-line comments ignored
    [section]                    section header
    key = value                  entry in the current section

Values are typed per key by the experiment schema below; unknown sections or
keys are errors (no silent typo acceptance), as are out-of-range values.
Every error carries the offending line number.  serialize() emits a canonical
form that reparses to an equal config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

EXPERIMENTS = (
    "simulate2d",
    "blob",
    "ch",
    "curvature",
    "visc-limit",
    "alpha-sweep",
    "jacobi",
    "flowmap",
)


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


def _pos_int(v):
    if v <= 0:
        raise ValueError("must be positive")


def _even_grid(v):
    if v < 4 or v % 2:
        raise ValueError("must be even and >= 4")


def _pos(v):
    if not (v > 0.0) or not math.isfinite(v):
        raise ValueError("must be positive and finite")


def _nonneg(v):
    if not (v >= 0.0) or not math.isfinite(v):
        raise ValueError("must be >= 0 and finite")


def _viscosities(v):
    if len(set(v)) < 2 or not all(x > 0.0 and math.isfinite(x) for x in v):
        raise ValueError("must hold at least two distinct positive, finite viscosities")


def _finite(v):
    if not math.isfinite(v):
        raise ValueError("must be finite")


def _any(v):
    return None


def _pair(check=_any):
    """Exactly two values, each passing check."""
    def pair(v):
        if len(v) != 2:
            raise ValueError(f"must hold exactly two values, got {len(v)}")
        for x in v:
            check(x)
    return pair


def _alphas(v):
    if not v:
        raise ValueError("must hold at least one alpha")
    for x in v:
        _nonneg(x)


def _choice(*options):
    def check(v):
        if v not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
    return check


# key -> (type tag, validator); type tags: int, float, str, ints (whitespace-
# separated integers), floats
_SCHEMA = {
    "run": {
        "experiment": ("str", _choice(*EXPERIMENTS)),
        "seed": ("int", _nonneg),
        "out": ("str", _any),
    },
    "grid": {
        "nx": ("int", _even_grid),
        "ny": ("int", _even_grid),
        "lx": ("float", _pos),
        "ly": ("float", _pos),
    },
    "physics": {
        "alpha": ("float", _nonneg),
        "nu": ("float", _nonneg),
        "dissipation": ("str", _choice("inviscid", "viscous", "strong")),
    },
    "time": {
        "dt": ("float", _pos),
        "t_final": ("float", _pos),
    },
    "ic": {
        "kind": ("str", _choice("single_mode", "two_mode", "random_seeded", "blob_ring")),
        "k": ("ints", _any),
        "k1": ("ints", _pair()),
        "k2": ("ints", _pair()),
        "amp": ("float", _finite),
        "amps": ("floats", _pair(_finite)),
        "phases": ("floats", _pair(_finite)),
        "spectrum_slope": ("float", _any),
        "kmax": ("int", _pos_int),
        "n_blobs": ("int", _pos_int),
        "radius": ("float", _pos),
        "gamma": ("float", _finite),
    },
    "output": {
        "series_every": ("int", _nonneg),
        "checkpoint_every": ("int", _nonneg),
    },
    "experiment": {
        # shared tuning knobs for the specialty drivers
        "nus": ("floats", _viscosities),
        "variants": ("str", _choice("viscous", "strong", "both")),
        "eps": ("ints", _pair()),
        "alphas": ("floats", _alphas),
        "epsilons": ("floats", _any),
        "m": ("int", _pos_int),
        "bc": ("str", _choice("dirichlet", "periodic", "both")),
        "n": ("int", _pos_int),
        "pairs": ("int", _pos_int),
        "kmax": ("int", _pos_int),
        "t_diag": ("float", _pos),
        "refine": ("int", _nonneg),
        "ladders": ("str", _choice("both", "transport", "volume")),
    },
}

_REQUIRED = {"run": ("experiment",)}


def _parse_value(tag: str, raw: str, line: int):
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "str":
            return raw
        if tag == "ints":
            return tuple(int(p) for p in raw.split())
        if tag == "floats":
            return tuple(float(p) for p in raw.split())
    except ValueError:
        raise ConfigError(f"cannot parse {raw!r} as {tag}", line) from None
    raise ConfigError(f"unknown value type {tag}", line)


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration; sections hold typed values keyed by name."""

    experiment: str
    sections: dict = field(default_factory=dict)

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def serialize(self) -> str:
        lines = []
        for section in sorted(self.sections):
            entries = self.sections[section]
            if not entries:
                continue
            lines.append(f"[{section}]")
            for key in sorted(entries):
                v = entries[key]
                if isinstance(v, tuple):
                    body = " ".join(repr(x) if isinstance(x, float) else str(x) for x in v)
                elif isinstance(v, float):
                    body = repr(v)
                else:
                    body = str(v)
                lines.append(f"{key} = {body}")
            lines.append("")
        return "\n".join(lines)

    def __eq__(self, other):
        return (
            isinstance(other, RunConfig)
            and self.experiment == other.experiment
            and self.sections == other.sections
        )


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError with a line number on any defect."""
    sections: dict = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {line!r}", lineno)
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]", lineno)
            current = name
            sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        if current is None:
            raise ConfigError("entry before any [section] header", lineno)
        key, _, rawval = line.partition("=")
        key = key.strip()
        rawval = rawval.strip()
        schema = _SCHEMA[current]
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{current}]", lineno)
        tag, check = schema[key]
        value = _parse_value(tag, rawval, lineno)
        try:
            check(value)
        except ValueError as e:
            raise ConfigError(f"value for {key!r} out of range: {e}", lineno) from None
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in section [{current}]", lineno)
        sections[current][key] = value
    for section, keys in _REQUIRED.items():
        for key in keys:
            if sections.get(section, {}).get(key) is None:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")
    return RunConfig(experiment=sections["run"]["experiment"], sections=sections)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
