"""Run configuration: a minimal sectioned key=value text format.

Grammar (one entry per line):

    # comment                    blank lines and full-line comments ignored
    [section]                    section header
    key = value                  entry in the current section

Values are typed per key by _SCHEMA; unknown sections or keys are errors (no
silent typo acceptance), as are out-of-range values, keys the experiment does
not read (_READS and _IC_KINDS hold the keys it reads, with the defaults that
RunConfig.get falls back to) and a [physics] nu that the dissipation
contradicts.  Every error carries the offending line number.
serialize() emits a canonical form that reparses to an equal config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


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


def _epsilons(v):
    if len(set(v)) < 2 or not all(x != 0.0 and math.isfinite(x) for x in v):
        raise ValueError("must hold at least two distinct nonzero, finite epsilons")


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


# (section, key) -> default of every key an experiment reads; None is no default
_RUN = {("run", "experiment"): None, ("run", "seed"): 0, ("run", "out"): None}
_TORUS = {("grid", "nx"): 64, ("grid", "ny"): 64, ("grid", "lx"): 2.0 * math.pi, ("grid", "ly"): 2.0 * math.pi,
          ("physics", "alpha"): 0.2, ("time", "dt"): 1e-3, ("time", "t_final"): 1.0, ("ic", "kind"): "two_mode"}
_READS = {  # in the order the command line lists the experiments
    "simulate2d": {**_TORUS, ("physics", "dissipation"): "inviscid", ("physics", "nu"): 0.0,
                   ("output", "series_every"): 10, ("output", "checkpoint_every"): 0},
    "blob": {("physics", "alpha"): 0.3, ("ic", "kind"): "blob_ring", ("time", "dt"): 1e-3, ("time", "t_final"): 10.0,
             ("output", "series_every"): 100},
    "ch": {("experiment", "n"): 512, ("experiment", "bc"): "dirichlet", ("time", "dt"): 1e-4, ("time", "t_final"): 1.0,
           ("ic", "amp"): 0.1, ("ic", "k"): (1,), ("output", "series_every"): 100},
    "curvature": {("experiment", "pairs"): 50, ("experiment", "kmax"): 4},
    "visc-limit": {**_TORUS, ("time", "dt"): 2e-3, ("time", "t_final"): 0.5,
                   ("experiment", "nus"): (1e-1, 1e-2, 1e-3, 1e-4), ("experiment", "variants"): "both"},
    # 0.05 * i is np.linspace(0.0, 1.0, 21) bit for bit
    "alpha-sweep": {("ic", "k"): (1, 0), ("experiment", "eps"): (0, 1),
                    ("experiment", "alphas"): tuple(0.05 * i for i in range(21))},
    "jacobi": {**_TORUS, ("time", "t_final"): 0.5, ("experiment", "epsilons"): (1e-4, 5e-5)},
    "flowmap": {**_TORUS, ("experiment", "m"): 32, ("experiment", "t_diag"): 0.25, ("experiment", "refine"): 2,
                ("experiment", "ladders"): "both"},
}
EXPERIMENTS = tuple(_READS)
# experiment -> {each [ic] kind it takes: the [ic] keys of that kind}; _READS holds the default kind
_TORUS_IC = {
    "single_mode": {("ic", "k"): (1, 0), ("ic", "amp"): 1.0},
    "two_mode": {("ic", "k1"): (1, 0), ("ic", "k2"): (2, 1), ("ic", "amps"): (0.25, 0.2), ("ic", "phases"): (0.0, 0.7)},
    "random_seeded": {("ic", "kmax"): 4, ("ic", "spectrum_slope"): -2.0, ("ic", "amp"): 0.2},
}
_IC_KINDS = {**dict.fromkeys(("simulate2d", "visc-limit", "jacobi", "flowmap"), _TORUS_IC),
             "blob": {"blob_ring": {("ic", "n_blobs"): 4, ("ic", "radius"): 1.0, ("ic", "gamma"): 1.0}}}


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
        "kind": ("str", _choice(*dict.fromkeys(k for kinds in _IC_KINDS.values() for k in kinds))),
        "k": ("ints", _any),
        "k1": ("ints", _pair()),
        "k2": ("ints", _pair()),
        "amp": ("float", _finite),
        "amps": ("floats", _pair(_finite)),
        "phases": ("floats", _pair(_finite)),
        "spectrum_slope": ("float", _finite),
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
        # driver-specific knobs; _READS says which experiment reads each
        "nus": ("floats", _viscosities),
        "variants": ("str", _choice("viscous", "strong", "both")),
        "eps": ("ints", _pair()),
        "alphas": ("floats", _alphas),
        "epsilons": ("floats", _epsilons),
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

def reads(experiment: str, kind: str | None = None) -> dict:
    """{(section, key): default} of every key experiment reads, with the [ic] keys of kind (None: its default)."""
    table = {**_RUN, **_READS[experiment]}
    return {**table, **_IC_KINDS.get(experiment, {}).get(kind or table.get(("ic", "kind")), {})}


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

    def get(self, section: str, key: str):
        """The given value, else the experiment's default; KeyError for a key it does not read."""
        default = reads(self.experiment, self.sections.get("ic", {}).get("kind"))[section, key]
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


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError with a line number on any defect."""
    sections: dict = {}
    line_of: dict = {}  # (section, key) -> line number
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
        except (ValueError, OverflowError) as e:  # OverflowError: an int past the float range
            raise ConfigError(f"value for {key!r} out of range: {e}", lineno) from None
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in section [{current}]", lineno)
        sections[current][key] = value
        line_of[current, key] = lineno
    if "experiment" not in sections.get("run", {}):
        raise ConfigError("missing required key 'experiment' in section [run]")
    experiment, kind = sections["run"]["experiment"], sections.get("ic", {}).get("kind")
    kinds = _IC_KINDS.get(experiment, {})
    if kinds and kind is not None and kind not in kinds:
        raise ConfigError(f"value for 'kind' out of range: {experiment} reads {', '.join(kinds)}", line_of["ic", "kind"])
    table = reads(experiment, kind)
    for (section, key), lineno in line_of.items():  # in line order
        if (section, key) not in table:
            with_kind = f" with [ic] kind = {kind or table['ic', 'kind']}" if section == "ic" and kinds else ""
            raise ConfigError(f"key {key!r} in section [{section}] is not read by {experiment}{with_kind}", lineno)
        value, default = sections[section][key], table[section, key]
        if _SCHEMA[section][key][0] == "ints" and len(value) != len(default):  # [ic] k: 2 on the torus, 1 for ch
            raise ConfigError(f"value for {key!r} out of range: {experiment} reads {len(default)} integer(s)", lineno)
    if ("physics", "dissipation") in table:  # nu > 0 exactly when the dissipation is not inviscid
        variant, nu = (sections.get("physics", {}).get(k, table["physics", k]) for k in ("dissipation", "nu"))
        if (variant == "inviscid") != (nu == 0.0):
            key = "nu" if ("physics", "nu") in line_of else "dissipation"
            raise ConfigError(f"value for {key!r} out of range: dissipation = {variant} with nu = {nu!r}; "
                              "nu must be > 0 for viscous and strong, 0 for inviscid", line_of["physics", key])
    return RunConfig(experiment, sections)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
