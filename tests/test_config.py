"""Config parsing, validation, and round-trip serialization."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alpha_fluids.config import _SCHEMA, ConfigError, RunConfig, _any, parse_config

MINIMAL = """
[run]
experiment = simulate2d
[grid]
nx = 64
ny = 64
[physics]
alpha = 0.2
[time]
dt = 1e-3
t_final = 1.0
"""


def test_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.experiment == "simulate2d"
    assert cfg.get("grid", "nx") == 64
    assert cfg.get("physics", "alpha") == 0.2
    assert cfg.get("output", "series_every", 10) == 10  # default fills in


def test_negative_alpha_names_key_and_line():
    bad = MINIMAL.replace("alpha = 0.2", "alpha = -0.1")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert "alpha" in str(exc.value)
    assert "line" in str(exc.value)


def test_serialize_round_trip():
    text = MINIMAL + "\n[ic]\nkind = two_mode\nk1 = 1 0\nk2 = 2 1\namps = 0.25 0.2\n"
    cfg = parse_config(text)
    again = parse_config(cfg.serialize())
    assert cfg == again
    assert parse_config(again.serialize()) == cfg


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL + "\n[grid]\nmz = 12\n")


@pytest.mark.parametrize("section, key", [("physics", "alpha2"), ("physics", "beta"), ("experiment", "d")])
def test_knobs_no_driver_reads_are_unknown_keys(section, key):
    text = MINIMAL + f"[{section}]\n{key} = 0.5\n"
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in section \\[{section}\\]") as exc:
        parse_config(text)
    assert exc.value.line == text.splitlines().index(f"{key} = 0.5") + 1


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown section"):
        parse_config(MINIMAL + "\n[turbo]\nboost = 1\n")


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        parse_config("[run]\nexperiment = warp-drive\n")


def test_malformed_line_reports_number():
    with pytest.raises(ConfigError) as exc:
        parse_config("[run]\nexperiment = simulate2d\nnonsense without equals\n")
    assert exc.value.line == 3


def test_entry_before_section():
    with pytest.raises(ConfigError, match="before any"):
        parse_config("nx = 64\n")


def test_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("[run]\nexperiment = blob\nexperiment = ch\n")


def test_missing_experiment():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("[grid]\nnx = 64\nny = 64\n")


def test_typed_tuples():
    cfg = parse_config(MINIMAL + "\n[ic]\nk1 = 1 0\namps = 0.5 0.25\n")
    assert cfg.get("ic", "k1") == (1, 0)
    assert cfg.get("ic", "amps") == (0.5, 0.25)


def test_odd_grid_rejected():
    with pytest.raises(ConfigError, match="even"):
        parse_config(MINIMAL.replace("nx = 64", "nx = 63"))


def test_unparsable_value():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config(MINIMAL.replace("nx = 64", "nx = sixty-four"))


def test_comments_and_blank_lines():
    text = "# leading comment\n\n[run]\n# inner comment\nexperiment = blob\n"
    assert parse_config(text).experiment == "blob"


VISC_LIMIT = "[run]\nexperiment = visc-limit\n[experiment]\nnus = 0.1 0.01\nvariants = both\n"


@pytest.mark.parametrize("line, message", [
    ("variants = foo", "must be one of viscous, strong, both"),
    ("nus = 0.1", "at least two distinct"),
    ("nus = 0.1 0.1", "at least two distinct"),
    ("nus = 0.1 0.0", "positive"),
    ("nus = 0.1 -0.01", "positive"),
    ("nus = 0.1 inf", "finite"),
])
def test_visc_limit_keys_checked_at_parse_time(line, message):
    key = line.split(" = ")[0]
    text = "\n".join(line if entry.startswith(key + " =") else entry for entry in VISC_LIMIT.splitlines())
    with pytest.raises(ConfigError, match=message) as exc:
        parse_config(text)
    assert exc.value.line == text.splitlines().index(line) + 1


def test_visc_limit_keys_accepted():
    cfg = parse_config(VISC_LIMIT.replace("variants = both", "variants = strong"))
    assert cfg.get("experiment", "nus") == (0.1, 0.01)
    assert cfg.get("experiment", "variants") == "strong"


def test_int_past_the_float_range_is_out_of_range():
    with pytest.raises(ConfigError, match="seed") as exc:
        parse_config(f"[run]\nexperiment = blob\nseed = {10**400}\n")
    assert exc.value.line == 3


# -- property: every valid config survives serialize and parse -----------------------

# one-line values that parse_config reads back as they are: no line breaks, no edge whitespace
_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=8).map(str.strip)
_INTS = st.integers(-(2**66), 2**66) | st.integers(0, 2**66) | st.sampled_from([0, -1, 3, 4])
_FLOATS = st.floats() | st.floats(allow_nan=False, allow_infinity=False).map(abs)


def _passes(check, v) -> bool:
    try:
        check(v)
    except (ValueError, OverflowError):
        return False
    return True


def _values(tag, check, valid=True):
    """Values of one schema key's type tag that its validator accepts (valid) or rejects."""
    options = inspect.getclosurevars(check).nonlocals.get("options")
    if valid and options:
        return st.sampled_from(options)
    base = {
        "int": _INTS,
        "float": _FLOATS,
        "str": _TEXT,
        "ints": st.lists(_INTS, max_size=3).map(tuple),
        "floats": st.lists(_FLOATS, max_size=3).map(tuple),
    }[tag]
    return base.filter(lambda v: _passes(check, v) == valid)


_VALID = {s: {k: _values(*spec) for k, spec in keys.items()} for s, keys in _SCHEMA.items()}


@st.composite
def _configs(draw):
    sections = {}
    for name, schema in _SCHEMA.items():
        keys = draw(st.lists(st.sampled_from(sorted(schema)), unique=True, max_size=4))
        if name == "run" and "experiment" not in keys:
            keys.append("experiment")
        if keys:  # serialize() writes no header for an empty section
            sections[name] = {k: draw(_VALID[name][k]) for k in keys}
    return RunConfig(sections["run"]["experiment"], sections)


def _line_of(text, section, key):
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("["):
            current = line[1:-1]
        elif current == section and line.startswith(f"{key} = "):
            return lineno
    raise AssertionError(f"no line for [{section}] {key}")


@settings(max_examples=100, deadline=500)
@given(_configs())
def test_serialize_then_parse_is_identity(cfg):
    assert parse_config(cfg.serialize()) == cfg


@settings(max_examples=100, deadline=500)
@given(st.data())
def test_one_out_of_range_line_is_named(data):
    cfg = data.draw(_configs())
    checked = [(s, k) for s, entries in cfg.sections.items() for k in entries if _SCHEMA[s][k][1] is not _any]
    section, key = data.draw(st.sampled_from(sorted(checked)))
    bad = data.draw(_values(*_SCHEMA[section][key], valid=False))
    text = RunConfig(cfg.experiment, {**cfg.sections, section: {**cfg.sections[section], key: bad}}).serialize()
    with pytest.raises(ConfigError, match="out of range") as exc:
        parse_config(text)
    assert exc.value.line == _line_of(text, section, key)
