"""Config parsing, validation, and round-trip serialization."""

import pytest

from alpha_fluids.config import ConfigError, RunConfig, parse_config

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
