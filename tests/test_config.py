"""Config parsing and sweep-description validation."""

import pytest

from ngfiber.config import OBSERVABLES, SWEEP_AXES, RunConfig, parse_config
from ngfiber.errors import ConfigError, ParameterError


def test_parse_sections_comments_and_lists():
    text = """
# a comment line
zeta = 0.5

[grid]
p = 0, 1, 2   # trailing comment
tau_l = 1e-7

[output]
observables = negativity, fidelity
"""
    sections = parse_config(text)
    assert sections[""] == {"zeta": 0.5}
    assert sections["grid"] == {"p": [0, 1, 2], "tau_l": 1e-7}
    assert sections["output"] == {"observables": ["negativity", "fidelity"]}


def test_parse_scalar_types():
    sections = parse_config("a = 3\nb = 2.5\nc = hello\nd = 1, two, 3.0\n")
    root = sections[""]
    assert root["a"] == 3 and isinstance(root["a"], int)
    assert root["b"] == 2.5 and isinstance(root["b"], float)
    assert root["c"] == "hello"
    assert root["d"] == [1, "two", 3.0]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as exc:
        parse_config("zeta = 0.5\n[grid\np = 1\n")
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)

    with pytest.raises(ConfigError) as exc:
        parse_config("zeta = 0.5\njust words\n")
    assert exc.value.line == 2

    with pytest.raises(ConfigError) as exc:
        parse_config("= 0.5\n")
    assert exc.value.line == 1

    with pytest.raises(ConfigError) as exc:
        parse_config("a = 1\na = 2\n")
    assert exc.value.line == 2


def test_duplicate_keys_allowed_across_sections():
    sections = parse_config("[fixed]\np = 1\n[grid]\np = 0, 1\n")
    assert sections["fixed"]["p"] == 1
    assert sections["grid"]["p"] == [0, 1]


def test_runconfig_defaults():
    run = RunConfig.from_text("")
    assert run.fixed["p"] == 1
    assert run.fixed["zeta"] == 0.5
    assert run.fixed["omega_c"] == 2.62e10
    assert run.fixed["tail_tol"] == 1e-12
    assert run.observables == OBSERVABLES
    assert run.grid == {}


def test_runconfig_overrides_and_grid():
    run = RunConfig.from_text(
        "[fixed]\nzeta = 0.3\n[grid]\ntau_l = 1e-8, 2e-8\np = 0, 1\n"
    )
    assert run.fixed["zeta"] == 0.3
    assert run.grid == {"tau_l": [1e-8, 2e-8], "p": [0, 1]}
    # canonical order follows the axis table, not declaration order
    assert run.axes_in_canonical_order() == ["p", "tau_l"]


def test_root_section_feeds_fixed():
    run = RunConfig.from_text("zeta = 0.7\n[grid]\np = 0, 1\n")
    assert run.fixed["zeta"] == 0.7


def test_single_value_grid_axis_is_promoted_to_list():
    run = RunConfig.from_text("[grid]\nzeta = 0.4\n")
    assert run.grid == {"zeta": [0.4]}


def test_single_observable_string():
    run = RunConfig.from_text("[output]\nobservables = fidelity\n")
    assert run.observables == ("fidelity",)


def test_runconfig_rejects_unknown_names():
    with pytest.raises(ParameterError):
        RunConfig.from_text("[fixed]\nnot_a_knob = 1\n")
    with pytest.raises(ParameterError):
        RunConfig.from_text("[grid]\nomega_c = 1, 2\n")  # not a sweep axis
    with pytest.raises(ParameterError):
        RunConfig.from_text("[output]\nobservables = entropy\n")
    with pytest.raises(ParameterError, match="at least one observable"):
        RunConfig.from_text("[output]\nobservables = ,\n")
    with pytest.raises(ParameterError):
        RunConfig.from_text("[mystery]\nx = 1\n")


def test_runconfig_rejects_non_numeric_values():
    with pytest.raises(ParameterError):
        RunConfig.from_text("[fixed]\nzeta = big\n")
    with pytest.raises(ParameterError):
        RunConfig.from_text("[grid]\nzeta = 0.1, big\n")
    with pytest.raises(ParameterError):
        RunConfig.from_text("[grid]\nzeta = ,\n")


def test_axis_table_is_consistent():
    assert set(SWEEP_AXES) <= {
        "p", "zeta", "gamma_plus", "temperature", "epsilon", "tau_l",
    }
    assert len(OBSERVABLES) == 4
