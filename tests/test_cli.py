"""Command-line interface: formats, validation, and deterministic output."""

import inspect
import itertools
import json
import math
import os
import pathlib
import re
import shlex
import tempfile
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngfiber import cli, states, validate
from ngfiber.bath import BathSpec
from ngfiber.channel import (
    ChannelParams,
    _dissipative_factors,
    _negativity,
    negativity_dissipative,
    timing_negativities,
)
from ngfiber.config import _FIXED_DEFAULTS
from ngfiber.design import silica_preset
from ngfiber.errors import ParameterError, TruncationTooSmall
from ngfiber.negativity import negativity_analytic
from ngfiber.states import build_state
from ngfiber.validate import CheckResult

VALUE_RE = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_fig1_csv_shape_and_format(tmp_path):
    out = tmp_path / "fig1.csv"
    code = run_cli("fig1", "--out", str(out), "--steps", "7")
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert "\r" not in text and text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "zeta,negativity"
    assert len(lines) == 8
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 2
        assert all(VALUE_RE.match(f) for f in fields)
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_fig1_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("fig1", "--out", str(a), "--steps", "9") == 0
    assert run_cli("fig1", "--out", str(b), "--steps", "9") == 0
    assert read_bytes(a) == read_bytes(b)


def test_fig1_parameter_validation(tmp_path):
    out = str(tmp_path / "x.csv")
    assert run_cli("fig1", "--out", out, "--steps", "1") == 2
    assert run_cli("fig1", "--out", out, "--zeta-max", "1.0") == 2
    assert run_cli("fig1", "--out", out, "--zeta-min", "0.0", "--zeta-max", "0.0") == 2
    assert run_cli("fig1", "--out", out, "--zeta-min", "0.9", "--zeta-max", "0.2") == 2
    # equal endpoints are a legitimate degenerate range
    assert run_cli(
        "fig1", "--out", out, "--zeta-min", "0.4", "--zeta-max", "0.4", "--steps", "2"
    ) == 0


def test_fig1_plot_script(tmp_path):
    out = tmp_path / "curve.csv"
    assert run_cli("fig1", "--out", str(out), "--steps", "5", "--emit-plot-script") == 0
    script = (tmp_path / "curve.csv.gp").read_text(encoding="utf-8")
    assert "curve.csv" in script
    assert str(tmp_path) not in script  # references the data by basename
    assert "plot" in script


SWEEP_TWO_BY_TWO = (
    "[grid]\nzeta = 0.2, 0.4\ntau_l = 1e-8, 2e-8\n[output]\nobservables = negativity, fidelity\n"
)


@pytest.mark.parametrize(
    "argv, script",
    [
        (["fig2", "--steps", "3"],
         "set xlabel 'x'\n"
         "set title 'negativity vs accumulated time'\n"
         "plot 'curve.csv' using 1:2 with lines, 'curve.csv' using 1:3 with lines\n"),
        (["sweep", "--config", "two.cfg"],
         "set xlabel 'zeta'\n"
         "set title 'parameter sweep'\n"
         "plot 'curve.csv' using 1:2 with lines, 'curve.csv' using 1:3 with lines, "
         "'curve.csv' using 1:4 with lines\n"),
    ],
    ids=["fig2", "sweep"],
)
def test_plot_script_text(tmp_path, monkeypatch, argv, script):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two.cfg").write_text(SWEEP_TWO_BY_TWO, encoding="utf-8")
    out = tmp_path / "curve.csv"
    assert run_cli(*argv, "--out", str(out), "--emit-plot-script") == 0
    # the data file is named by its basename
    assert read_bytes(tmp_path / "curve.csv.gp").decode("utf-8") == (
        "# gnuplot script for curve.csv\n"
        "set datafile separator ','\n"
        "set key autotitle columnhead\n" + script
    )


def test_plot_script_doubles_quotes_in_the_data_name(tmp_path):
    out = tmp_path / "it's.csv"
    assert run_cli("fig1", "--out", str(out), "--steps", "3", "--emit-plot-script") == 0
    script = (tmp_path / "it's.csv.gp").read_text(encoding="utf-8")
    assert script.startswith("# gnuplot script for it's.csv\n")
    assert script.endswith("plot 'it''s.csv' using 1:2 with lines\n")


@pytest.mark.parametrize("argv", [["fig1"], ["fig2"], ["sweep", "--config", "two.cfg"]])
def test_plot_script_with_json_is_refused_up_front(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two.cfg").write_text(SWEEP_TWO_BY_TWO, encoding="utf-8")

    def explode(*args, **kwargs):
        raise TruncationTooSmall("a state was built")

    monkeypatch.setattr(cli, "build_state", explode)
    monkeypatch.setattr(cli, "build_states", explode)
    # JSON is refused, and so is a data name with a line break, which would end
    # the script's comment line
    for flags, message in (
        (["--out", "t.json", "--format", "json"], "--emit-plot-script needs --format csv"),
        (["--out", "a\nplot.csv"], "without line breaks"),
        (["--out", "a\rplot.csv"], "without line breaks"),
    ):
        code = run_cli(*argv, *flags, "--emit-plot-script")
        assert code == 2  # refused before any state build, which would exit 3
        assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["two.cfg"]


@pytest.mark.parametrize("command", ["design", "validate"])
@pytest.mark.parametrize("flags", [["--format", "csv"], ["--emit-plot-script"]])
def test_design_and_validate_take_no_table_flags(tmp_path, command, flags):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *flags, "--out", str(tmp_path / "x.json"))
    assert exc.value.code == 2
    assert not (tmp_path / "x.json").exists()


def test_fig1_json_format(tmp_path):
    out = tmp_path / "fig1.json"
    assert run_cli("fig1", "--out", str(out), "--steps", "5", "--format", "json") == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["columns"] == ["zeta", "negativity"]
    assert len(payload["rows"]) == 5
    assert all(len(row) == 2 for row in payload["rows"])


def test_fig2_zero_time_rows_agree_exactly(tmp_path):
    out = tmp_path / "fig2.csv"
    assert run_cli("fig2", "--out", str(out), "--steps", "26", "--x-max", "50") == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,negativity_fluct,negativity_no_fluct"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[1] == first[2]  # byte-equal at x = 0
    # the reference column never moves; the decaying column does
    refs = {line.split(",")[2] for line in lines[1:]}
    assert len(refs) == 1
    flucts = [float(line.split(",")[1]) for line in lines[1:]]
    assert flucts[-1] < flucts[0]


def test_fig2_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("fig2", "--steps", "21", "--x-max", "40")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert read_bytes(a) == read_bytes(b)


@pytest.mark.parametrize("command", ["fig1", "fig2"])
@pytest.mark.parametrize("steps", ["1000001", "1000000000000"])
def test_steps_above_the_cap_are_refused_before_allocating(
    tmp_path, capsys, monkeypatch, command, steps
):
    # 10^12 rows used to die in np.linspace with numpy's _ArrayMemoryError, exit 1
    def no_linspace(*args, **kwargs):
        raise AssertionError("linspace ran")

    monkeypatch.setattr(np, "linspace", no_linspace)
    out = tmp_path / "x.csv"
    assert run_cli(command, "--steps", steps, "--out", str(out)) == 2
    assert f"steps must be <= {cli.MAX_STEPS}, got {steps}" in capsys.readouterr().err
    assert not out.exists()


def test_fig2_validation(tmp_path):
    out = str(tmp_path / "x.csv")
    assert run_cli("fig2", "--out", out, "--steps", "1") == 2
    assert run_cli("fig2", "--out", out, "--x-max", "0") == 2
    assert run_cli("fig2", "--out", out, "--zeta", "1.1") == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--epsilon", "-1"), ("--epsilon", "inf"), ("--x-max", "inf"), ("--x-max", "nan"),
     ("--omega-c", "0"), ("--omega-c", "inf")],
)
def test_fig2_refuses_out_of_range_inputs_without_warning(tmp_path, capsys, flag, value):
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("fig2", flag, value, "--steps", "5", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "parameter error" in err
    if flag == "--x-max":
        assert "x-max must be finite and > 0" in err
    if flag == "--omega-c":
        # named as the user set it, not as the bath field it also feeds
        assert f"omega-c must be finite and > 0, got {float(value)}" in err
        assert "omega_phonon" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--omega-c", "1e200"], ["--epsilon", "1e300"]])
def test_fig2_at_overflowing_rates_writes_no_nan(tmp_path, argv):
    # omega_c^2 or epsilon^2 overflows to inf; at x = 0 the rate is exactly 0,
    # so row 0 is the undecayed value whatever omega_c and epsilon are
    ref, out = tmp_path / "ref.csv", tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("fig2", "--steps", "4", "--out", str(ref)) == 0
        assert run_cli("fig2", *argv, "--steps", "4", "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    ref_rows = [line.split(",") for line in ref.read_text(encoding="utf-8").splitlines()[1:]]
    assert rows[0] == ref_rows[0]
    assert {row[2] for row in rows} == {ref_rows[0][2]}
    assert all(math.isfinite(float(v)) for row in rows for v in row)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=-13.0, max_value=-10.0).map(lambda e: 10.0**e),
    st.floats(min_value=-1.0, max_value=4.0).map(lambda e: 10.0**e),
    st.integers(min_value=2, max_value=30),
)
def test_fig2_rows_are_bit_equal_to_the_general_route(p, zeta, epsilon, x_max, steps):
    omega_c = 2.62e10
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "fig2.csv")
        argv = ["fig2", "--p", str(p), "--zeta", repr(zeta), "--epsilon", repr(epsilon),
                "--x-max", repr(x_max), "--steps", str(steps), "--out", out]
        assert run_cli(*argv) == 0
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()[1:]
    # the reference takes the general route, thermal means included, which
    # negativity_dissipative skips at T = 0
    state = build_state(p, zeta)
    bath = BathSpec(omega_phonon=omega_c, temperature=0.0, omega_c=omega_c)
    values = [
        _negativity(
            state,
            _dissipative_factors(
                state.n_max, ChannelParams(0.0, 0.0, 0.0, 0.0, float(x) / omega_c, epsilon), bath
            ),
        )
        for x in np.linspace(0.0, x_max, steps)
    ]
    assert [line.split(",")[1] for line in lines] == [f"{v:.16e}" for v in values]
    taus = [x / omega_c for x in np.linspace(0.0, x_max, steps).tolist()]
    assert timing_negativities(state, epsilon, taus, bath) == values


def test_cli_binds_no_private_channel_function():
    bound = {
        attr: obj for attr, obj in vars(cli).items()
        if inspect.isfunction(obj) and obj.__module__ == "ngfiber.channel"
    }
    assert "timing_negativities" in bound
    assert [attr for attr, obj in bound.items() if attr.startswith("_")
            or obj.__name__.startswith("_")] == []


def csv_rows(path) -> list:
    return [[float(v) for v in line.split(",")]
            for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def test_fig1_rows_spanning_several_blocks_equal_library_calls(tmp_path, monkeypatch):
    # up to zeta = 0.999 the 300 norm series fill several _BLOCK_CELLS blocks
    blocks = []
    series = states._series

    def counting_series(p, az, n_top):
        blocks.append((len(az), n_top))
        return series(p, az, n_top)

    monkeypatch.setattr(states, "_series", counting_series)
    out = tmp_path / "fig1.csv"
    argv = ["--p", "2", "--zeta-min", "0.3", "--zeta-max", "0.999", "--steps", "300"]
    assert run_cli("fig1", *argv, "--out", str(out)) == 0
    assert len(blocks) > 1 and max(rows for rows, _ in blocks) > 1
    assert sum(rows * (n_top + 1) for rows, n_top in blocks) > states._BLOCK_CELLS
    monkeypatch.undo()
    # fig1 hands build_states a chunk of rows at a time; the chunks leave the bytes
    chunked = tmp_path / "chunked.csv"
    monkeypatch.setattr(cli, "_FIG1_CHUNK", 37)
    assert run_cli("fig1", *argv, "--out", str(chunked)) == 0
    assert read_bytes(chunked) == read_bytes(out)
    rows = csv_rows(out)
    zetas = np.linspace(0.3, 0.999, 300)
    assert [row[0] for row in rows] == zetas.tolist()
    assert [row[1] for row in rows] == [
        negativity_analytic(build_state(2, float(zeta))) for zeta in zetas
    ]


def test_fig2_rows_spanning_several_blocks_equal_library_calls(tmp_path):
    # n_max = 1946 at zeta = 0.99: 33 decay rows fill one block, 100 rows need four
    out = tmp_path / "fig2.csv"
    argv = ["--zeta", "0.99", "--x-max", "300", "--steps", "100", "--epsilon", "1e-11"]
    assert run_cli("fig2", *argv, "--out", str(out)) == 0
    state = build_state(1, 0.99)
    assert 100 > 3 * (states._BLOCK_CELLS // (state.n_max + 1))
    omega_c = 2.62e10
    bath = BathSpec(omega_phonon=omega_c, temperature=0.0, omega_c=omega_c)
    want = [
        negativity_dissipative(state, ChannelParams(0.0, 0.0, 0.0, 0.0, x / omega_c, 1e-11), bath)
        for x in np.linspace(0.0, 300.0, 100).tolist()
    ]
    rows = csv_rows(out)
    assert [row[1] for row in rows] == want
    assert {row[2] for row in rows} == {want[0]}


def test_design_report(tmp_path, capsys):
    assert run_cli("design") == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "length_m",
        "group_index",
        "omega_c_rad_s",
        "error_budget",
        "transit_time_s",
        "x_cutoff_times_transit",
        "max_spacing_m",
        "asymptotic_spacing_m",
        "chosen_spacing_m",
        "segment_time_s",
        "segment_count",
        "decay_exponent_at_budget",
        "budget_log_term",
        "tau_omega_c",
        "pulse_spacing_below_bath_correlation",
    }
    assert report["transit_time_s"] == 5.333333333333334e-06
    assert abs(report["max_spacing_m"] - 0.0008104015848071814) < 1e-18
    assert abs(report["asymptotic_spacing_m"] - 0.0008104015848279339) < 1e-18
    assert report["segment_count"] == math.ceil(1000.0 / report["max_spacing_m"])
    assert report["pulse_spacing_below_bath_correlation"] is True
    assert abs(report["decay_exponent_at_budget"] - report["budget_log_term"]) < 1e-12


def test_design_with_spacing_override(tmp_path):
    out = tmp_path / "design.json"
    assert run_cli("design", "--spacing", "0.0008", "--out", str(out)) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["chosen_spacing_m"] == 0.0008
    assert report["segment_time_s"] == 4.266666666666667e-12
    assert report["segment_count"] == 1250000
    assert abs(report["tau_omega_c"] - 0.11178666666666667) < 1e-15


def test_cached_parser_carries_nothing_between_calls(tmp_path):
    # the parser is built once per process; a run must read exactly what a
    # fresh parser gives, whatever ran before it
    def outputs(tag, fresh):
        files = {}
        for name, argv in (
            ("spaced", ["design", "--spacing", "0.0008"]),
            ("bad", ["design", "--no-such-flag"]),
            ("fig1", ["fig1", "--steps", "5"]),
            ("plain", ["design"]),
        ):
            if fresh:
                cli.build_parser.cache_clear()
            if name == "bad":
                with pytest.raises(SystemExit) as exc:
                    run_cli(*argv)
                assert exc.value.code == 2
                continue
            out = tmp_path / f"{tag}-{name}"
            assert run_cli(*argv, "--out", str(out)) == 0
            files[name] = read_bytes(out)
        return files

    fresh = outputs("fresh", fresh=True)
    shared = outputs("shared", fresh=False)
    assert shared == fresh
    assert cli.build_parser() is cli.build_parser()
    plain = json.loads(shared["plain"])
    assert plain["chosen_spacing_m"] == plain["max_spacing_m"]
    assert json.loads(shared["spaced"])["chosen_spacing_m"] == 0.0008


def test_design_rejects_bad_fiber():
    assert run_cli("design", "--length", "-5") == 2
    assert run_cli("design", "--budget", "1.5") == 2


def test_validate_fast(tmp_path, capsys):
    out = tmp_path / "val.json"
    assert run_cli("validate", "--level", "fast", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "checks passed" in stdout
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["level"] == "fast"
    assert len(payload["checks"]) == 7
    assert all(c["passed"] is True for c in payload["checks"])


def test_validate_reports_failure(monkeypatch, capsys):
    import ngfiber.validate as validate_mod

    def doomed():
        return CheckResult("doomed", False, "synthetic failure")

    monkeypatch.setattr(
        validate_mod, "FAST_CHECKS", list(validate_mod.FAST_CHECKS) + [doomed]
    )
    assert run_cli("validate", "--level", "fast") == 4
    assert "FAILED" in capsys.readouterr().out


def test_validate_refuses_an_unknown_level():
    with pytest.raises(ParameterError, match="got 'bogus'"):
        validate.run("bogus")


def test_numerical_failures_exit_three(monkeypatch, tmp_path):
    def explode(*args, **kwargs):
        raise TruncationTooSmall("synthetic numerical failure")

    # fig1 builds its states in one build_states call
    monkeypatch.setattr(cli, "build_states", explode)
    assert run_cli("fig1", "--out", str(tmp_path / "x.csv")) == 3


def test_seed_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("fig1", "--out", str(tmp_path / "x.csv"), "--seed", "1")
    assert exc.value.code == 2


def sweep_config(tmp_path, text, name="sweep.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_sweep_grid_size_and_order(tmp_path):
    zetas = ", ".join(str(round(0.1 + 0.05 * i, 2)) for i in range(10))
    taus = ", ".join(f"{(i + 1) * 1e-8:.1e}" for i in range(10))
    cfg = sweep_config(
        tmp_path,
        f"""
[fixed]
omega_a = 1.216e15
omega_b = 1.216e15
[grid]
tau_l = {taus}
zeta = {zetas}
[output]
observables = negativity
""",
    )
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    # canonical order puts zeta before tau_l regardless of declaration order
    assert lines[0] == "zeta,tau_l,negativity"
    assert len(lines) == 101
    # outer loop runs over the first axis: zeta changes every 10 rows
    zeta_col = [line.split(",")[0] for line in lines[1:]]
    assert len(set(zeta_col[:10])) == 1
    assert len(set(zeta_col[::10])) == 10


def test_sweep_axis_declaration_order_is_irrelevant(tmp_path):
    body_a = "[grid]\nzeta = 0.2, 0.4\np = 0, 1\n[output]\nobservables = negativity\n"
    body_b = "[grid]\np = 0, 1\nzeta = 0.2, 0.4\n[output]\nobservables = negativity\n"
    cfg_a = sweep_config(tmp_path, body_a, "a.cfg")
    cfg_b = sweep_config(tmp_path, body_b, "b.cfg")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("sweep", "--config", cfg_a, "--out", str(out_a)) == 0
    assert run_cli("sweep", "--config", cfg_b, "--out", str(out_b)) == 0
    assert read_bytes(out_a) == read_bytes(out_b)


def test_sweep_single_point_matches_direct_call(tmp_path):
    cfg = sweep_config(
        tmp_path, "[grid]\nzeta = 0.37\n[output]\nobservables = negativity\n"
    )
    out = tmp_path / "one.csv"
    assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    expected = negativity_analytic(build_state(1, 0.37, tail_tol=1e-12))
    assert lines[1] == f"{0.37:.16e},{expected:.16e}"


def test_sweep_jobs_do_not_change_output(tmp_path):
    cfg = sweep_config(
        tmp_path,
        "[fixed]\ngamma_plus = 3e8\nepsilon = 4e-12\nomega_a = 1.216e15\nomega_b = 1.216e15\n"
        "[grid]\nzeta = 0.1, 0.3, 0.5, 0.7\ntemperature = 0, 0.5\ntau_l = 1e-8, 3e-8\n"
        "[output]\nobservables = negativity, negativity_dephased, negativity_dissipative, "
        "fidelity\n",
    )
    outs = []
    for jobs in ("1", "3"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--jobs", jobs) == 0
        outs.append(read_bytes(out))
    assert outs[0] == outs[1]


def test_sweep_jobs_one_runs_in_the_calling_thread(tmp_path, monkeypatch):
    cfg = sweep_config(
        tmp_path,
        "[fixed]\ngamma_plus = 3e8\nepsilon = 4e-12\n"
        "[grid]\nzeta = 0.2, 0.6\ntemperature = 0, 0.5\n",
    )

    def no_thread(self):
        raise AssertionError("sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    outs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--jobs", jobs) == 0
        outs.append(read_bytes(out))
    assert outs[0] == outs[1]


def test_sweep_builds_each_distinct_state_once(tmp_path, monkeypatch):
    cfg = sweep_config(
        tmp_path,
        "[grid]\np = 0, 1\nzeta = 0.2, 0.4\ngamma_plus = 1e8, 1e9\ntau_l = 1e-8, 2e-8\n"
        "[output]\nobservables = negativity, negativity_dephased, fidelity\n",
    )
    ref = tmp_path / "ref.csv"
    assert run_cli("sweep", "--config", cfg, "--out", str(ref), "--jobs", "1") == 0
    built = []

    def counting_build_state(*args, **kwargs):
        built.append(args)
        return build_state(*args, **kwargs)

    monkeypatch.setattr(cli, "build_state", counting_build_state)
    for jobs in ("1", "3"):
        built.clear()
        out = tmp_path / f"jobs{jobs}.csv"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--jobs", jobs) == 0
        # 16 points over 4 distinct (p, zeta) states, built in grid order
        assert [args[:2] for args in built] == [(0, 0.2), (0, 0.4), (1, 0.2), (1, 0.4)]
        assert read_bytes(out) == read_bytes(ref)


def test_sweep_error_paths(tmp_path):
    out = str(tmp_path / "x.csv")
    # missing config file
    assert run_cli("sweep", "--config", str(tmp_path / "nope.cfg"), "--out", out) == 2
    # config with no grid axes
    cfg = sweep_config(tmp_path, "[fixed]\nzeta = 0.4\n", "empty.cfg")
    assert run_cli("sweep", "--config", cfg, "--out", out) == 2
    # unknown axis
    cfg = sweep_config(tmp_path, "[grid]\nomega_a = 1, 2\n", "badaxis.cfg")
    assert run_cli("sweep", "--config", cfg, "--out", out) == 2
    # an empty observable list
    cfg = sweep_config(tmp_path, "[grid]\nzeta = 0.4\n[output]\nobservables = ,\n", "noobs.cfg")
    assert run_cli("sweep", "--config", cfg, "--out", out) == 2
    # invalid worker count
    cfg = sweep_config(tmp_path, "[grid]\nzeta = 0.4\n", "one.cfg")
    assert run_cli("sweep", "--config", cfg, "--out", out, "--jobs", "0") == 2
    # a config that is not UTF-8 text
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"\xff[grid]\nzeta = 0.4\n")
    assert run_cli("sweep", "--config", str(cfg), "--out", out) == 2
    assert not os.path.exists(out)


def test_sweep_grid_above_the_cap_is_refused_before_expanding(tmp_path, capsys, monkeypatch):
    # three 1000-value axes (10^9 points) used to die in the grid expansion
    # with a MemoryError traceback, exit 1
    def no_product(*args):
        raise AssertionError("the grid was expanded")

    axis = ", ".join(f"{(i + 1) * 1e-4:.4e}" for i in range(1000))
    cfg = sweep_config(tmp_path, f"[grid]\nzeta = {axis}\ntemperature = {axis}\nepsilon = {axis}\n")
    monkeypatch.setattr(itertools, "product", no_product)
    out = tmp_path / "x.csv"
    assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"sweep grid has 1000000000 points; at most {cli.MAX_SWEEP_POINTS} are allowed" in err
    assert not out.exists()


def test_sweep_grid_at_the_cap_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 4)
    out = tmp_path / "x.csv"
    body = "[grid]\nzeta = 0.2, 0.4\np = 0, {}\n[output]\nobservables = negativity\n"
    assert run_cli("sweep", "--config", sweep_config(tmp_path, body.format("1")),
                   "--out", str(out)) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 5
    out.unlink()
    assert run_cli("sweep", "--config", sweep_config(tmp_path, body.format("1, 2")),
                   "--out", str(out)) == 2
    assert "sweep grid has 6 points; at most 4 are allowed" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_refuses_the_difference_coupling_key(tmp_path, capsys):
    # gamma_minus couples to n_a - n_b, a no-op on the manifold: no sweep value
    # could move a result, so the key is not a fixed parameter
    cfg = sweep_config(tmp_path, "[fixed]\ngamma_minus = 1e9\n[grid]\nzeta = 0.4\n")
    out = tmp_path / "x.csv"
    assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 2
    assert "unknown fixed parameter 'gamma_minus'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid",
    ["p = 1.5", "p = nan", "zeta = nan", "temperature = 1e20", "temperature = inf",
     "tau_l = nan", "epsilon = nan", "zeta = 0.4\n[fixed]\nomega_a = nan",
     "zeta = 0.4\n[fixed]\ntail_tol = 1", "zeta = 0.4\n[fixed]\ntail_tol = 0",
     "p = 100000000", "zeta = 0.2, 0.4\ntemperature = 0, 0.5, 1e20"],
)
def test_sweep_refuses_invalid_points(tmp_path, capsys, grid):
    # a fractional p is refused, not truncated; at 1e20 K the Boltzmann ratio
    # rounds to 1; a NaN channel input would write NaN rows.  The points are
    # evaluated as they are reached, so a bad last point follows five good ones.
    cfg = sweep_config(tmp_path, f"[grid]\n{grid}\n[output]\nobservables = fidelity\n")
    out = tmp_path / "x.csv"
    assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("parameter error: ")
    assert not out.exists()


def test_sweep_memory_does_not_hold_the_grid(tmp_path):
    # 2*10^4 points: the peak is the output text, about 0.24 kB a point; a
    # sweep that kept every point's assignment, inputs and row peaked at 0.83 kB
    zetas = ", ".join(f"{0.01 * (i + 1):.2f}" for i in range(20))
    rates = ", ".join(f"{(i + 1) * 1e7:.1e}" for i in range(20))
    taus = ", ".join(f"{(i + 1) * 1e-9:.1e}" for i in range(50))
    cfg = sweep_config(
        tmp_path,
        f"[grid]\nzeta = {zetas}\ngamma_plus = {rates}\ntau_l = {taus}\n"
        "[output]\nobservables = negativity\n",
    )
    out = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out.read_text(encoding="utf-8").splitlines()) == 20_001
    assert peak / 20_000 < 400


def test_sweep_json_rows_equal_its_csv_rows(tmp_path):
    cfg = sweep_config(
        tmp_path,
        "[fixed]\ngamma_plus = 3e8\nepsilon = 4e-12\ntau_l = 1e-8\n"
        "[grid]\nzeta = 0.2, 0.6\ntemperature = 0, 0.5\n",
    )
    csv_out, json_out = tmp_path / "x.csv", tmp_path / "x.json"
    assert run_cli("sweep", "--config", cfg, "--out", str(csv_out)) == 0
    assert run_cli("sweep", "--config", cfg, "--out", str(json_out), "--format", "json") == 0
    header, *lines = csv_out.read_text(encoding="utf-8").splitlines()
    table = json.loads(json_out.read_text(encoding="utf-8"))
    assert table["columns"] == header.split(",")
    # %.16e carries 17 significant digits, so every CSV value parses back to its float
    assert table["rows"] == [[float(v) for v in line.split(",")] for line in lines]
    assert len(lines) == 4


@pytest.mark.parametrize(
    "argv",
    [["fig1", "--p", "150", "--zeta-min", "0.9", "--zeta-max", "0.9", "--steps", "2"],
     ["fig1", "--p", "100000000", "--steps", "2"],
     ["fig2", "--p", "100000000", "--steps", "2"],
     ["fig1", "--tail-tol", "nan", "--steps", "2"],
     ["fig1", "--tail-tol", "inf", "--steps", "2"],
     ["fig1", "--tail-tol", "1", "--steps", "2"],
     ["fig2", "--tail-tol", "inf", "--steps", "2"],
     ["fig2", "--zeta", "nan", "--steps", "2"],
     ["design", "--length", "nan"],
     ["design", "--length", "inf"],
     ["design", "--group-index", "nan"],
     ["design", "--omega-c", "inf"],
     ["design", "--spacing", "nan"],
     ["design", "--spacing", "inf"],
     ["design", "--length", "1e-200"],
     ["design", "--spacing", "1e-320"],
     ["design", "--budget", "1e-17"]],
)
def test_unrepresentable_states_exit_two(tmp_path, capsys, argv):
    # at a length of 1e-200 m the dissipation rate underflows to 0; a 1e-320 m
    # spacing leaves inf segments; at a 1e-17 budget 1 - delta rounds to 1
    assert run_cli(*argv, "--out", str(tmp_path / "x.csv")) == 2
    assert "parameter error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "1", "2.5", "0", "-1e-12"])
def test_tail_tol_outside_zero_one_is_refused(tmp_path, capsys, value):
    # tail_tol = inf used to keep n_max = 1 at zeta = 0.85 and print 1.97
    # instead of about 15
    out = tmp_path / "x.csv"
    assert run_cli("fig1", f"--tail-tol={value}", "--out", str(out)) == 2
    assert f"parameter error: tail_tol must be in (0, 1), got {float(value)}" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_astronomical_links_report_the_plateau(tmp_path):
    # x = omega_c tau_l far past 1e77, where the rate's products overflow
    out = tmp_path / "x.csv"
    assert run_cli("fig2", "--x-max", "1e160", "--steps", "3", "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert all(math.isfinite(float(v)) for row in rows for v in row)
    assert run_cli("design", "--length", "1e90", "--out", str(out)) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["max_spacing_m"] == report["asymptotic_spacing_m"]


def test_unwritable_output_exits_two(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run_cli("fig1", "--out", str(missing_dir), "--steps", "3") == 2


def test_sweep_at_silica_link_scale_completes(tmp_path):
    # x = omega_c tau_l = 1.4e5 at 0.2 K, beyond the quadrature's panel cap
    _, bath, params = silica_preset()
    cfg = sweep_config(
        tmp_path,
        f"""
[fixed]
temperature = {bath.temperature!r}
omega_a = {params.omega_a!r}
omega_b = {params.omega_b!r}
tau_l = {params.tau_l!r}
epsilon = {params.epsilon!r}
[grid]
zeta = 0.5
[output]
observables = negativity_dissipative
""",
    )
    out = tmp_path / "x.csv"
    assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 0
    _, value = out.read_text(encoding="utf-8").splitlines()[1].split(",")
    state = build_state(1, 0.5)
    assert 0.0 < float(value) < negativity_analytic(state)


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_run(tmp_path, monkeypatch):
    # every `ngfiber ...` line of README's "Command line" block, run in a
    # directory holding README's sweep.cfg
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [line for line in block.splitlines() if line.startswith("ngfiber ")]
    assert len(commands) == 9
    config = re.search(r"```ini\n(# sweep\.cfg\n.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.cfg").write_text(config, encoding="utf-8")
    for line in commands:
        assert run_cli(*shlex.split(line)[1:]) == 0, line
    keys = next(line for line in section.splitlines() if line.startswith("`[fixed]` keys:"))
    assert keys.split("`")[3].split(", ") == list(_FIXED_DEFAULTS)
