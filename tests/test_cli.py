"""Command-line interface: formats, validation, and deterministic output."""

import json
import math
import re

import pytest

from ngfiber import cli
from ngfiber.design import silica_preset
from ngfiber.errors import TruncationTooSmall
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


def test_fig2_validation(tmp_path):
    out = str(tmp_path / "x.csv")
    assert run_cli("fig2", "--out", out, "--steps", "1") == 2
    assert run_cli("fig2", "--out", out, "--x-max", "0") == 2
    assert run_cli("fig2", "--out", out, "--zeta", "1.1") == 2


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


def test_numerical_failures_exit_three(monkeypatch, tmp_path):
    def explode(*args, **kwargs):
        raise TruncationTooSmall("synthetic numerical failure")

    monkeypatch.setattr(cli, "build_state", explode)
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
        "[grid]\nzeta = 0.1, 0.3, 0.5, 0.7\ntau_l = 1e-8, 3e-8\n"
        "[output]\nobservables = negativity, fidelity\n",
    )
    outs = []
    for jobs in ("1", "3"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--jobs", jobs) == 0
        outs.append(read_bytes(out))
    assert outs[0] == outs[1]


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
    # invalid worker count
    cfg = sweep_config(tmp_path, "[grid]\nzeta = 0.4\n", "one.cfg")
    assert run_cli("sweep", "--config", cfg, "--out", out, "--jobs", "0") == 2


@pytest.mark.parametrize(
    "grid",
    ["p = 1.5", "p = nan", "zeta = nan", "temperature = 1e20", "temperature = inf",
     "tau_l = nan", "epsilon = nan", "zeta = 0.4\n[fixed]\nomega_a = nan"],
)
def test_sweep_refuses_invalid_points(tmp_path, grid):
    # a fractional p is refused, not truncated; at 1e20 K the Boltzmann ratio
    # rounds to 1; a NaN channel input would write NaN rows
    cfg = sweep_config(tmp_path, f"[grid]\n{grid}\n[output]\nobservables = fidelity\n")
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")) == 2


@pytest.mark.parametrize(
    "argv",
    [["fig1", "--p", "150", "--zeta-min", "0.9", "--zeta-max", "0.9", "--steps", "2"],
     ["fig1", "--tail-tol", "nan", "--steps", "2"],
     ["fig2", "--zeta", "nan", "--steps", "2"],
     ["design", "--length", "nan"],
     ["design", "--length", "inf"],
     ["design", "--group-index", "nan"],
     ["design", "--omega-c", "inf"],
     ["design", "--spacing", "nan"],
     ["design", "--spacing", "inf"],
     ["design", "--length", "1e-200"]],
)
def test_unrepresentable_states_exit_two(tmp_path, capsys, argv):
    # at a length of 1e-200 m the dissipation rate underflows to 0
    assert run_cli(*argv, "--out", str(tmp_path / "x.csv")) == 2
    assert "parameter error" in capsys.readouterr().err


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
