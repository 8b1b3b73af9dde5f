"""Command-line interface: tabulate figures, design numbers, and checks.

Subcommands
    fig1      negativity versus squeezing magnitude
    fig2      negativity versus accumulated time, with and without fluctuations
    design    spacing bound and timing report for a fiber link
    validate  cross-route consistency suite
    sweep     parameter grid driven by a config file

fig1, fig2 and sweep write a table to --out, as CSV or (--format json) JSON;
--emit-plot-script adds a gnuplot script OUT.gp and needs CSV.  design and
validate take --out only: design prints its JSON report to stdout without
it, validate always prints its check lines and writes JSON only with it.
Every output file goes through _write (UTF-8, \\n line endings).

Tables are evaluated through the public library API, each row with the bits
of its one-row library call: fig1 builds its states with build_states, a
chunk of rows at a time, and fig2 its decay rows with
channel.timing_negativities.  sweep walks its grid once, in grid order and in
the calling thread: each point is built, evaluated through
negativity_after_dephasing, negativity_dissipative and fidelity, and
formatted as it is reached.  --jobs is still parsed but changes nothing.

Exit codes: 0 success, 2 parameter/config validation, 3 numerical failure,
4 validation-suite failure.  All tabular output is deterministic: rerunning
a command with the same inputs produces byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import validate as validate_mod
from .bath import BathSpec
from .channel import (
    ChannelParams,
    fidelity,
    negativity_after_dephasing,
    negativity_dissipative,
    timing_negativities,
)
from .config import RunConfig
from .design import FiberSpec, spacing_report
from .errors import ConfigError, NgFiberError, ParameterError
from .negativity import negativity_analytic
from .states import build_state, build_states

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4
# Most rows fig1 and fig2 tabulate; a larger count is refused before linspace
# allocates it.  At 10^6 rows, on a 2-CPU x86-64 machine, fig1 takes about
# 12 s and 0.3 GB, fig2 about 6 s and 0.5 GB.
MAX_STEPS = 1_000_000
# Most points a sweep grid may hold; the product of its axis lengths is checked
# before the grid is walked.  At T = 0, p = 1 and four observables 10^6 points
# take 15-26 s and peak at 0.41 GB on a shared 2-CPU x86-64 machine.
MAX_SWEEP_POINTS = 1_000_000
# fig1 builds its states this many rows at a time, so that one chunk of states
# (about 1 kB each plus 16 B per coefficient), not the whole table, is alive
_FIG1_CHUNK = 1024


def _write(path: str, text: str) -> None:
    """The one way an output file is written: UTF-8 with \\n line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def write_table(args, header, rows, title: str) -> None:
    """Write rows to args.out as CSV or JSON; with --emit-plot-script also OUT.gp.

    The gnuplot script plots every column against the first and names the
    data file by its basename, so the pair can be moved together.
    """
    if args.format == "json":
        text = _json({"columns": list(header), "rows": [[float(v) for v in row] for row in rows]})
    else:
        line = ",".join(["%.16e"] * len(header))  # one format per row, the f"{v:.16e}" bytes
        text = "\n".join([",".join(header)] + [line % tuple(row) for row in rows]) + "\n"
    _write(args.out, text)
    if args.emit_plot_script:
        data_name = os.path.basename(args.out)
        quoted = data_name.replace("'", "''")  # gnuplot's escape inside single quotes
        plots = ", ".join(
            f"'{quoted}' using 1:{i + 2} with lines" for i in range(len(header) - 1)
        )
        lines = [
            f"# gnuplot script for {data_name}",
            "set datafile separator ','",
            "set key autotitle columnhead",
            f"set xlabel '{header[0]}'",
            f"set title '{title}'",
            f"plot {plots}",
        ]
        _write(args.out + ".gp", "\n".join(lines) + "\n")


def _check_steps(steps: int) -> None:
    if steps < 2:
        raise ParameterError("steps must be >= 2")
    if steps > MAX_STEPS:
        raise ParameterError(f"steps must be <= {MAX_STEPS}, got {steps}")


def cmd_fig1(args) -> int:
    _check_steps(args.steps)
    if not (0.0 < args.zeta_min <= args.zeta_max < 1.0):
        raise ParameterError("need 0 < zeta-min <= zeta-max < 1")
    zetas = np.linspace(args.zeta_min, args.zeta_max, args.steps).tolist()
    rows = []
    for start in range(0, len(zetas), _FIG1_CHUNK):
        chunk = zetas[start : start + _FIG1_CHUNK]
        states = build_states(args.p, chunk, tail_tol=args.tail_tol)
        rows += [(zeta, negativity_analytic(state)) for zeta, state in zip(chunk, states)]
    write_table(args, ("zeta", "negativity"), rows, "negativity vs squeezing")
    return EXIT_OK


def cmd_fig2(args) -> int:
    _check_steps(args.steps)
    if not 0.0 < args.x_max < math.inf:
        raise ParameterError(f"x-max must be finite and > 0, got {args.x_max}")
    if not 0.0 < args.omega_c < math.inf:
        raise ParameterError(f"omega-c must be finite and > 0, got {args.omega_c}")
    state = build_state(args.p, args.zeta, tail_tol=args.tail_tol)
    bath = BathSpec(omega_phonon=args.omega_c, temperature=0.0, omega_c=args.omega_c)
    xs = np.linspace(0.0, args.x_max, args.steps)
    taus = [x / args.omega_c for x in xs.tolist()]
    fluct = timing_negativities(state, args.epsilon, taus, bath)
    # xs starts at exactly 0, so row 0 is the fluctuation-free reference
    rows = [(x, value, fluct[0]) for x, value in zip(xs, fluct)]
    header = ("x", "negativity_fluct", "negativity_no_fluct")
    write_table(args, header, rows, "negativity vs accumulated time")
    return EXIT_OK


def cmd_design(args) -> int:
    fiber = FiberSpec(
        length=args.length,
        group_index=args.group_index,
        omega_c=args.omega_c,
        error_budget=args.budget,
        delta_spacing=args.spacing,
    )
    text = _json(spacing_report(fiber))
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_validate(args) -> int:
    results = validate_mod.run(level=args.level)
    for res in results:
        status = "ok" if res.passed else "FAIL"
        sys.stdout.write(f"check {res.name}: {status} ({res.detail})\n")
    if args.out:
        checks = [{"name": r.name, "passed": bool(r.passed), "detail": r.detail} for r in results]
        _write(args.out, _json({"level": args.level, "checks": checks}))
    if all(r.passed for r in results):
        sys.stdout.write(f"{len(results)} checks passed\n")
        return EXIT_OK
    failed = sum(1 for r in results if not r.passed)
    sys.stdout.write(f"{failed} of {len(results)} checks FAILED\n")
    return EXIT_VALIDATION


def _sweep_point(observables: tuple, state, bath: BathSpec, channel: ChannelParams) -> list:
    values = []
    for name in observables:
        if name == "negativity":
            values.append(negativity_analytic(state))
        elif name == "negativity_dephased":
            values.append(negativity_after_dephasing(state, channel, bath))
        elif name == "negativity_dissipative":
            values.append(negativity_dissipative(state, channel, bath, combined=True))
        else:
            values.append(fidelity(state, channel, bath))
    return values


def cmd_sweep(args) -> int:
    """Evaluate the config's observables on its grid; write one row per point in grid order.

    The grid is walked once, in the calling thread: each point's bath and
    channel are built, its observables evaluated and its row handed to
    write_table as it is reached.  Each distinct (p, zeta, tail_tol) state is
    built once and stays alive until the sweep ends.  write_table joins the
    whole text before it opens --out, so a bad point anywhere in the grid is
    refused with no file written.  --jobs is checked but changes nothing.
    """
    if args.jobs < 1:
        raise ParameterError("jobs must be >= 1")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {args.config!r} is not UTF-8 text: {exc.reason}") from None
    run = RunConfig.from_text(text)
    axes = run.axes_in_canonical_order()
    if not axes:
        raise ParameterError("sweep config declares no grid axes")

    points = math.prod(len(run.grid[axis]) for axis in axes)
    if points > MAX_SWEEP_POINTS:
        raise ParameterError(
            f"sweep grid has {points} points; at most {MAX_SWEEP_POINTS} are allowed"
        )
    def rows():
        states = {}
        # the last axis varies fastest
        for values in itertools.product(*(run.grid[a] for a in axes)):
            v = {**run.fixed, **dict(zip(axes, values))}
            key = (v["p"], v["zeta"], v["tail_tol"])
            if key not in states:
                states[key] = build_state(*key)
            bath = BathSpec(
                omega_phonon=v["omega_phonon"], temperature=v["temperature"], omega_c=v["omega_c"]
            )
            channel = ChannelParams(
                omega_a=v["omega_a"],
                omega_b=v["omega_b"],
                gamma_plus=v["gamma_plus"],
                gamma_minus=0.0,
                tau_l=v["tau_l"],
                epsilon=v["epsilon"],
            )
            yield values + tuple(_sweep_point(run.observables, states[key], bath, channel))

    write_table(args, tuple(axes) + run.observables, rows(), "parameter sweep")
    return EXIT_OK


def _add_table_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument(
        "--emit-plot-script",
        action="store_true",
        help="also write OUT.gp, a gnuplot script for the CSV output",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngfiber",
        description="Entanglement transmission through a protected fiber link",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("fig1", help="negativity vs squeezing magnitude")
    _add_table_flags(p1)
    p1.add_argument("--p", type=int, default=1, help="number of subtracted photons")
    p1.add_argument("--zeta-min", type=float, default=0.05)
    p1.add_argument("--zeta-max", type=float, default=0.85)
    p1.add_argument("--steps", type=int, default=50)
    p1.add_argument("--tail-tol", type=float, default=1e-12)
    p1.set_defaults(func=cmd_fig1)

    p2 = sub.add_parser("fig2", help="negativity vs accumulated decay time")
    _add_table_flags(p2)
    p2.add_argument("--p", type=int, default=1)
    p2.add_argument("--zeta", type=float, default=0.5)
    p2.add_argument("--epsilon", type=float, default=4.325e-12, help="timing jitter, s")
    p2.add_argument("--omega-c", type=float, default=2.62e10, help="bath cutoff, rad/s")
    p2.add_argument("--x-max", type=float, default=100.0, help="max omega_c * tau_l")
    p2.add_argument("--steps", type=int, default=201)
    p2.add_argument("--tail-tol", type=float, default=1e-12)
    p2.set_defaults(func=cmd_fig2)

    pd = sub.add_parser("design", help="spacing bound and timing report")
    pd.add_argument("--out", help="output file path (default: stdout)")
    pd.add_argument("--length", type=float, default=1000.0, help="link length, m")
    pd.add_argument("--group-index", type=float, default=1.6)
    pd.add_argument("--omega-c", type=float, default=2.62e10)
    pd.add_argument("--budget", type=float, default=0.05, help="acceptable loss fraction")
    pd.add_argument("--spacing", type=float, default=None, help="override spacing, m")
    pd.set_defaults(func=cmd_design)

    pv = sub.add_parser("validate", help="run the cross-route consistency suite")
    pv.add_argument("--out", help="also write the checks as JSON to this path")
    pv.add_argument("--level", choices=("fast", "full"), default="fast")
    pv.set_defaults(func=cmd_validate)

    ps = sub.add_parser("sweep", help="parameter grid from a config file")
    _add_table_flags(ps)
    ps.add_argument("--config", required=True, help="sweep config file")
    ps.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="accepted (must be >= 1) but changes nothing: the sweep runs in one thread",
    )
    ps.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "emit_plot_script", False):
            if args.format != "csv":
                raise ParameterError("--emit-plot-script needs --format csv")
            # a line break would end the script's comment line and run the rest as a command
            if any(c in os.path.basename(args.out) for c in "\r\n"):
                raise ParameterError("--emit-plot-script needs an --out name without line breaks")
        return args.func(args)
    except ParameterError as exc:
        sys.stderr.write(f"parameter error: {exc}\n")
        return EXIT_PARAMETER
    except NgFiberError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
