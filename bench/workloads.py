"""Seeded operation lists for the three benchmark workloads.

Pure standard library: the lists are made in the parent process and handed
to the measured worker as JSON, so generating them costs the worker nothing.

Parameters come from jittered strata (``Draws``).  A range is cut into as
many strata as there are operations, and each operation takes one stratum;
the seed moves each value only within the middle fifth of its stratum.
Integer parameters, and those at which a cost jumps, sit at the strata's
middles in every seed.

Which stratum of one parameter goes with which stratum of another is fixed,
not seeded, because parameters that look harmless set the cost: tau_l and
gamma_plus set the size of the phases numpy's sin/cos must reduce, which
moves the time of one channel call by up to 2.2x at fixed matrix sizes.
Every seed therefore runs the same operations at slightly different values,
with the same cost profile, the same heaviest operations and the same peak
memory.
"""

from __future__ import annotations

import math
import random

JITTER = 0.2

OMEGA_C = 2.62e10  # rad/s, bath cutoff used throughout (hbar omega_c / k_B = 0.2 K)
OMEGA_MODE = 1.216e15  # rad/s, telecom-band mode frequency

# At telecom mode frequencies the density-matrix check raises ParameterError
# on some valid inputs: the phase tau_l omega_total (n - m), rounded element
# by element, leaves a nearly pure state an eigenvalue below -1e-10.  Which
# seeded inputs fail changes with the seed, so the seeded operations that run
# the check (dense PT of a dephased state, evolve_with_dissipation) use
# omega = 0; the phase costs the same few element-wise exponentials either
# way.  `verify` and `link` each run one operation at fixed telecom-frequency
# inputs on which the check fails every time (minimum eigenvalue -1.9e-9 and
# -3.5e-10), so the fault counts in `failed`, the same share of every run.

WORKLOADS = ("tabulate", "link", "verify")


class Draws:
    """Jittered-strata draws for one workload and seed."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")

    def __call__(self, name, n, lo, hi, log=False, ranked=False, jitter=JITTER):
        """n values of parameter `name`, one per stratum of [lo, hi].

        Value i sits at relative position (i + 0.5 + jitter (u - 0.5)) / n of
        the range (in log space when log is set), u uniform in [0, 1).  With
        ranked set the values come in ascending order, so two ranked
        parameters rise together, and the last one is `hi` itself: the
        heaviest corner, which sets the peak memory, is the same in every
        seed.  Otherwise they come in a fixed order that depends on `name`.
        """
        out = []
        for i in range(n):
            t = (i + 0.5 + jitter * (self.rng.random() - 0.5)) / n
            if log:
                out.append(math.exp(math.log(lo) + t * (math.log(hi) - math.log(lo))))
            else:
                out.append(lo + t * (hi - lo))
        if ranked:
            out[-1] = hi
        else:
            random.Random(f"{self.workload}:{name}").shuffle(out)
        return out


def _g(x):
    """Shortest repr that round-trips, for CLI arguments and config files."""
    return repr(float(x))


def _sweep_config(fixed, grid, observables):
    lines = ["[fixed]"]
    lines += [f"{k} = {_g(v) if isinstance(v, float) else v}" for k, v in fixed.items()]
    lines.append("[grid]")
    lines += [
        f"{k} = " + ", ".join(_g(v) if isinstance(v, float) else str(v) for v in vals)
        for k, vals in grid.items()
    ]
    lines.append("[output]")
    lines.append("observables = " + ", ".join(observables))
    return "\n".join(lines) + "\n"


def _cli(name, argv, **extra):
    op = {"kind": name, "cli": True, "argv": [name] + [str(a) for a in argv]}
    op.update(extra)
    return op


P_PAIRS = ([0, 1], [2, 3], [0, 2], [1, 3], [0, 3], [1, 2])


def tabulate_ops(draw):
    ops = []
    # fig1: p 0-3, zeta up to 0.99; the upper end sets the cost (n_max 1946 at 0.99)
    n = 40
    for i, (zlo, zhi, steps) in enumerate(zip(draw("fig1.zeta_min", n, 0.01, 0.25),
                                               draw("fig1.zeta_max", n, 0.3, 0.99),
                                               draw("fig1.steps", n, 20, 61, jitter=0.0))):
        ops.append(_cli("fig1", ["--p", i % 4, "--zeta-min", _g(zlo), "--zeta-max", _g(zhi),
                                 "--steps", int(steps)]))
    # fig2: the series loop runs n_max times per row
    n = 20
    for i, (zeta, eps, xmax) in enumerate(zip(draw("fig2.zeta", n, 0.2, 0.9),
                                              draw("fig2.epsilon", n, 1e-12, 1e-11, log=True),
                                              draw("fig2.x_max", n, 1.0, 1e3, log=True))):
        ops.append(_cli("fig2", ["--p", i % 4, "--zeta", _g(zeta), "--epsilon", _g(eps),
                                 "--x-max", _g(xmax), "--steps", 150]))
    # T = 0 sweeps: all four observables, the dissipative one through the closed rate
    n = 16
    zetas = [draw(f"sweep0.zeta{j}", n, 0.1, 0.95) for j in range(3)]
    gammas = [draw(f"sweep0.gamma_plus{j}", n, 1e8, 1e10, log=True) for j in range(2)]
    taus = [draw(f"sweep0.tau_l{j}", n, 1e-9, 1e-6, log=True) for j in range(2)]
    epsilons = draw("sweep0.epsilon", n, 1e-12, 1e-11, log=True)
    for i in range(n):
        grid = {
            "p": P_PAIRS[i % len(P_PAIRS)],
            "zeta": sorted(z[i] for z in zetas),
            "gamma_plus": sorted(g[i] for g in gammas),
            "tau_l": sorted(t[i] for t in taus),
        }
        fixed = {"temperature": 0.0, "omega_a": OMEGA_MODE, "omega_b": OMEGA_MODE,
                 "epsilon": epsilons[i]}
        ops.append(_cli("sweep", [], config=_sweep_config(
            fixed, grid, ["negativity", "negativity_dephased", "negativity_dissipative",
                          "fidelity"])))
    # T > 0 sweeps: the Gibbs sum (s_max ~ 138 T/K) times n_max sets the cost.  T and
    # the upper zeta rise together so the zeta = 0.9, 300 K, p = 1 corner is in every pass.
    n = 12
    for i, (temp, zhi, zlo, gamma, tau) in enumerate(zip(
            draw("sweep.temperature", n, 0.05, 300.0, log=True, ranked=True),
            draw("sweep.zeta_hi", n, 0.45, 0.9, ranked=True),
            draw("sweep.zeta_lo", n, 0.05, 0.4),
            draw("sweep.gamma_plus", n, 1e8, 1e10, log=True),
            draw("sweep.tau_l", n, 1e-9, 1e-6, log=True))):
        grid = {"zeta": [zlo, zhi], "temperature": [temp]}
        fixed = {"p": i % 4 if i < n - 1 else 1, "omega_a": OMEGA_MODE, "omega_b": OMEGA_MODE,
                 "gamma_plus": gamma, "tau_l": tau}
        ops.append(_cli("sweep", [], config=_sweep_config(
            fixed, grid, ["negativity", "negativity_dephased", "fidelity"])))
    return ops


def _epsilon(x, decay0):
    """Timing jitter whose T = 0 decay exponent 4 eps^2 Gamma_0(x) is decay0."""
    gamma0 = OMEGA_C**2 * x * x * (3.0 + x * x) / (1.0 + x * x) ** 2
    return math.sqrt(decay0 / (4.0 * gamma0))


def link_ops(draw):
    ops = []
    # design reports: link length 1 m - 100 km, budget, group index
    n = 48
    for length, n_g, budget in zip(draw("design.length", n, 1.0, 1e5, log=True),
                                   draw("design.group_index", n, 1.4, 1.7),
                                   draw("design.budget", n, 0.005, 0.3, log=True)):
        ops.append(_cli("design", ["--length", _g(length), "--group-index", _g(n_g),
                                   "--budget", _g(budget)]))
    # finite-temperature link points; x = omega_c tau_l sets the quadrature's panel count.
    # x and T sit at fixed points: the quadrature halves its panels when its two orders
    # disagree, so its cost triples between some neighbouring values of either.
    # epsilon is set by the T = 0 decay exponent 4 eps^2 Gamma_0 of the k = 1 coherence.
    n = 12
    for i, (x, zeta, temp, decay0, gamma) in enumerate(zip(
            draw("link.x", n, 1.0, 1e4, log=True, ranked=True, jitter=0.0),
            draw("link.zeta", n, 0.1, 0.7),
            draw("link.temperature", n, 0.05, 4.0, log=True, jitter=0.0),
            draw("link.decay0", n, 0.01, 0.5, log=True),
            draw("link.gamma_plus", n, 1e7, 1e10, log=True))):
        point = {"p": i % 4, "zeta": zeta, "temperature": temp, "tau_l": x / OMEGA_C,
                 "epsilon": _epsilon(x, decay0), "gamma_plus": gamma}
        ops.append({"kind": "link-negativity", **point, "omega_mode": OMEGA_MODE})
        ops.append({"kind": "link-evolve", **point, "omega_mode": 0.0})
    ops.append({"kind": "link-evolve", "p": 3, "zeta": 0.63, "temperature": 0.054,
                "tau_l": 180.0 / OMEGA_C, "epsilon": _epsilon(180.0, 0.01), "gamma_plus": 2e7,
                "omega_mode": OMEGA_MODE})
    return ops


def _bb_configs(max_dim):
    """(cut, modes, s_cut, joint dim) with cut 4-12, 1-2 modes, s_cut 2-4, by dim."""
    out = []
    for cut in range(4, 13):
        for modes in (1, 2):
            for s_cut in (2, 3, 4):
                dim = (cut + 1) * (cut + 2) // 2 * (s_cut + 1) ** modes
                if dim <= max_dim:
                    out.append((dim, cut, modes, s_cut))
    return sorted(out)


def _bb_op(draw, cfg, segments, perturbed, protected):
    """One bang-bang run; its cost is set by the dimension and, perturbed, the segments."""
    dim, cut, modes, s_cut = cfg
    rng = draw.rng
    op = {
        "kind": "bb", "cut": cut, "modes": modes, "s_cut": s_cut, "dim": dim,
        "segments": segments, "protected": protected,
        "frequencies": [rng.uniform(0.5, 1.5) for _ in range(modes)],
        "raman": [rng.uniform(0.1, 0.4) for _ in range(modes)],
        "deph_a": [rng.uniform(0.0, 0.05) for _ in range(modes)],
        "deph_b": [rng.uniform(0.0, 0.05) for _ in range(modes)],
        "omega_a": rng.uniform(1.0, 3.0), "omega_b": rng.uniform(1.0, 3.0),
        "tau": rng.uniform(0.05, 0.5),
        "zeta": rng.uniform(0.2, 0.6), "p": cut % 3,
    }
    if perturbed:
        rel = rng.uniform(0.02, 0.2)
        op["g_scales"] = [[1.0 + rel * rng.gauss(0, 1) for _ in range(modes)]
                          for _ in range(segments)]
        op["d_scales"] = [[1.0 + rel * rng.gauss(0, 1) for _ in range(modes)]
                          for _ in range(segments)]
    return op


def verify_ops(draw):
    ops = []
    # dense partial-transpose negativities: cost ~ dim^3 with dim ~ 2 n_max^2
    n = 16
    for i, (nm, zeta, temp, gamma, tau) in enumerate(zip(
            draw("pt.n_max", n, 8, 25.99, log=True, ranked=True, jitter=0.0),
            draw("pt.zeta", n, 0.2, 0.7),
            draw("pt.temperature", n, 0.05, 4.0, log=True),
            draw("pt.gamma_plus", n, 1e8, 1e10, log=True),
            draw("pt.tau_l", n, 1e-9, 1e-7, log=True))):
        op = {"kind": "pt", "p": i % 4, "n_max": int(nm), "zeta": zeta, "dephased": i % 2 == 1}
        if op["dephased"]:
            op.update(temperature=temp, gamma_plus=gamma, tau_l=tau, omega_mode=0.0)
        ops.append(op)
    ops.append({"kind": "pt", "p": 1, "n_max": 10, "zeta": 0.618, "dephased": True,
                "temperature": 0.129, "gamma_plus": 6.9e8, "tau_l": 4.1e-8,
                "omega_mode": OMEGA_MODE})
    # bang-bang runs: homogeneous profiles reuse one eigendecomposition up to dim 819;
    # perturbed ones need one per segment, so their dimension stays small
    n = 12
    hom = _bb_configs(820)
    for i, (t, segs) in enumerate(zip(
            draw("bb.config", n, 0, len(hom) - 1e-9, ranked=True, jitter=0.0),
            draw("bb.segments", n, 4, 32.99, jitter=0.0))):
        ops.append(_bb_op(draw, hom[int(t)], 2 * int(segs), False, i % 2 == 0))
    pert = _bb_configs(150)
    for i, (t, segs) in enumerate(zip(
            draw("bbp.config", n, 0, len(pert) - 1e-9, ranked=True, jitter=0.0),
            draw("bbp.segments", n, 4, 32.99, ranked=True, jitter=0.0))):
        ops.append(_bb_op(draw, pert[int(t)], 2 * int(segs), True, i % 2 == 1))
    for _ in range(2):
        ops.append(_cli("validate", ["--level", "full"]))
    return ops


def make_ops(workload, seed):
    """The seeded operation list of one workload, in the order a pass runs it.

    The order is shuffled once, the same way for every seed, so each
    operation follows the same neighbours (and finds the allocator and the
    caches in the same state after, say, the x = 1e4 quadrature) whatever
    the seed.
    """
    draw = Draws(workload, seed)
    ops = {"tabulate": tabulate_ops, "link": link_ops, "verify": verify_ops}[workload](draw)
    random.Random(f"{workload}:order").shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def warmup_ops(workload):
    """One small fixed operation of each kind the workload runs."""
    small = {
        "tabulate": [
            _cli("fig1", ["--steps", 4]),
            _cli("fig2", ["--steps", 4]),
            _cli("sweep", [], config=_sweep_config(
                {"temperature": 0.5}, {"zeta": [0.3, 0.5]},
                ["negativity", "negativity_dephased", "negativity_dissipative", "fidelity"])),
        ],
        "link": [
            _cli("design", []),
            {"kind": "link-negativity", "p": 1, "zeta": 0.4, "temperature": 0.5,
             "tau_l": 2.0 / OMEGA_C, "epsilon": _epsilon(2.0, 0.1), "gamma_plus": 1e9,
             "omega_mode": OMEGA_MODE},
            {"kind": "link-evolve", "p": 1, "zeta": 0.4, "temperature": 0.5,
             "tau_l": 2.0 / OMEGA_C, "epsilon": _epsilon(2.0, 0.1), "gamma_plus": 1e9,
             "omega_mode": OMEGA_MODE},
        ],
        "verify": [
            {"kind": "pt", "p": 1, "n_max": 4, "zeta": 0.4, "dephased": False},
            _bb_op(Draws(workload, 0), _bb_configs(45)[0], 4, True, True),
            _cli("validate", ["--level", "full"]),
        ],
    }[workload]
    for i, op in enumerate(small):
        op["id"] = f"warmup{i}"
    return small
