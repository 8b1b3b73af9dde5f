"""Acceptance gate: one test per release criterion, one line per verdict.

Run with `pytest -v tests/test_acceptance.py`: each criterion reports exactly
one PASSED/FAILED/XFAIL line.  Three clauses are marked xfail(strict=True):
the measured behavior of the implementation differs from the stated target
by a reproducible, pinned amount, and each such clause has a passing
companion test directly below it that freezes what the code actually does.
Weakening a tolerance to turn an xfail green is not an option; if one of
these starts passing, strict mode fails the suite so the change gets looked
at.
"""

import json
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ngfiber.bangbang as bb
from ngfiber import cli
from ngfiber.bath import (
    BathSpec,
    dissipation_rate_closed,
    dissipation_rate_quadrature,
    visibility_closed,
    visibility_direct,
)
from ngfiber.channel import (
    ChannelParams,
    evolve_dephasing,
    fidelity,
    negativity_dissipative,
    recovery_times,
)
from ngfiber.design import FiberSpec, max_spacing, transit_time
from ngfiber.fock import FockSpace, annihilation, phase_shifter
from ngfiber.negativity import negativity_analytic, negativity_numeric
from ngfiber.states import build_state

WC = 2.62e10
EPS_FIG = 4.325e-12


def km_link() -> FiberSpec:
    return FiberSpec(length=1000.0, group_index=1.6, omega_c=WC, error_budget=0.05)


def cold_bath() -> BathSpec:
    return BathSpec(omega_phonon=WC, temperature=0.0, omega_c=WC)


def dissipative_negativity_at(x: float, epsilon: float = EPS_FIG) -> float:
    state = build_state(1, 0.5)
    params = ChannelParams(
        omega_a=0.0, omega_b=0.0, gamma_plus=0.0, gamma_minus=0.0,
        tau_l=x / WC, epsilon=epsilon,
    )
    return negativity_dissipative(state, params, cold_bath())


def scan_bath() -> bb.ToyBath:
    return bb.ToyBath(
        num_modes=1,
        frequencies=(1.0,),
        raman_couplings=(0.35,),
        dephasing_rates_a=(0.0,),
        dephasing_rates_b=(0.0,),
        s_cut=2,
        omega_a=2.0,
        omega_b=1.3,
    )


def bb_infidelities(segment_counts) -> tuple:
    """Protected and free infidelity against the coupling-free target."""
    bath = scan_bath()
    space = FockSpace(4)
    state = build_state(1, 0.5, n_max=1)
    psi0 = bb.joint_initial_state(state, space, bath)
    pi_op = bb.joint_phase_shifter(space, bath)
    h = bb.build_hamiltonian(space, bath)
    tau_total = 16.0
    target = bb.h0_evolved_target(state, space, bath, tau_total)
    taus, protected = [], []
    free = None
    for n_seg in segment_counts:
        tau = tau_total / n_seg
        h_list = [h] * n_seg
        psi_bb = bb.propagate_bb(h_list, tau, psi0, pi_op)
        protected.append(1.0 - bb.system_fidelity(psi_bb, target, space, bath))
        taus.append(tau)
        if free is None:
            psi_free = bb.propagate_free(h_list, tau, psi0)
            free = 1.0 - bb.system_fidelity(psi_free, target, space, bath)
    return np.array(taus), np.array(protected), free


def loglog_slope(x, y) -> float:
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def test_criterion_01_spacing_asymptote():
    start = time.perf_counter()
    _, asymptote = max_spacing(km_link())
    assert abs(asymptote - 0.8e-3) / 0.8e-3 < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 01: PASS - asymptotic spacing {asymptote:.6e} m "
          f"within 5% of 0.8 mm ({elapsed:.3f}s)")


def test_criterion_02_transit_time():
    start = time.perf_counter()
    tau_l = transit_time(km_link())
    assert abs(tau_l - 5.33e-6) / 5.33e-6 < 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 02: PASS - transit time {tau_l:.9e} s "
          f"within 0.1% of 5.33e-6 s ({elapsed:.3f}s)")


def test_criterion_03_dissipation_routes():
    start = time.perf_counter()
    bath = cold_bath()
    worst = 0.0
    for x in (0.01, 0.1, 1.0, 10.0, 100.0):
        closed = dissipation_rate_closed(WC, x / WC)
        numeric = dissipation_rate_quadrature(bath, x / WC)
        worst = max(worst, abs(numeric - closed) / closed)
    assert worst < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 03: PASS - closed vs quadrature rate, worst rel diff "
          f"{worst:.3e} ({elapsed:.3f}s)")


def test_criterion_04_negativity_routes():
    start = time.perf_counter()
    worst = 0.0
    for p in (0, 1, 2, 3):
        for zeta in np.arange(0.1, 0.85, 0.1):
            state = build_state(p, float(zeta), n_max=14)
            series = negativity_analytic(state)
            dense = negativity_numeric(state.density_matrix())
            worst = max(worst, abs(series - dense))
    assert worst < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 04: PASS - series vs eigensolver over 32 states, "
          f"worst |diff| {worst:.3e} ({elapsed:.3f}s)")


def test_criterion_05_negativity_sweep_increases(tmp_path):
    out = tmp_path / "fig1.csv"
    assert cli.main(["fig1", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 51  # header + default 50 steps
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b > a for a, b in zip(values, values[1:]))
    print("criterion 05: PASS - 50-point sweep strictly increasing "
          f"from {values[0]:.4f} to {values[-1]:.4f}")


def test_criterion_06_decay_and_plateau():
    # the decay rate rises from 0, overshoots near x ~ 1.7, then saturates
    # at omega_c^2: the negativity drops fast and settles onto a plateau
    n0 = dissipative_negativity_at(0.0)
    n_half = dissipative_negativity_at(0.5)
    n1 = dissipative_negativity_at(1.0)
    n17 = dissipative_negativity_at(1.7)
    n50 = dissipative_negativity_at(50.0)
    n100 = dissipative_negativity_at(100.0)
    assert n0 > n_half > n1 > n17  # fluctuations eat coherence early
    assert n100 < 0.8 * n0  # the plateau sits well below the start
    plateau = abs(n50 - n100) / n100
    assert plateau < 1e-3  # saturated rate: deep plateau is flat
    # without fluctuations nothing decays at all
    frozen = [dissipative_negativity_at(x, epsilon=0.0) for x in (0.0, 10.0, 100.0)]
    analytic = negativity_analytic(build_state(1, 0.5))
    assert max(abs(v - analytic) for v in frozen) < 1e-12
    print(f"criterion 06: PASS - decay then plateau, |N(50)-N(100)|/N(100) = "
          f"{plateau:.3e}; no-fluctuation column constant")


@pytest.mark.xfail(
    strict=True,
    reason="the plateau is specified to be flat to 1e-3 already at x = 10, "
    "but the summed coherence orders keep draining until x ~ 30: the "
    "measured ratio |N(10)-N(100)|/N(100) is 2.03e-3",
)
def test_criterion_06_plateau_tolerance_as_specified():
    n10 = dissipative_negativity_at(10.0)
    n100 = dissipative_negativity_at(100.0)
    assert abs(n10 - n100) / n100 < 1e-3


def test_criterion_06_companion_measured_plateau():
    n10 = dissipative_negativity_at(10.0)
    n100 = dissipative_negativity_at(100.0)
    ratio = abs(n10 - n100) / n100
    assert_allclose(n10, 2.328672328534903, rtol=1e-9)
    assert_allclose(n100, 2.3334111330756264, rtol=1e-9)
    assert 1.8e-3 < ratio < 2.3e-3
    print(f"criterion 06 (companion): PASS - measured x=10 plateau ratio "
          f"{ratio:.6e}, frozen")


def test_criterion_07_visibility_grid():
    start = time.perf_counter()
    worst = 0.0
    xs = np.linspace(0.0, 4.0, 27)
    temps = (0.05, 0.2, 0.5, 1.0)
    points = 0
    for temp in temps:
        bath = BathSpec(omega_phonon=WC, temperature=temp, omega_c=WC)
        for k in (1, 2, 3, 4):
            for x in xs:
                worst = max(
                    worst,
                    abs(visibility_direct(bath, float(x), k)
                        - visibility_closed(bath, float(x), k)),
                )
                points += 1
    assert points >= 400
    assert worst < 1e-10
    # periodicity in x with period pi/k
    period_worst = 0.0
    bath = BathSpec(omega_phonon=WC, temperature=0.3, omega_c=WC)
    for k in (1, 2, 3):
        for x in (0.2, 1.1, 2.7):
            period_worst = max(
                period_worst,
                abs(visibility_closed(bath, x + math.pi / k, k)
                    - visibility_closed(bath, x, k)),
            )
    assert period_worst < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 07: PASS - {points} grid points, worst route diff "
          f"{worst:.3e}, worst periodicity defect {period_worst:.3e} "
          f"({elapsed:.3f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="at tau = l pi / omega_total with odd l every coherence phase is "
    "an odd multiple of pi, which maps the state to its sign-flipped "
    "squeezing partner: the overlap dips to 0.1296 for p = 1, zeta = 0.5. "
    "Unit fidelity returns only at even l (period 2 pi, not pi)",
)
def test_criterion_08_full_recovery_as_specified():
    state = build_state(1, 0.5)
    bath = cold_bath()
    base = ChannelParams(1.216e15, 1.216e15, 0.0, 0.0, 0.0)
    for t in recovery_times(base, s=0, l_max=3):
        params = ChannelParams(1.216e15, 1.216e15, 0.0, 0.0, float(t))
        assert abs(fidelity(state, params, bath) - 1.0) < 1e-10


def test_criterion_08_companion_measured_recovery():
    state = build_state(1, 0.5)
    bath = cold_bath()
    base = ChannelParams(1.216e15, 1.216e15, 0.0, 0.0, 0.0)
    times = recovery_times(base, s=0, l_max=4)
    dip = 0.1296  # ((1-|zeta|^2)/(1+|zeta|^2))^(2(p+1))
    for l, t in enumerate(times, start=1):
        params = ChannelParams(1.216e15, 1.216e15, 0.0, 0.0, float(t))
        f = fidelity(state, params, bath)
        if l % 2 == 0:
            assert abs(f - 1.0) < 1e-10
        else:
            assert abs(f - dip) < 1e-10
    print("criterion 08 (companion): PASS - unit recovery at even turns, "
          f"measured odd-turn dip {dip}")


def test_criterion_09_pulse_conjugation_identities():
    # system-level sign flip of the exchange operator
    space = FockSpace(20)  # dim 231
    pi_sys = phase_shifter(space).matrix
    a = annihilation(space, "a").matrix
    b = annihilation(space, "b").matrix
    exchange = a.conj().T @ b
    flip = np.max(np.abs(pi_sys @ exchange @ pi_sys.conj().T + exchange))
    assert flip < 1e-13

    # joint-space interaction Hamiltonian at the dimension budget
    bath = bb.ToyBath(
        num_modes=1,
        frequencies=(0.0,),
        raman_couplings=(0.5,),
        dephasing_rates_a=(0.0,),
        dephasing_rates_b=(0.0,),
        s_cut=15,
        omega_a=0.0,
        omega_b=0.0,
    )
    dim = bb.joint_dim(space, bath)
    assert dim == 3696 and dim <= bb.DIMENSION_BUDGET
    h_int = bb.build_hamiltonian(space, bath)
    pi_joint = bb.joint_phase_shifter(space, bath)
    # elementwise over the sector blocks; every entry outside them is zero in both
    rows, cols = h_int.entries()
    conj = np.max(np.abs(pi_joint[rows] * h_int.data * pi_joint[cols].conj() + h_int.data))
    assert conj < 1e-13
    print(f"criterion 09: PASS - sign-flip defects {flip:.1e} (dim 231) and "
          f"{conj:.1e} (joint dim {dim})")


@pytest.mark.xfail(
    strict=True,
    reason="the surviving error after pulse pairing is a coherent "
    "commutator term: its amplitude scales as tau, so the infidelity "
    "scales as tau^2 (measured log-log slope 2.29 on the 8/16/32-segment "
    "scan, 2.01 asymptotically), not the stated slope 1",
)
def test_criterion_10_suppression_as_specified():
    taus, protected, free = bb_infidelities((8, 16, 32))
    slope = loglog_slope(taus, protected)
    assert free / protected[-1] >= 10.0
    assert abs(slope - 1.0) <= 0.15


def test_criterion_10_companion_improvement():
    start = time.perf_counter()
    taus, protected, free = bb_infidelities((8, 16, 32))
    improvement = free / protected[-1]
    assert improvement >= 10.0
    assert_allclose(improvement, 15.972705817445622, rtol=1e-6)
    assert_allclose(free, 0.23700424571779077, rtol=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 10 (companion): PASS - x{improvement:.1f} infidelity "
          f"reduction at the finest pulse spacing ({elapsed:.3f}s)")


def test_criterion_10_companion_measured_scaling():
    start = time.perf_counter()
    taus, protected, _ = bb_infidelities((8, 16, 32, 64, 128, 256))
    coarse = loglog_slope(taus[:3], protected[:3])
    fine = loglog_slope(taus[3:], protected[3:])
    assert_allclose(coarse, 2.292168190199847, rtol=1e-6)
    assert abs(fine - 2.0) <= 0.15
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 10 (companion): PASS - measured slopes {coarse:.3f} "
          f"(coarse) -> {fine:.3f} (asymptotic), quadratic in tau "
          f"({elapsed:.3f}s)")


def test_criterion_11_protected_subspace():
    # the difference coupling annihilates every subtracted state ...
    worst = 0.0
    for p in (0, 1, 2, 3):
        for zeta in (0.2, 0.5, 0.8):
            state = build_state(p, zeta)
            space = FockSpace(2 * state.n_max + state.p)
            worst = max(worst, bb.dfs_check(state, space))
    assert worst < 1e-12

    # ... so a channel driven only by that coupling does nothing
    bath = cold_bath()
    for p in (0, 1, 2):
        state = build_state(p, 0.5)
        params = ChannelParams(0.0, 0.0, 0.0, 7.3e9, 1e-6)
        f = fidelity(state, params, bath)
        assert abs(f - 1.0) < 1e-12
        rho = evolve_dephasing(state, params, bath)
        assert np.array_equal(rho.rho, state.density_matrix().rho)
    print(f"criterion 11: PASS - worst manifold residual {worst:.1e}; "
          "difference-only channel is the identity")


def test_criterion_12_reruns_are_byte_identical(tmp_path):
    def rerun(name, *argv):
        paths = []
        for tag in ("x", "y"):
            out = tmp_path / f"{name}_{tag}.dat"
            assert cli.main(list(argv) + ["--out", str(out)]) == 0
            paths.append(out.read_bytes())
        return paths[0] == paths[1]

    assert rerun("fig1", "fig1", "--steps", "11")
    assert rerun("fig2", "fig2", "--steps", "11", "--x-max", "30")
    assert rerun("design", "design")
    assert rerun("validate", "validate", "--level", "fast")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "[grid]\nzeta = 0.2, 0.4, 0.6\np = 0, 1\n"
        "[output]\nobservables = negativity, negativity_dissipative\n",
        encoding="utf-8",
    )
    assert rerun("sweep", "sweep", "--config", str(cfg))
    print("criterion 12: PASS - all five subcommands rerun byte-identically")
