"""Cross-route consistency checks runnable from the command line.

Every quantity with two independent computation routes is compared here:
series against the partial-transpose eigensolver, closed forms against
direct summation or quadrature (the finite-temperature dissipation rate at
level full), and the pulse-sequence identities against brute-force matrix
algebra.  A failed check means the two routes disagree beyond the pinned
tolerance, which should never survive a correct change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bangbang as bb
from .bath import (
    BathSpec,
    dissipation_rate,
    dissipation_rate_closed,
    dissipation_rate_quadrature,
    visibility_closed,
    visibility_direct,
)
from .channel import ChannelParams, fidelity, negativity_after_dephasing, evolve_dephasing
from .constants import HBAR, K_B
from .design import FiberSpec, spacing_report
from .errors import ParameterError
from .fock import FockSpace, annihilation, phase_shifter
from .negativity import negativity_analytic, negativity_numeric
from .states import build_state


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_negativity_routes() -> CheckResult:
    worst = 0.0
    for p, zeta in ((1, 0.5), (2, 0.4), (0, 0.3)):
        state = build_state(p, zeta)
        series = negativity_analytic(state)
        numeric = negativity_numeric(state.density_matrix())
        worst = max(worst, abs(series - numeric))
    return CheckResult(
        "negativity-series-vs-eigensolver", worst <= 1e-9, f"max |diff| = {worst:.3e}"
    )


def _check_visibility_routes() -> CheckResult:
    # temperature chosen so hbar Omega / 2 kB T = 0.7
    omega = 2.62e10
    temp = HBAR * omega / (2.0 * K_B * 0.7)
    bath = BathSpec(omega_phonon=omega, temperature=temp, omega_c=omega)
    xs = np.linspace(0.0, math.pi, 97)
    worst = max(
        float(np.max(abs(visibility_closed(bath, xs, k) - visibility_direct(bath, xs, k))))
        for k in (1, 3)
    )
    return CheckResult("visibility-closed-vs-direct", worst <= 1e-10, f"max |diff| = {worst:.3e}")


def _check_dissipation_routes() -> CheckResult:
    omega_c = 2.62e10
    bath = BathSpec(omega_phonon=omega_c, temperature=0.0, omega_c=omega_c)
    worst = 0.0
    for x in (0.1, 1.0, 10.0):
        tau = x / omega_c
        quad = dissipation_rate_quadrature(bath, tau)
        closed = dissipation_rate_closed(omega_c, tau)
        worst = max(worst, abs(quad - closed) / closed)
    return CheckResult(
        "dissipation-quadrature-vs-closed", worst <= 1e-6, f"max rel diff = {worst:.3e}"
    )


def _check_dissipation_thermal_routes() -> CheckResult:
    omega_c = 2.62e10
    worst = 0.0
    for temp in (0.2, 4.0):
        bath = BathSpec(omega_phonon=omega_c, temperature=temp, omega_c=omega_c)
        for x in (0.5, 5.0, 50.0):
            quad = dissipation_rate_quadrature(bath, x / omega_c)
            closed = dissipation_rate(bath, x / omega_c)
            worst = max(worst, abs(quad - closed) / closed)
    return CheckResult(
        "dissipation-thermal-vs-quadrature", worst <= 1e-9, f"max rel diff = {worst:.3e}"
    )


def _check_fidelity_recovery() -> CheckResult:
    state = build_state(1, 0.5)
    bath = BathSpec(omega_phonon=1.0e10, temperature=0.0, omega_c=1.0e10)
    omega_total = 3.7e5
    worst = 0.0
    for loops in (1, 2, 3):
        tau = 2.0 * loops * math.pi / omega_total
        params = ChannelParams(
            omega_a=omega_total, omega_b=0.0, gamma_plus=0.0, gamma_minus=0.0, tau_l=tau
        )
        worst = max(worst, abs(fidelity(state, params, bath) - 1.0))
    return CheckResult(
        "fidelity-full-turn-recovery", worst <= 1e-10, f"max |F - 1| = {worst:.3e}"
    )


def _check_phase_shifter_flip() -> CheckResult:
    space = FockSpace(8)
    pi_op = phase_shifter(space)
    raman = annihilation(space, "a").dagger() @ annihilation(space, "b")
    flipped = pi_op @ raman @ pi_op.dagger()
    worst = float(np.max(np.abs(flipped.matrix + raman.matrix)))
    return CheckResult("phase-shifter-sign-flip", worst <= 1e-13, f"max-norm = {worst:.3e}")


def _check_spacing_consistency() -> CheckResult:
    fiber = FiberSpec(length=1000.0, group_index=1.6, omega_c=2.62e10, error_budget=0.05)
    report = spacing_report(fiber)
    target = report["budget_log_term"]
    rel = abs(report["decay_exponent_at_budget"] - target) / target
    return CheckResult(
        "spacing-bound-exponent", rel <= 5e-3, f"4 tau^2 Gamma vs budget: rel diff {rel:.3e}"
    )


def _check_dephasing_series_route() -> CheckResult:
    state = build_state(1, 0.5, n_max=8)
    omega = 2.62e10
    temp = HBAR * omega / (2.0 * K_B * 0.9)
    bath = BathSpec(omega_phonon=omega, temperature=temp, omega_c=omega)
    params = ChannelParams(
        omega_a=1.0e9, omega_b=2.0e9, gamma_plus=2.5e8, gamma_minus=0.0, tau_l=3.1e-9
    )
    series = negativity_after_dephasing(state, params, bath)
    numeric = negativity_numeric(evolve_dephasing(state, params, bath))
    diff = abs(series - numeric)
    return CheckResult("dephased-negativity-routes", diff <= 1e-9, f"|diff| = {diff:.3e}")


def _demo_toy_bath() -> bb.ToyBath:
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


def _bb_demo_setup():
    return FockSpace(4), _demo_toy_bath()


def _check_bb_identities() -> CheckResult:
    space, bath = _bb_demo_setup()
    raman_only = replace(bath, frequencies=(0.0,), omega_a=0.0, omega_b=0.0)
    h_raman = bb.build_hamiltonian(space, raman_only)
    pi = bb.joint_phase_shifter(space, bath)
    # over the sector blocks: outside them H and Pi H Pi+ are both zero
    rows, cols = h_raman.entries()
    worst = float(np.max(np.abs(pi[rows] * h_raman.data * pi[cols].conj() + h_raman.data)))
    return CheckResult("bb-raman-conjugation", worst <= 1e-13, f"max-norm = {worst:.3e}")


def _check_bb_suppression() -> CheckResult:
    space, bath = _bb_demo_setup()
    state = build_state(1, 0.35, n_max=1)
    psi0 = bb.joint_initial_state(state, space, bath)
    tau_total = 16.0
    pi_joint = bb.joint_phase_shifter(space, bath)
    h = bb.build_hamiltonian(space, bath)
    target_sys = bb.h0_evolved_target(state, space, bath, tau_total)

    def infidelity(num_segments, protected):
        tau = tau_total / num_segments
        h_list = [h] * num_segments
        if protected:
            psi = bb.propagate_bb(h_list, tau, psi0, pi_joint)
        else:
            psi = bb.propagate_free(h_list, tau, psi0)
        return 1.0 - bb.system_fidelity(psi, target_sys, space, bath)

    free = infidelity(8, protected=False)
    taus, infids = [], []
    for num_segments in (8, 16, 32):
        taus.append(tau_total / num_segments)
        infids.append(infidelity(num_segments, protected=True))
    slope = np.polyfit(np.log(taus), np.log(infids), 1)[0]
    improvement = free / infids[-1]
    ok = improvement >= 10.0
    return CheckResult(
        "bb-suppression",
        ok,
        f"improvement x{improvement:.1f} at smallest tau; log-log slope {slope:.2f}",
    )


FAST_CHECKS = (
    _check_negativity_routes,
    _check_visibility_routes,
    _check_dissipation_routes,
    _check_fidelity_recovery,
    _check_phase_shifter_flip,
    _check_spacing_consistency,
    _check_dephasing_series_route,
)

FULL_CHECKS = FAST_CHECKS + (
    _check_dissipation_thermal_routes,
    _check_bb_identities,
    _check_bb_suppression,
)


def run(level: str = "fast"):
    """Run the consistency suite; returns a list of CheckResult."""
    if level not in ("fast", "full"):
        raise ParameterError(f"level must be 'fast' or 'full', got {level!r}")
    checks = FAST_CHECKS if level == "fast" else FULL_CHECKS
    results = [check() for check in checks]
    return [CheckResult(r.name, bool(r.passed), r.detail) for r in results]
