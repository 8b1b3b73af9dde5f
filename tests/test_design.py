"""Spacing bound, timing report, and the worked silica link."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from ngfiber.bath import dissipation_rate, dissipation_rate_closed, dissipation_rate_quadrature
from ngfiber.channel import evolve_with_dissipation, negativity_dissipative
from ngfiber.constants import C_LIGHT, HBAR, K_B
from ngfiber.design import (
    FiberSpec,
    bb_timescale_ratio,
    max_spacing,
    segment_time,
    silica_preset,
    transit_time,
)
from ngfiber.errors import MissingSpacing, ParameterError, QuadratureNonConvergence
from ngfiber.states import build_state


def km_link(**overrides) -> FiberSpec:
    values = dict(
        length=1000.0, group_index=1.6, omega_c=2.62e10, error_budget=0.05
    )
    values.update(overrides)
    return FiberSpec(**values)


def test_fiberspec_validation():
    with pytest.raises(ParameterError):
        km_link(length=0.0)
    with pytest.raises(ParameterError):
        km_link(group_index=0.9)
    with pytest.raises(ParameterError):
        km_link(omega_c=-1.0)
    with pytest.raises(ParameterError):
        km_link(error_budget=0.0)
    with pytest.raises(ParameterError):
        km_link(error_budget=1.0)
    with pytest.raises(ParameterError):
        km_link(delta_spacing=0.0)


def test_transit_time_kilometer_link():
    fiber = km_link()
    assert transit_time(fiber) == 1000.0 * 1.6 / C_LIGHT
    assert_allclose(transit_time(fiber), 5.333333333333334e-06, rtol=0, atol=0)
    assert fiber.group_velocity == C_LIGHT / 1.6


def test_transit_time_scales_linearly():
    assert transit_time(km_link(length=2000.0)) == 2.0 * transit_time(km_link())


def test_max_spacing_frozen_values():
    finite, asymptote = max_spacing(km_link())
    assert_allclose(finite, 0.0008104015848071814, rtol=1e-12)
    assert_allclose(asymptote, 0.0008104015848279339, rtol=1e-12)
    # a kilometer of fiber is already deep in the saturated regime
    assert abs(finite - asymptote) / asymptote < 1e-3


def test_max_spacing_closed_form():
    fiber = km_link()
    x = fiber.omega_c * transit_time(fiber)
    log_term = math.log(1.0 / 0.95)
    v = C_LIGHT / 1.6
    expected_asym = v / (2.0 * fiber.omega_c) * math.sqrt(log_term)
    expected_finite = math.sqrt(
        v * v * (1.0 + x * x) ** 2
        / (4.0 * fiber.omega_c**2 * x * x * (3.0 + x * x))
        * log_term
    )
    finite, asymptote = max_spacing(fiber)
    assert_allclose(asymptote, expected_asym, rtol=1e-15)
    assert_allclose(finite, expected_finite, rtol=1e-15)


def test_max_spacing_limits_and_monotonicity():
    fiber = km_link()
    # long-link agreement tightens as x grows
    finite, asymptote = max_spacing(fiber, tau_l=1e8 / fiber.omega_c)
    assert abs(finite - asymptote) / asymptote < 1e-6
    # vanishing budget forces vanishing spacing
    tiny, _ = max_spacing(km_link(error_budget=1e-12))
    assert tiny < 1e-6
    # harder cutoff means tighter spacing; looser budget means wider spacing
    base = max_spacing(km_link())[0]
    assert max_spacing(km_link(omega_c=5.24e10))[0] < base
    assert max_spacing(km_link(error_budget=0.2))[0] > base
    with pytest.raises(ParameterError):
        max_spacing(fiber, tau_l=0.0)


def test_spacing_bound_meets_budget_end_to_end():
    # running the chosen spacing back through the decay model reproduces the
    # budgeted loss: 4 tau^2 Gamma = ln 1/(1-delta) for the leading coherence
    fiber = km_link()
    finite, _ = max_spacing(fiber)
    fiber.delta_spacing = finite
    tau = segment_time(fiber)
    gamma = dissipation_rate_closed(fiber.omega_c, transit_time(fiber))
    exponent = 4.0 * tau * tau * gamma
    log_term = math.log(1.0 / 0.95)
    assert_allclose(exponent, log_term, rtol=0.005)
    assert_allclose(exponent, 0.05129329438755049, rtol=1e-12)


def test_segment_time():
    fiber = km_link(delta_spacing=0.8e-3)
    assert_allclose(segment_time(fiber), 4.266666666666667e-12, rtol=0, atol=0)
    with pytest.raises(MissingSpacing):
        segment_time(km_link())


def test_bb_timescale_ratio_is_small():
    fiber = km_link(delta_spacing=0.8e-3)
    ratio = bb_timescale_ratio(fiber)
    assert_allclose(ratio, 0.11178666666666667, rtol=1e-15)
    assert ratio < 1.0


def test_silica_preset_numbers():
    fiber, bath, params = silica_preset()
    assert fiber.length == 1000.0
    assert fiber.group_index == 1.6
    assert fiber.omega_c == 2.62e10
    assert fiber.error_budget == 0.05
    assert fiber.delta_spacing == 0.8e-3
    # the operating temperature matches the cutoff's thermal scale within 1%
    debye = HBAR * fiber.omega_c / K_B
    assert abs(debye - 0.2) / 0.2 < 0.01
    assert bath.temperature == 0.2
    assert bath.omega_c == fiber.omega_c
    # bath correlation time 1/omega_c is tens of picoseconds
    assert_allclose(1.0 / bath.omega_c, 3.8167938931297705e-11, rtol=1e-12)
    assert params.omega_a == params.omega_b == 1.216e15
    assert params.tau_l == transit_time(fiber)
    assert params.epsilon == segment_time(fiber)


def test_silica_preset_spacing_misses_its_budget_at_its_own_temperature():
    # the preset's 0.8 mm is the T = 0 bound rounded down: within the 5 %
    # budget at 0 K, but at its own 0.2 K the rate is 2.29x larger and the
    # leading coherence loses 1 - exp(-4 epsilon^2 Gamma) = 10.8 %
    fiber, bath, params = silica_preset()

    def loss(temperature):
        rate = dissipation_rate(replace(bath, temperature=temperature), params.tau_l)
        return 1.0 - math.exp(-4.0 * params.epsilon**2 * rate)

    assert_allclose(loss(0.0), 0.04876, rtol=1e-3)
    assert loss(0.0) < fiber.error_budget
    assert_allclose(loss(bath.temperature), 0.1081, rtol=1e-3)
    assert loss(bath.temperature) > fiber.error_budget


def test_silica_preset_finite_temperature_rate_completes():
    # x = omega_c tau_l = 1.4e5: the closed-form rate finishes where the
    # quadrature would need 6.2 M panels and refuses before allocating them
    _, bath, params = silica_preset()
    with mpmath.workdps(40):
        a = 1 / mpmath.mpf(bath.omega_c)
        b = mpmath.mpf(HBAR) / (mpmath.mpf(K_B) * bath.temperature)
        z = mpmath.mpc(a, -params.tau_l)
        ref = 2 * (mpmath.psi(1, a / b) - mpmath.re(mpmath.psi(1, z / b))) / b**2
        rate = float(ref - (1 / a**2 - mpmath.re(z**-2)))
    state = build_state(1, 0.5)
    decay = np.exp(-4.0 * params.epsilon**2 * rate * np.arange(state.n_max + 1) ** 2)
    c = np.abs(state.coeffs)
    series = 2.0 * np.dot(decay[1:], np.correlate(c, c, "full")[state.n_max + 1 :])
    assert_allclose(negativity_dissipative(state, params, bath, combined=True), series, rtol=1e-12)
    # the leading coherence |n - m| = 1 decays by exp(-4 epsilon^2 Gamma)
    rho = evolve_with_dissipation(state, params, bath).rho
    leading = -math.log(abs(rho[0, 1]) / (c[0] * c[1])) / (4.0 * params.epsilon**2)
    assert_allclose(leading, rate, rtol=1e-12)
    with pytest.raises(QuadratureNonConvergence):
        dissipation_rate_quadrature(bath, params.tau_l)
