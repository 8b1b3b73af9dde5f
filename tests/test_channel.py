"""Dephasing and dissipation channels on the fixed-offset manifold."""

import contextlib
import math
import resource
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ngfiber.bath import (
    BathSpec,
    dissipation_rate_closed,
    dissipation_rate_quadrature,
    gibbs_weights,
    visibility_closed,
    visibility_direct,
)
from ngfiber.channel import (
    MANIFOLD_BUDGET,
    ChannelParams,
    _dissipative_factors,
    _negativity,
    _thermal_phase_means,
    _timing_decay,
    evolve_dephasing,
    evolve_with_dissipation,
    fidelity,
    negativity_after_dephasing,
    negativity_dissipative,
    recovery_times,
    timing_negativities,
    visibility_unity_time,
)
from ngfiber.errors import DimensionBudgetExceeded, ParameterError, ZeroFrequency
from ngfiber.fock import FockOperator, FockSpace
from ngfiber.negativity import negativity_analytic, negativity_fock
from ngfiber.states import build_state, embed_density_matrix

OMEGA = 1.216e15
WC = 2.62e10


def cold_bath() -> BathSpec:
    return BathSpec(omega_phonon=WC, temperature=0.0, omega_c=WC)


def warm_bath(temp: float = 0.2) -> BathSpec:
    return BathSpec(omega_phonon=WC, temperature=temp, omega_c=WC)


def params(tau_l: float, gamma_plus: float = 0.0, epsilon: float = 0.0) -> ChannelParams:
    return ChannelParams(
        omega_a=OMEGA,
        omega_b=OMEGA,
        gamma_plus=gamma_plus,
        gamma_minus=0.0,
        tau_l=tau_l,
        epsilon=epsilon,
    )


def test_params_validation():
    with pytest.raises(ParameterError):
        ChannelParams(-1.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        ChannelParams(0.0, 0.0, -1.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        ChannelParams(0.0, 0.0, 0.0, 0.0, -1e-9)
    with pytest.raises(ParameterError):
        ChannelParams(0.0, 0.0, 0.0, 0.0, 1.0, epsilon=-1.0)
    assert params(1e-6).omega_total == 2.0 * OMEGA


def test_dephasing_preserves_diagonal():
    state = build_state(1, 0.5)
    rho = evolve_dephasing(state, params(3.7e-7, gamma_plus=2.0e5), warm_bath())
    assert_allclose(
        np.diag(rho.rho).real, np.abs(state.coeffs) ** 2, rtol=0, atol=1e-14
    )
    rho.validate()


def test_zero_time_is_identity_channel():
    state = build_state(1, 0.5)
    rho = evolve_dephasing(state, params(0.0), warm_bath())
    assert_allclose(rho.rho, state.density_matrix().rho, rtol=0, atol=1e-15)


def test_difference_coupling_is_a_no_op():
    state = build_state(2, 0.6)
    bath = warm_bath()
    with_g = ChannelParams(OMEGA, OMEGA, 3.0e5, 0.0, 2.1e-7)
    with_both = ChannelParams(OMEGA, OMEGA, 3.0e5, 8.0e9, 2.1e-7)
    rho_a = evolve_dephasing(state, with_g, bath)
    rho_b = evolve_dephasing(state, with_both, bath)
    assert np.array_equal(rho_a.rho, rho_b.rho)
    assert fidelity(state, with_g, bath) == fidelity(state, with_both, bath)


def test_fidelity_full_and_half_turns():
    # tau = l pi / omega_total: full recovery at even l, a fixed dip at odd l
    state = build_state(1, 0.5)
    bath = cold_bath()
    pars = params(0.0)
    times = recovery_times(pars, s=0, l_max=4)
    assert_allclose(times, np.arange(1, 5) * math.pi / (2.0 * OMEGA), rtol=1e-15)
    dip = ((1.0 - 0.25) / (1.0 + 0.25)) ** 4  # zeta -> -zeta overlap, 0.1296
    for l, t in enumerate(times, start=1):
        f = fidelity(state, params(float(t)), bath)
        if l % 2 == 0:
            assert abs(f - 1.0) < 1e-10
        else:
            assert abs(f - dip) < 1e-10


def test_fidelity_dip_value_is_exact_for_truncated_state():
    # the zeta -> -zeta overlap for the two-term state: (2/3 - 1/3)^2 = 1/9
    state = build_state(1, 0.5, n_max=1)
    pars = params(0.0)
    t = float(recovery_times(pars, s=0, l_max=1)[0])
    assert_allclose(fidelity(state, params(t), cold_bath()), 1.0 / 9.0, rtol=1e-10)


def test_recovery_time_validation():
    pars = params(1.0)
    with pytest.raises(ParameterError):
        recovery_times(pars, s=-1, l_max=3)
    with pytest.raises(ParameterError):
        recovery_times(pars, s=0, l_max=0)
    zero = ChannelParams(0.0, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ZeroFrequency):
        recovery_times(zero, s=0, l_max=1)


def test_visibility_unity_time_restores_negativity():
    # at tau gamma_plus = pi every thermal visibility rephases to 1
    state = build_state(1, 0.5)
    bath = warm_bath()
    gamma = 2.0e5
    t_star = visibility_unity_time(ChannelParams(OMEGA, OMEGA, gamma, 0.0, 0.0))
    assert_allclose(t_star, math.pi / gamma, rtol=1e-15)
    revived = negativity_after_dephasing(
        state, params(t_star, gamma_plus=gamma), bath
    )
    assert_allclose(revived, negativity_analytic(state), rtol=1e-12)
    # between revivals the thermal spread bites
    half = negativity_after_dephasing(
        state, params(0.5 * t_star, gamma_plus=gamma), bath
    )
    assert half < revived
    with pytest.raises(ZeroFrequency):
        visibility_unity_time(params(1.0))


def test_dephased_negativity_series_matches_dense():
    state = build_state(1, 0.5, n_max=8)
    bath = warm_bath()
    pars = params(2.3e-7, gamma_plus=4.0e5)
    series = negativity_after_dephasing(state, pars, bath)
    rho = evolve_dephasing(state, pars, bath)
    space = FockSpace(2 * state.n_max + state.p)
    dense = negativity_fock(FockOperator(space, embed_density_matrix(rho, space)))
    assert_allclose(dense, series, rtol=0, atol=1e-12)


def test_dissipative_negativity_matches_dense():
    state = build_state(1, 0.5, n_max=8)
    bath = cold_bath()
    pars = params(10.0 / WC, epsilon=4.325e-12)
    series = negativity_dissipative(state, pars, bath)
    rho = evolve_with_dissipation(state, pars, bath)
    space = FockSpace(2 * state.n_max + state.p)
    dense = negativity_fock(FockOperator(space, embed_density_matrix(rho, space)))
    assert_allclose(dense, series, rtol=0, atol=1e-12)


def test_dissipative_series_requires_cold_bath_unless_combined():
    state = build_state(1, 0.5, n_max=8)
    pars = params(1.0 / WC, epsilon=1e-12)
    with pytest.raises(ParameterError):
        negativity_dissipative(state, pars, warm_bath())
    # combined mode folds the visibilities in and matches the dense route
    combined = negativity_dissipative(state, pars, warm_bath(), combined=True)
    rho = evolve_with_dissipation(state, pars, warm_bath())
    space = FockSpace(2 * state.n_max + state.p)
    dense = negativity_fock(FockOperator(space, embed_density_matrix(rho, space)))
    assert_allclose(dense, combined, rtol=0, atol=1e-12)


def test_no_fluctuations_means_no_decay():
    state = build_state(1, 0.5)
    pars = params(5.0 / WC, epsilon=0.0)
    assert_allclose(
        negativity_dissipative(state, pars, cold_bath()),
        negativity_analytic(state),
        rtol=0,
        atol=1e-14,
    )


def test_dissipation_decays_with_epsilon():
    state = build_state(1, 0.5)
    bath = cold_bath()
    values = [
        negativity_dissipative(state, params(10.0 / WC, epsilon=e), bath)
        for e in (0.0, 2e-12, 4e-12, 8e-12)
    ]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_huge_fluctuations_kill_all_coherence():
    state = build_state(1, 0.5)
    pars = params(10.0 / WC, epsilon=1e-3)
    rho = evolve_with_dissipation(state, pars, cold_bath())
    off_diag = rho.rho - np.diag(np.diag(rho.rho))
    assert np.max(np.abs(off_diag)) == 0.0
    assert negativity_dissipative(state, pars, cold_bath()) == 0.0


def test_dissipation_preserves_diagonal():
    state = build_state(1, 0.6)
    rho = evolve_with_dissipation(
        state, params(3.0 / WC, epsilon=4e-12), cold_bath()
    )
    assert_allclose(
        np.diag(rho.rho).real, np.abs(state.coeffs) ** 2, rtol=0, atol=1e-14
    )
    rho.validate()


@pytest.mark.parametrize("p, zeta", [(0, 0.0), (0, 0.3), (1, 0.5), (3, 0.9), (2, 0.99)])
def test_cached_autocorrelations_equal_correlate(p, zeta):
    state = build_state(p, zeta)
    a = np.abs(state.coeffs)
    w = a**2
    assert np.array_equal(state._abs_autocorr, np.correlate(a, a, "full")[state.n_max :])
    assert np.array_equal(state._pop_autocorr, np.correlate(w, w, "full")[state.n_max :])
    # computed once: later reads return the same array
    assert state._abs_autocorr is state._abs_autocorr
    assert state._pop_autocorr is state._pop_autocorr


def test_timing_decay_is_one_at_k_zero_and_zero_rate():
    # epsilon^2 overflows to inf: inf * 0 must not be formed at k = 0 or Gamma = 0
    assert np.array_equal(_timing_decay(1e300, 0.0, 4), np.ones(5))
    for gamma in (1.0, 7e20):
        assert np.array_equal(_timing_decay(1e300, gamma, 4), [1.0, 0.0, 0.0, 0.0, 0.0])
    # a finite prefactor 4e307 whose exponent (4e307 k) k overflows at k = 3
    assert np.array_equal(_timing_decay(1.0, 1e307, 3), [1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("temp", [0.0, 0.013354385751742593, 0.2, 300.0])
@pytest.mark.parametrize("epsilon", [0.0, 4e-12, 1e300])
def test_every_channel_keeps_d0_exactly_one(temp, epsilon):
    # at this 13.4 mK the thermal quotient at k = 0 rounds to 1 - 1.1e-16 unless pinned
    bath = warm_bath(temp) if temp else cold_bath()
    for tau in (0.0, 3.0 / WC):
        pars = params(tau, gamma_plus=1e8, epsilon=epsilon)
        assert _thermal_phase_means(6, pars, bath)[0] == 1.0
        assert _dissipative_factors(6, pars, bath)[0] == 1.0


def test_thermal_row_is_shared_read_only():
    # the observables of one sweep point ask for the same row in turn; every
    # caller gets the one array, so no caller may write to it
    pars = params(3.0 / WC, gamma_plus=1e8)
    row = _thermal_phase_means(6, pars, warm_bath())
    assert _thermal_phase_means(6, params(3.0 / WC, gamma_plus=1e8), warm_bath()) is row
    with pytest.raises(ValueError):
        row[1] = 0.0
    assert _thermal_phase_means(6, params(4.0 / WC, gamma_plus=1e8), warm_bath()) is not row


@pytest.mark.parametrize("temp", [0.0, 1e-3, 0.05, 0.2, 4.0, 300.0])
def test_thermal_row_is_the_closed_form_visibility(temp):
    # validate checks visibility_closed against the direct Gibbs sum; the
    # channels reduce this row, so the two must be one function
    bath = warm_bath(temp) if temp else cold_bath()
    pars = params(1e-7, gamma_plus=0.37e7)
    row = _thermal_phase_means(12, pars, bath)
    if temp == 0.0:
        assert np.array_equal(row, np.ones(13))
    else:
        x = pars.tau_l * pars.gamma_plus
        # element by element: the vectorised np.abs can round one ulp apart
        assert [visibility_closed(bath, x, k) for k in range(1, 13)] == [abs(d) for d in row[1:]]


@pytest.mark.parametrize("p, zeta", [(0, 0.3), (1, 0.6), (3, 0.9)])
@pytest.mark.parametrize("tau", [0.0, 3.0 / WC, 1e-6])
def test_zero_temperature_dissipative_negativity_matches_the_general_route(p, zeta, tau):
    # at T = 0 every thermal mean is an exact 1, so the real decay row gives the same bits
    state = build_state(p, zeta)
    pars = params(tau, gamma_plus=1e9, epsilon=4e-12)
    general = _negativity(state, _dissipative_factors(state.n_max, pars, cold_bath()))
    assert negativity_dissipative(state, pars, cold_bath()) == general
    assert negativity_dissipative(state, pars, cold_bath(), combined=True) == general
    assert timing_negativities(state, 4e-12, [tau], cold_bath()) == [general]


@pytest.mark.parametrize(
    "epsilon, taus", [(-1.0, [0.0]), (math.inf, [0.0]), (4e-12, [0.0, math.inf]),
                      (4e-12, [math.nan]), (math.nan, [0.0])],
)
def test_timing_negativities_refuse_as_channel_params_do(epsilon, taus):
    state = build_state(1, 0.5)
    with pytest.raises(ParameterError) as want:
        for tau in taus:
            ChannelParams(0.0, 0.0, 0.0, 0.0, tau, epsilon)
    with pytest.raises(ParameterError) as got:
        timing_negativities(state, epsilon, taus, cold_bath())
    assert str(got.value) == str(want.value)


def test_timing_negativities_refuse_a_warm_bath():
    with pytest.raises(ParameterError, match="T = 0 result"):
        timing_negativities(build_state(1, 0.5), 4e-12, [1e-9], warm_bath())


def coherence_magnitudes(state, bath, x, decay_rate=0.0):
    """|c_n||c_m| v_|n-m| exp(-decay_rate (n-m)^2), v from the direct Gibbs sum."""
    a = np.abs(state.coeffs)
    k = np.abs(np.subtract.outer(np.arange(state.n_max + 1), np.arange(state.n_max + 1)))
    v = np.array([1.0] + [visibility_direct(bath, x, j) for j in range(1, state.n_max + 1)])
    return np.outer(a, a) * v[k] * np.exp(-decay_rate * k * k)


def test_dephasing_at_telecom_frequency_stays_positive():
    # tau_l omega_total (n - m) reaches 1e9 rad here; its rounding must not
    # break the rank-one structure of this nearly pure state
    state = build_state(1, 0.618, n_max=10)
    bath = warm_bath(0.129)
    pars = params(4.1e-8, gamma_plus=6.9e8)
    rho = evolve_dephasing(state, pars, bath)
    assert np.linalg.eigvalsh(rho.rho)[0] > -1e-14
    expected = coherence_magnitudes(state, bath, 4.1e-8 * 6.9e8)
    assert_allclose(np.abs(rho.rho), expected, rtol=0, atol=1e-14)


def test_dissipation_at_telecom_frequency_stays_positive():
    # the same rounding, through the dissipative assembly at x = 180
    x = 180.0
    tau_l = x / WC
    bath = warm_bath(0.054)
    epsilon = math.sqrt(0.01 / (4.0 * dissipation_rate_closed(WC, tau_l)))
    state = build_state(3, 0.63)
    rho = evolve_with_dissipation(state, params(tau_l, 2e7, epsilon), bath)
    assert np.linalg.eigvalsh(rho.rho)[0] > -1e-14
    rate = 4.0 * epsilon**2 * dissipation_rate_quadrature(bath, tau_l)
    expected = coherence_magnitudes(state, bath, tau_l * 2e7, rate)
    assert_allclose(np.abs(rho.rho), expected, rtol=0, atol=1e-14)


# log-uniform over T = 1 mK - 300 K and x = tau_l gamma_plus = 1e-3 - 1e5
temperatures = st.floats(min_value=-3.0, max_value=math.log10(300.0)).map(lambda e: 10.0**e)
xs = st.floats(min_value=-3.0, max_value=5.0).map(lambda e: 10.0**e)


def phase_rounding_tol(bath, phase, phase_per_level):
    """Rounding bound for sum_s p_s exp(-i (phase + phase_per_level s)).

    A phase argument of size P carries a rounding error of about eps P, so a
    Gibbs average is good to eps times the phase at the mean level n_bar.
    """
    q = bath.boltzmann_ratio()
    n_bar = q / (1.0 - q)
    return 4.0 * np.finfo(float).eps * (phase + phase_per_level * (n_bar + 1.0))


@settings(max_examples=40, deadline=None)
@given(temperatures, xs, st.integers(min_value=0, max_value=24))
def test_thermal_means_match_direct_gibbs_sum(temp, x, n_max):
    bath = warm_bath(temp)
    w, s_max = gibbs_weights(bath)
    k = np.arange(n_max + 1)
    direct = np.exp(-2j * x * np.outer(k, np.arange(s_max + 1))) @ w
    closed = _thermal_phase_means(n_max, params(1e-7, gamma_plus=x / 1e-7), bath)
    # beyond the phase rounding, the float64 direct sum over up to 6e4 levels was
    # off by at most 2.1e-14 in 13 000 draws, the worst near 290 K and x = 1e-3
    tol = 5e-14 + phase_rounding_tol(bath, 0.0, 2.0 * x * n_max)
    assert np.max(np.abs(closed - direct)) <= tol


@settings(max_examples=30, deadline=None)
@given(
    temperatures,
    xs,
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.05, max_value=0.6),
    st.floats(min_value=0.0, max_value=1e3),
)
def test_fidelity_matches_level_by_level_sum(temp, x, p, zeta, tau_omega):
    tau_l = 1e-7
    state = build_state(p, zeta)
    bath = warm_bath(temp)
    pars = ChannelParams(tau_omega / tau_l, 0.0, x / tau_l, 0.0, tau_l)
    w, s_max = gibbs_weights(bath)
    weights = np.abs(state.coeffs) ** 2
    n = np.arange(state.n_max + 1)
    chi = pars.omega_total + 2.0 * pars.gamma_plus * np.arange(s_max + 1)
    direct = float(np.sum(w * np.abs(np.exp(-1j * tau_l * np.outer(chi, n)) @ weights) ** 2))
    n_mean = float(np.sum(n * weights))
    tol = 1e-12 + phase_rounding_tol(
        bath, 2.0 * tau_omega * (n_mean + 1.0), 4.0 * x * (n_mean + 1.0)
    )
    assert abs(fidelity(state, pars, bath) - direct) <= tol


def test_heavy_corner_runs_in_bounded_memory():
    # zeta = 0.99 (n_max 1946) at 300 K (41 422 Gibbs levels): an
    # n_max x s_max matrix would take gigabytes
    state = build_state(1, 0.99)
    bath = warm_bath(300.0)
    pars = params(1e-7, gamma_plus=7.3e9)
    tracemalloc.start()
    try:
        neg = negativity_after_dephasing(state, pars, bath)
        fid = fidelity(state, pars, bath)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert 0.0 < neg < negativity_analytic(state)
    assert 0.0 <= fid <= 1.0


@contextlib.contextmanager
def address_space_headroom(extra: int = 1 << 30):
    """Cap this process's address space at its current size plus `extra` bytes.

    A refusal that regresses then fails with MemoryError instead of touching
    gigabytes of memory.
    """
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        used = int(fh.read().split()[0]) * resource.getpagesize()
    cap = used + extra if hard == resource.RLIM_INFINITY else min(used + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_oversized_manifold_matrix_is_refused_before_allocating():
    # zeta = 0.999 truncates at n_max 21 920: a dense manifold matrix is 7.7 GB
    state = build_state(1, 0.999)
    assert state.n_max + 1 > MANIFOLD_BUDGET
    pars = params(4.1e-8, gamma_plus=6.9e8, epsilon=1e-12)
    for evolve in (evolve_dephasing, evolve_with_dissipation):
        with address_space_headroom():
            tracemalloc.start()
            try:
                with pytest.raises(DimensionBudgetExceeded):
                    evolve(state, pars, warm_bath(4.0))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1_000_000


def test_manifold_budget_admits_zeta_099():
    # zeta = 0.99 truncates at n_max 1946, which the budget must admit
    state = build_state(1, 0.99)
    assert state.n_max + 1 <= MANIFOLD_BUDGET
    rho = evolve_dephasing(state, params(1e-7, gamma_plus=7.3e9), warm_bath(4.0))
    assert_allclose(np.trace(rho.rho).real, np.sum(np.abs(state.coeffs) ** 2), rtol=0, atol=1e-12)
