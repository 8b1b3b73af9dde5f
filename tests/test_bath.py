"""Thermal weights, visibility factors, and the dissipation integral."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from ngfiber import bath as bath_mod
from ngfiber.bath import (
    GIBBS_MAX_LEVELS,
    GIBBS_TAIL_TOL,
    BathSpec,
    dissipation_rate,
    dissipation_rate_closed,
    dissipation_rate_quadrature,
    gibbs_phase_mean,
    gibbs_weights,
    ohmic_memory,
    visibility_closed,
    visibility_direct,
)
from ngfiber.constants import HBAR, K_B
from ngfiber.errors import (
    GibbsLevelsExceeded,
    ParameterError,
    QuadratureNonConvergence,
    ZeroModeDifference,
    ZeroTemperature,
)


def make_bath(temperature: float, omega_phonon: float = 2.62e10) -> BathSpec:
    return BathSpec(
        omega_phonon=omega_phonon, temperature=temperature, omega_c=2.62e10
    )


def test_bathspec_validation():
    with pytest.raises(ParameterError):
        BathSpec(omega_phonon=0.0, temperature=0.2, omega_c=1.0)
    with pytest.raises(ParameterError):
        BathSpec(omega_phonon=1.0, temperature=-0.1, omega_c=1.0)
    with pytest.raises(ParameterError):
        BathSpec(omega_phonon=1.0, temperature=0.2, omega_c=0.0)
    # NaN passes a "<= 0" guard: it used to reach math.ceil (omega_phonon) or a
    # nan rate (omega_c)
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="omega_phonon"):
            BathSpec(omega_phonon=bad, temperature=0.2, omega_c=1.0)
        with pytest.raises(ParameterError, match="omega_c"):
            BathSpec(omega_phonon=1.0, temperature=0.2, omega_c=bad)
    # at 1e20 K exp(-hbar Omega / kB T) rounds to 1 and the Gibbs cut would
    # divide by log q = 0
    for temperature in (1e20, math.inf, math.nan):
        with pytest.raises(ParameterError, match="temperature"):
            make_bath(temperature)


def test_boltzmann_ratio():
    bath = make_bath(0.2)
    expected = math.exp(-HBAR * 2.62e10 / (K_B * 0.2))
    assert_allclose(bath.boltzmann_ratio(), expected, rtol=1e-15)
    assert make_bath(0.0).boltzmann_ratio() == 0.0
    assert 0.0 < make_bath(1e6).boltzmann_ratio() < 1.0


def test_gibbs_weights_geometric():
    bath = make_bath(0.5)
    w, s_max = gibbs_weights(bath)
    q = bath.boltzmann_ratio()
    assert_allclose(w.sum(), 1.0, rtol=0, atol=1e-15)
    # successive ratio is the Boltzmann factor
    assert_allclose(w[1:] / w[:-1], q, rtol=1e-12)
    # truncated mass is below the fixed tolerance
    assert q ** (s_max + 1) < GIBBS_TAIL_TOL


def test_gibbs_weights_ground_state_at_zero_temperature():
    w, s_max = gibbs_weights(make_bath(0.0))
    assert s_max == 0
    assert_allclose(w, [1.0], rtol=0, atol=0)


@pytest.mark.parametrize("temp", [5e-324, 1e-310])
def test_temperature_whose_kt_underflows_is_zero_temperature(temp):
    # kB T rounds to 0 here: boltzmann_ratio used to divide by it
    cold, zero = make_bath(temp), make_bath(0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cold.boltzmann_ratio() == 0.0 and cold.mean_occupation() == 0.0
        assert gibbs_weights(cold)[1] == 0
        for tau in (1e-11, 1e-9):
            assert dissipation_rate(cold, tau) == dissipation_rate(zero, tau)
            assert dissipation_rate_quadrature(cold, tau) == dissipation_rate_quadrature(zero, tau)


def test_gibbs_levels_above_the_cap_are_refused_before_allocating(monkeypatch):
    # at 1e6 K the cut needs 2.07e8 levels, 1.5 GiB per float64 array
    assert gibbs_weights(make_bath(2e4))[1] < GIBBS_MAX_LEVELS

    def no_arange(*args, **kwargs):
        raise AssertionError("arange ran")

    monkeypatch.setattr(np, "arange", no_arange)
    for call in (lambda b: gibbs_weights(b), lambda b: visibility_direct(b, 0.3, 1)):
        with pytest.raises(GibbsLevelsExceeded, match="207106641 Gibbs levels exceed the cap of 4194304"):
            call(make_bath(1e6))


def untruncated_gibbs_mean(bath, phi):
    """sum_s p_s exp(-i phi s) in long double, cut where the mass left out is below 1e-30."""
    beta = np.longdouble(HBAR) * np.longdouble(bath.omega_phonon) / (
        np.longdouble(K_B) * np.longdouble(bath.temperature)
    )
    q = np.exp(-beta)
    s = np.arange(math.ceil(math.log(1e-30) / math.log(float(q))), dtype=np.longdouble)
    w = (1 - q) * q**s
    w /= w.sum()
    phases = np.multiply.outer(np.asarray(phi, dtype=np.longdouble), s)
    return (np.cos(phases) @ w).astype(float) - 1j * (np.sin(phases) @ w).astype(float)


@pytest.mark.parametrize("temp", [1e-3, 0.05, 0.2, 4.0, 300.0])
def test_gibbs_phase_mean_matches_the_untruncated_sum(temp):
    bath = make_bath(temp)
    phi = np.concatenate([[0.0], np.logspace(-6.0, 3.0, 19)])
    closed = gibbs_phase_mean(bath.mean_occupation(), phi)
    assert closed[0] == 1.0
    # plus the reference's own rounding over up to 1e5 levels, where long double is double
    tol = 1e-15 + 300 * np.finfo(np.longdouble).eps
    assert np.max(np.abs(closed - untruncated_gibbs_mean(bath, phi))) <= tol


def test_gibbs_phase_mean_is_one_at_zero_temperature():
    bath = make_bath(0.0)
    assert bath.mean_occupation() == 0.0
    assert np.array_equal(gibbs_phase_mean(0.0, [0.0, 0.3, 1e9]), np.ones(3))


def test_visibility_routes_agree():
    xs = np.linspace(0.0, 4.0, 23)
    for temp in (0.05, 0.2, 1.0):
        bath = make_bath(temp)
        for k in (1, 2, 3):
            for x in xs:
                direct = visibility_direct(bath, float(x), k)
                closed = visibility_closed(bath, float(x), k)
                assert abs(direct - closed) < 1e-10


@pytest.mark.parametrize("temp", [0.2, 4.0])
@pytest.mark.parametrize("k", [1, 3])
def test_visibility_over_an_x_array_is_its_scalar_calls(temp, k):
    # validate checks the two routes over a whole x grid in one call each
    bath = make_bath(temp)
    xs = np.concatenate([np.linspace(0.0, math.pi, 97), [-2.5, 7.1, 1e3]])
    for visibility in (visibility_direct, visibility_closed):
        grid = visibility(bath, xs, k)
        assert grid.shape == xs.shape
        assert np.array_equal(grid, [visibility(bath, float(x), k) for x in xs])
        assert np.array_equal(visibility(bath, xs.reshape(4, 25), k), grid.reshape(4, 25))
        for x in (0.7, np.float64(0.7), np.array(0.7)):
            assert type(visibility(bath, x, k)) is float


def test_direct_visibility_over_too_many_cells_is_refused_before_allocating(monkeypatch):
    # at 300 K the cut keeps 62 132 levels; 68 x values need 4.2e6 cells
    bath = make_bath(300.0)
    levels = gibbs_weights(bath)[1] + 1
    xs = np.linspace(0.0, 1.0, GIBBS_MAX_LEVELS // levels + 1)
    assert visibility_direct(bath, xs[:-1], 1).shape == (xs.size - 1,)

    def no_exp(*args, **kwargs):
        raise AssertionError("exp ran")

    monkeypatch.setattr(np, "exp", no_exp)
    with pytest.raises(GibbsLevelsExceeded, match=f"{xs.size} x values times {levels} Gibbs"):
        visibility_direct(bath, xs, 1)


def test_visibility_periodicity():
    bath = make_bath(0.3)
    for k in (1, 2, 5):
        period = math.pi / k
        for x in (0.1, 0.9, 2.3):
            assert (
                abs(visibility_closed(bath, x + period, k) - visibility_closed(bath, x, k))
                < 1e-12
            )


def test_visibility_bounds_and_unity_points():
    bath = make_bath(0.2)
    # at multiples of pi/k every thermal phase rewinds completely
    assert_allclose(visibility_closed(bath, math.pi, 1), 1.0, rtol=0, atol=1e-14)
    for x in np.linspace(0.05, 3.0, 17):
        v = visibility_closed(bath, float(x), 1)
        assert 0.0 < v <= 1.0


def test_visibility_cold_limit_saturates():
    # hbar Omega / 2 kB T > 300: the thermal spread is gone and v = 1
    bath = make_bath(1e-5)
    assert visibility_closed(bath, 0.7, 1) == 1.0
    assert_allclose(visibility_direct(bath, 0.7, 1), 1.0, rtol=0, atol=1e-15)


def test_visibility_argument_validation():
    bath = make_bath(0.2)
    with pytest.raises(ZeroModeDifference):
        visibility_closed(bath, 0.5, 0)
    with pytest.raises(ZeroModeDifference):
        visibility_direct(bath, 0.5, 0)
    with pytest.raises(ZeroTemperature):
        visibility_closed(make_bath(0.0), 0.5, 1)


def test_ohmic_memory_peak():
    wc = 2.62e10
    grid = np.linspace(0.1 * wc, 6.0 * wc, 2001)
    vals = ohmic_memory(grid, wc)
    peak = grid[np.argmax(vals)]
    assert abs(peak - 2.0 * wc) < 0.01 * wc
    assert_allclose(ohmic_memory(wc, wc), wc * wc * math.exp(-1.0), rtol=1e-14)


def test_dissipation_closed_form_limits():
    wc = 2.62e10
    # x << 1: Gamma -> 3 x^2 wc^2
    x = 1e-6
    assert_allclose(
        dissipation_rate_closed(wc, x / wc), 3.0 * x * x * wc * wc, rtol=1e-10
    )
    # x = 1 and x >> 1 both sit at wc^2 (exactly at x = 1, asymptotically beyond)
    assert_allclose(dissipation_rate_closed(wc, 1.0 / wc), wc * wc, rtol=1e-14)
    assert_allclose(dissipation_rate_closed(wc, 1e8 / wc), wc * wc, rtol=1e-7)
    assert dissipation_rate_closed(wc, 0.0) == 0.0


@pytest.mark.parametrize("temp", [0.0, 0.2, 300.0])
@pytest.mark.parametrize("wc", [2.62e10, 1e200, 1.7e308])
def test_dissipation_rate_is_exactly_zero_at_zero_time(temp, wc):
    # omega_c^2 overflows to inf past ~1.3e154; inf * 0 must not reach the rate
    bath = BathSpec(omega_phonon=2.62e10, temperature=temp, omega_c=wc)
    assert dissipation_rate(bath, 0.0) == 0.0
    assert dissipation_rate_closed(wc, 0.0) == 0.0


def test_dissipation_closed_vs_quadrature_zero_temperature():
    bath = make_bath(0.0)
    wc = bath.omega_c
    for x in (0.05, 0.8, 6.0):
        closed = dissipation_rate_closed(wc, x / wc)
        numeric = dissipation_rate_quadrature(bath, x / wc)
        assert_allclose(numeric, closed, rtol=1e-8)


def test_dissipation_quadrature_against_scipy():
    # independent oracle: adaptive quad of the same spectral integrand
    for temp, x in ((0.0, 0.7), (0.2, 0.7), (0.2, 5.0), (1.0, 0.3)):
        bath = make_bath(temp)
        wc = bath.omega_c
        tau = x / wc

        def integrand(w):
            if temp == 0.0:
                coth = 1.0
            else:
                coth = 1.0 / math.tanh(HBAR * w / (2.0 * K_B * temp))
            return 2.0 * w * coth * math.exp(-w / wc) * math.sin(0.5 * w * tau) ** 2

        ref, err = quad(integrand, 0.0, 60.0 * wc, limit=400)
        val = dissipation_rate_quadrature(bath, tau)
        assert_allclose(val, ref, rtol=1e-7)


def test_dissipation_quadrature_edge_cases():
    bath = make_bath(0.2)
    assert dissipation_rate_quadrature(bath, 0.0) == 0.0
    assert dissipation_rate(bath, 0.0) == 0.0
    with pytest.raises(ParameterError):
        dissipation_rate_quadrature(bath, -1.0)
    with pytest.raises(ParameterError):
        dissipation_rate(bath, -1.0)
    with pytest.raises(ParameterError):
        dissipation_rate_closed(bath.omega_c, -1.0)
    with pytest.raises(ParameterError):
        dissipation_rate_closed(0.0, 1.0)


@pytest.mark.parametrize("temp", [0.0, 0.2, 4.0, 300.0])
@pytest.mark.parametrize("x", [1e3, 5e3, 1.5e4])
def test_quadrature_matches_closed_rate_at_large_x(temp, x):
    # one-period panels: about x * 35 / 2 pi of them at T = 0
    bath = make_bath(temp)
    tau = x / bath.omega_c
    assert_allclose(dissipation_rate_quadrature(bath, tau), dissipation_rate(bath, tau), rtol=1e-10)


def _no_linspace(*args, **kwargs):
    raise AssertionError("linspace ran")


def test_quadrature_refusal_boundary_at_zero_temperature(monkeypatch):
    # the cap admits x = 2.35e4 at T = 0 and refuses 2.36e4, before allocating
    bath = make_bath(0.0)
    counts = []
    linspace = np.linspace

    def spy(start, stop, num, *args, **kwargs):
        counts.append(num - 1)
        return linspace(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", spy)
    tau = 2.35e4 / bath.omega_c
    assert_allclose(dissipation_rate_quadrature(bath, tau), dissipation_rate(bath, tau), rtol=1e-10)
    assert 0.99 * bath_mod._MAX_PANELS < max(counts) <= bath_mod._MAX_PANELS
    monkeypatch.setattr(np, "linspace", _no_linspace)
    with pytest.raises(QuadratureNonConvergence, match="exceed 131072"):
        dissipation_rate_quadrature(bath, 2.36e4 / bath.omega_c)


def test_non_finite_tau_is_refused_or_on_the_plateau(monkeypatch):
    monkeypatch.setattr(np, "linspace", _no_linspace)
    wc = 2.62e10
    for temp in (0.0, 4.0):
        bath = make_bath(temp)
        for rate in (dissipation_rate_quadrature, dissipation_rate):
            with pytest.raises(ParameterError, match="tau_l must be >= 0"):
                rate(bath, math.nan)
        # a panel count past the float range, or a width of 0, is past the cap
        for tau in (1e300, math.inf):
            with pytest.raises(QuadratureNonConvergence, match="exceed 131072"):
                dissipation_rate_quadrature(bath, tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_allclose(dissipation_rate(bath, math.inf), plateau_rate(temp), rtol=1e-12)
    with pytest.raises(ParameterError, match="tau_l must be >= 0"):
        dissipation_rate_closed(wc, math.nan)
    assert dissipation_rate_closed(wc, math.inf) == wc * wc


def test_quadrature_refuses_when_its_orders_never_agree(monkeypatch):
    monkeypatch.setattr(bath_mod, "_panel_integral", lambda f, upper, width, order: order)
    with pytest.raises(QuadratureNonConvergence, match="failed to stabilize"):
        dissipation_rate_quadrature(make_bath(0.2), 1e-9)


def test_dissipation_grows_with_temperature():
    wc = 2.62e10
    tau = 1.0 / wc
    cold = dissipation_rate_quadrature(make_bath(0.0), tau)
    warm = dissipation_rate_quadrature(make_bath(0.5), tau)
    hot = dissipation_rate_quadrature(make_bath(5.0), tau)
    assert cold < warm < hot


# log-uniform over T = 1 mK - 300 K and x = omega_c tau_l = 1e-3 - 1e5
temperatures = st.floats(min_value=-3.0, max_value=math.log10(300.0)).map(lambda e: 10.0**e)
xs = st.floats(min_value=-3.0, max_value=5.0).map(lambda e: 10.0**e)


def rate_trigamma(temp: float, tau_l: float, wc: float = 2.62e10) -> float:
    """Gamma(T) = 2 [psi'(a/b) - Re psi'((a - i tau)/b)] / b^2 - [1/a^2 - Re (a - i tau)^-2].

    a = 1/omega_c and b = hbar / kB T; mpmath's trigamma at 40 digits.
    """
    with mpmath.workdps(40):
        a = 1 / mpmath.mpf(wc)
        b = mpmath.mpf(HBAR) / (mpmath.mpf(K_B) * temp)
        z = mpmath.mpc(a, -tau_l)
        val = 2 * (mpmath.psi(1, a / b) - mpmath.re(mpmath.psi(1, z / b))) / b**2
        return float(val - (1 / a**2 - mpmath.re(z**-2)))


@settings(max_examples=100, deadline=None)
@given(temperatures, xs)
def test_dissipation_rate_matches_trigamma(temp, x):
    bath = make_bath(temp)
    tau = x / bath.omega_c
    assert_allclose(dissipation_rate(bath, tau), rate_trigamma(temp, tau), rtol=1e-12)


@settings(max_examples=30, deadline=None)
@given(temperatures, st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e))
def test_dissipation_rate_matches_quadrature(temp, x):
    bath = make_bath(temp)
    tau = x / bath.omega_c
    assert_allclose(
        dissipation_rate(bath, tau), dissipation_rate_quadrature(bath, tau), rtol=1e-10
    )


@settings(max_examples=60, deadline=None)
@given(temperatures, st.floats(min_value=0.001, max_value=3.0), xs)
def test_dissipation_rate_non_decreasing_in_temperature(temp, log_ratio, x):
    # T2 >= 1.002 T1, so the thermal part moves by far more than its rounding
    tau = x / 2.62e10
    cold = dissipation_rate(make_bath(temp), tau)
    assert dissipation_rate(make_bath(temp * 10.0**log_ratio), tau) >= cold
    assert cold >= dissipation_rate(make_bath(0.0), tau)


@given(xs)
def test_dissipation_rate_at_zero_temperature_is_closed_form(x):
    wc = 2.62e10
    assert dissipation_rate(make_bath(0.0), x / wc) == dissipation_rate_closed(wc, x / wc)


def plateau_rate(temp: float, wc: float = 2.62e10) -> float:
    """The x -> infinity rate: omega_c^2 at T = 0, else 2 psi'(u) / b^2 - omega_c^2 at 40 digits.

    Every Re (a_k - i tau)^-2 vanishes in the limit; u = kB T / hbar omega_c.
    """
    if temp == 0.0:
        return wc * wc
    with mpmath.workdps(40):
        u = mpmath.mpf(K_B) * temp / (mpmath.mpf(HBAR) * wc)
        return float(2 * mpmath.psi(1, u) * (u * wc) ** 2 - mpmath.mpf(wc) ** 2)


@pytest.mark.parametrize("temp", [0.0, 4.0])
def test_dissipation_rate_stays_on_the_plateau_up_to_x_1e300(temp):
    # the closed form's products overflow from x ~ 1e72 and _power_gap's t^2
    # from x ~ 1e153; the rate must stay finite, silent and on the plateau
    wc = 2.62e10
    plateau = plateau_rate(temp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bath = make_bath(temp)
        rates = [dissipation_rate(bath, 10.0**e / wc) for e in np.arange(12, 300.5, 0.5)]
    assert np.all(np.isfinite(rates))
    assert_allclose(rates, plateau, rtol=1e-12)


@pytest.mark.parametrize("temp", [1e-3, 0.2, 4.0, 300.0])
def test_dissipation_rate_plateau(temp):
    wc = 2.62e10
    assert_allclose(dissipation_rate(make_bath(temp), 1e12 / wc), plateau_rate(temp), rtol=1e-12)
