"""State construction: norm series, coefficients, embedding, wavefunction."""

import cmath
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss, hermval
from numpy.testing import assert_allclose

from ngfiber.errors import (
    DegenerateState,
    DivergentState,
    NonHermitianInput,
    ParameterError,
    TruncationTooSmall,
)
from ngfiber.fock import FockSpace
from ngfiber.states import (
    ManifoldDensityMatrix,
    NonGaussianState,
    build_state,
    embed,
    embed_density_matrix,
    normalization,
    wavefunction,
)


def closed_form_norm(p: int, abs_zeta: float) -> float:
    # sum_n |z|^(2(n+p)) (n+p)!/n! = p! |z|^(2p) / (1 - |z|^2)^(p+1)
    return math.factorial(p) * abs_zeta ** (2 * p) / (1.0 - abs_zeta**2) ** (p + 1)


def test_normalization_closed_form():
    for p in (0, 1, 2, 3):
        for zeta in (0.1, 0.3, 0.5, 0.7):
            p2, n_max = normalization(p, zeta, tail_tol=1e-15)
            assert_allclose(p2, closed_form_norm(p, zeta), rtol=1e-13)
            assert n_max >= 0


def test_normalization_single_subtraction_oracle():
    # p = 1, zeta = 0.5: P^2 = 0.25 / 0.75^2 = 4/9
    p2, _ = normalization(1, 0.5, tail_tol=1e-15)
    assert_allclose(p2, 4.0 / 9.0, rtol=1e-13)


def test_tail_tolerance_controls_truncation():
    _, loose = normalization(1, 0.6, tail_tol=1e-6)
    _, tight = normalization(1, 0.6, tail_tol=1e-14)
    assert tight > loose


def test_build_state_unit_norm_and_ratios():
    for p in (0, 1, 3):
        state = build_state(p, 0.55)
        norms = np.abs(state.coeffs) ** 2
        assert_allclose(norms.sum(), 1.0, rtol=0, atol=1e-14)
        # coefficient recurrence c_{n+1}/c_n = zeta sqrt((n+p+1)/(n+1))
        for n in range(state.n_max):
            ratio = state.coeffs[n + 1] / state.coeffs[n]
            assert_allclose(
                ratio, 0.55 * math.sqrt((n + p + 1) / (n + 1)), rtol=1e-12
            )


def test_build_state_complex_squeezing_phases():
    r, theta = 0.5, 1.3
    state = build_state(1, r * np.exp(1j * theta))
    ref = build_state(1, r)
    assert_allclose(np.abs(state.coeffs), np.abs(ref.coeffs), rtol=0, atol=1e-15)
    ns = np.arange(state.n_max + 1)
    assert_allclose(
        np.angle(state.coeffs), ((ns + 1) * theta + np.pi) % (2 * np.pi) - np.pi,
        rtol=0, atol=1e-12,
    )


def test_build_state_explicit_truncation():
    state = build_state(1, 0.5, n_max=5)
    assert state.n_max == 5
    assert state.coeffs.shape == (6,)
    assert_allclose((np.abs(state.coeffs) ** 2).sum(), 1.0, rtol=0, atol=1e-15)
    # two-term truncation has a hand-checkable split: 2/3 and 1/3
    tiny = build_state(1, 0.5, n_max=1)
    assert_allclose(np.abs(tiny.coeffs) ** 2, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)


def lgamma_scan(p: int, zeta: complex, tail_tol: float):
    """Per-term oracle for the norm series: (n_max, coeffs, tail_bound).

    Walks n upward with term(n) = exp((n+p) log|zeta|^2 + lgamma(n+p+1) -
    lgamma(n+1)), keeps a running total, and stops at the first n whose
    geometric tail bound passes the stop rule.
    """
    az = abs(zeta)
    log_az2 = 2.0 * math.log(az)
    logs, total, n = [], 0.0, 0
    while True:
        logs.append((n + p) * log_az2 + math.lgamma(n + p + 1) - math.lgamma(n + 1))
        term = math.exp(logs[-1])
        total += term
        r = az * az * (1.0 + p / (n + 1.0))
        if r < 1.0 and term * r / (1.0 - r) < tail_tol * min(1.0, total):
            break
        n += 1
    phases = np.exp(1j * cmath.phase(zeta) * np.arange(p, n + p + 1))
    coeffs = np.exp(0.5 * (np.array(logs) - math.log(total))) * phases
    return n, coeffs, term * r / (1.0 - r) / total


def assert_matches_lgamma_scan(p, zeta, tail_tol):
    n_max, coeffs, tail_bound = lgamma_scan(p, zeta, tail_tol)
    state = build_state(p, zeta, tail_tol)
    assert state.n_max == n_max
    assert_allclose(state.coeffs, coeffs, rtol=0, atol=1e-12)
    assert_allclose(state.tail_bound, tail_bound, rtol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=1e-3, max_value=0.999),
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=-15.0, max_value=-4.0),
)
def test_series_matches_lgamma_scan(p, az, theta, log_tol):
    assert_matches_lgamma_scan(p, az * cmath.exp(1j * theta), 10.0**log_tol)


@pytest.mark.parametrize("p, zeta, tail_tol", [(0, 0.9999, 1e-12), (2, -0.9999j, 1e-6)])
def test_series_matches_lgamma_scan_near_unit_squeezing(p, zeta, tail_tol):
    assert_matches_lgamma_scan(p, zeta, tail_tol)


def test_series_refuses_beyond_max_terms():
    with pytest.raises(ParameterError, match="did not converge within 1000000 terms"):
        build_state(1, 0.99999)


def test_underflowing_series_is_refused_at_once():
    # every term at p = 1, |zeta| = 1e-170 underflows to 0 (at 1e-160 P^2 is
    # subnormal): refused from the first short vector, not after 1e6 terms
    for zeta in (1e-170, 1e-160):
        start = time.perf_counter()
        with pytest.raises(ParameterError, match="underflows"):
            build_state(1, zeta)
        assert time.perf_counter() - start < 0.03
    assert build_state(1, 1e-150).n_max == 0


def test_series_overflow_is_refused():
    # (n+150)!/n! 0.81^(n+150) overflows a double: a typed refusal, not an
    # OverflowError or an infinite P^2 with all-zero coefficients
    with pytest.raises(ParameterError, match="double precision"):
        build_state(150, 0.9)
    with pytest.raises(ParameterError, match="double precision"):
        normalization(150, 0.9)
    with pytest.raises(ParameterError, match="double precision"):
        build_state(150, 0.9, n_max=700)


@pytest.mark.parametrize(
    "name, p, zeta, tail_tol",
    [("p", math.nan, 0.5, 1e-12), ("p", math.inf, 0.5, 1e-12), ("zeta", 1, math.nan, 1e-12),
     ("zeta", 1, complex(0.3, math.nan), 1e-12), ("tail_tol", 1, 0.5, math.nan)],
)
def test_nan_inputs_are_refused(name, p, zeta, tail_tol):
    # refused up front, naming the input, instead of scanning _MAX_TERMS terms
    with pytest.raises(ParameterError, match=f"^{name} must"):
        build_state(p, zeta, tail_tol)
    with pytest.raises(ParameterError, match=f"^{name} must"):
        normalization(p, zeta, tail_tol)


def test_tail_bound_is_recorded_and_small():
    state = build_state(1, 0.5)
    assert 0.0 <= state.tail_bound < 1e-12


def test_vacuum_state():
    state = build_state(0, 0.0)
    assert state.n_max == 0
    assert_allclose(state.coeffs, [1.0], rtol=0, atol=0)


def test_invalid_parameters():
    with pytest.raises(DivergentState):
        build_state(1, 1.0)
    with pytest.raises(DivergentState):
        normalization(0, 1.2)
    with pytest.raises(DegenerateState):
        build_state(2, 0.0)
    with pytest.raises(ParameterError):
        build_state(-1, 0.5)
    with pytest.raises(ParameterError):
        build_state(1.5, 0.5)
    with pytest.raises(ParameterError):
        normalization(1, 0.5, tail_tol=0.0)
    with pytest.raises(ParameterError):
        build_state(1, 0.5, n_max=-2)


def test_coefficient_vector_length_is_checked():
    with pytest.raises(ParameterError):
        NonGaussianState(1, 0.5, 2, np.array([1.0]), 1.0, 0.0)


def test_embed_round_trip():
    state = build_state(1, 0.5, n_max=3)
    space = FockSpace(2 * 3 + 1)
    vec = embed(state, space)
    assert_allclose(np.linalg.norm(vec), 1.0, rtol=0, atol=1e-14)
    for n in range(4):
        assert vec[space.index(n, n + 1)] == state.coeffs[n]
    # every populated index sits on the manifold
    populated = np.flatnonzero(np.abs(vec))
    assert all(space.n_b[i] - space.n_a[i] == 1 for i in populated)


def test_embed_requires_room():
    state = build_state(1, 0.5, n_max=3)
    with pytest.raises(TruncationTooSmall):
        embed(state, FockSpace(6))
    with pytest.raises(TruncationTooSmall):
        embed_density_matrix(state.density_matrix(), FockSpace(6))


def test_density_matrix_is_valid():
    state = build_state(2, 0.6)
    rho = state.density_matrix()
    rho.validate()
    assert_allclose(np.trace(rho.rho).real, 1.0, rtol=0, atol=1e-13)
    assert rho.p == 2 and rho.n_max == state.n_max


def test_density_matrix_validation_catches_defects():
    bad = ManifoldDensityMatrix(1, 1, np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))
    with pytest.raises(NonHermitianInput):
        bad.validate()
    off_trace = ManifoldDensityMatrix(1, 0, np.array([[0.7]], dtype=complex))
    with pytest.raises(ParameterError):
        off_trace.validate()
    not_psd = ManifoldDensityMatrix(
        1, 1, np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
    )
    with pytest.raises(ParameterError):
        not_psd.validate()


def spectrum_matrix(eigs: np.ndarray, seed: int) -> np.ndarray:
    """Hermitian matrix with the given spectrum in a random eigenbasis."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(eigs.size, eigs.size)) + 1j * rng.normal(size=(eigs.size, eigs.size))
    u, _ = np.linalg.qr(z)
    m = (u * eigs) @ u.conj().T
    return 0.5 * (m + m.conj().T)


@pytest.mark.parametrize("seed", range(4))
def test_psd_check_boundary(seed):
    # PSD_TOL is -1e-10: a smallest eigenvalue of -2e-10 is refused and one
    # of -5e-11 is accepted, whatever the eigenbasis
    for min_eig, accepted in ((-2e-10, False), (-5e-11, True)):
        eigs = np.array([min_eig, 0.1, 0.2, 0.3, 0.0, 0.0])
        eigs[-1] = 1.0 - eigs[:-1].sum()
        rho = ManifoldDensityMatrix(2, 5, spectrum_matrix(eigs, seed))
        if accepted:
            rho.validate()
        else:
            with pytest.raises(ParameterError, match="negative eigenvalue -2.0"):
                rho.validate()


def test_wavefunction_matches_hermite_sum():
    # direct evaluation with physicists' Hermite polynomials, independent of
    # the oscillator recurrence used internally
    for p in (0, 1, 2):
        state = build_state(p, 0.5)
        zeta = 0.5
        for x, y in ((0.3, -0.7), (1.1, 0.4), (-0.2, 1.6)):
            total = 0.0
            for n in range(state.n_max + 1):
                hx = hermval(x, [0.0] * n + [1.0])
                hy = hermval(y, [0.0] * (n + p) + [1.0])
                total += (zeta / 2.0) ** n / math.factorial(n) * hx * hy
            expected = (
                zeta**p
                / math.sqrt(2.0**p * math.pi)
                * total
                * math.exp(-(x * x + y * y) / 2.0)
            )
            assert_allclose(wavefunction(state, x, y), expected, rtol=1e-11)


def test_wavefunction_squared_norm_is_p2():
    # Gauss-Hermite quadrature integrates |psi|^2 exactly: after factoring the
    # Gaussian weight the integrand is polynomial in x and y
    state = build_state(1, 0.5)
    nodes, weights = hermgauss(state.n_max + state.p + 8)
    vals = np.array(
        [[wavefunction(state, x, y) for y in nodes] for x in nodes]
    )
    # |psi|^2 = g(x,y) exp(-x^2) exp(-y^2): undo the kernel the weights supply
    g = np.abs(vals) ** 2 * np.exp(nodes[:, None] ** 2) * np.exp(nodes[None, :] ** 2)
    integral = weights @ g @ weights
    assert_allclose(integral, state.norm_p2, rtol=1e-10)
    assert_allclose(integral, 4.0 / 9.0, rtol=1e-9)
