"""State construction: norm series, coefficients, embedding, wavefunction."""

import cmath
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss, hermval
from numpy.testing import assert_allclose

from ngfiber import states
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
    build_states,
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


def assert_matches_lgamma_scan(p, zeta, tail_tol, state=None):
    n_max, coeffs, tail_bound = lgamma_scan(p, zeta, tail_tol)
    state = build_state(p, zeta, tail_tol) if state is None else state
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


def retries(p, zeta, tail_tol, n_max):
    """Whether the tail rule's first vector for zeta falls short of n_max."""
    return states._first_length(p, abs(zeta), math.log(tail_tol)) < n_max


_FIRST_LENGTH = states._first_length


def short_first_vectors():
    """Patch the tail rule to size every first vector a third as long, so long rows retry."""
    return mock.patch.object(
        states, "_first_length", lambda p, az, log_tol: _FIRST_LENGTH(p, az, log_tol) // 3
    )


@pytest.mark.parametrize(
    "p, zeta, tail_tol",
    [(30, 0.9, 1e-12), (30, 0.8 * cmath.exp(2j), 1e-12), (100, 0.95, 1e-12), (100, -0.5j, 1e-12),
     (100, 0.83, 1e-12), (10, 0.9, 1e-3)],
)
def test_series_matches_lgamma_scan_after_a_retry(p, zeta, tail_tol):
    # the first vector is cut short on purpose (p = 30, zeta = 0.9: 475
    # terms for n_max 1109; p = 100, zeta = 0.95: 3810 for 9082), so these
    # states come from the doubled vector of a second run
    with short_first_vectors():
        state = build_state(p, zeta, tail_tol)
        assert retries(p, zeta, tail_tol, state.n_max)
    assert_matches_lgamma_scan(p, zeta, tail_tol, state)


@pytest.mark.parametrize("p, tail_tol", [(30, 1e-12), (100, 1e-12), (30, 1e-3), (100, 1e-3)])
def test_first_vector_holds_n_max_at_large_p(p, tail_tol):
    # the estimate takes its p log1p(n) term at the estimate itself, so every
    # row of this grid is cut in one pass; 24 to 74 of them used to retry
    calls = []
    cut = states._cut

    def counting_cut(p, zetas, az, top, tail_tol):
        calls.append(len(zetas))
        return cut(p, zetas, az, top, tail_tol)

    with mock.patch.object(states, "_cut", counting_cut):
        for zeta in [k / 100 for k in range(1, 100)]:
            calls.clear()
            try:
                state = build_state(p, zeta, tail_tol)
            except ParameterError:  # P^2 overflows: refused before any series
                assert calls == []
                continue
            assert calls == [1]
            assert not retries(p, zeta, tail_tol, state.n_max)


@pytest.mark.parametrize("p", [30, 100])
def test_build_states_mixes_retried_and_one_pass_rows(p):
    # a small cell cap puts the rows in many runs; a retried row goes to a
    # later run at twice its run's length, next to rows of other lengths
    zetas = [0.9, 0.3, -0.6j, 0.05, 0.83, 0.5, 0.7 * cmath.exp(0.4j), 0.2, 0.9, 0.75]
    with mock.patch.object(states, "_BLOCK_CELLS", 3000), short_first_vectors():
        got = build_states(p, zetas)
        retried = [retries(p, zeta, 1e-12, state.n_max) for zeta, state in zip(zetas, got)]
    assert any(retried) and not all(retried)
    for zeta, state, again in zip(zetas, got, retried):
        assert_same_state(state, build_state(p, zeta))
        if again:
            assert_matches_lgamma_scan(p, zeta, 1e-12, state)


def assert_same_state(got: NonGaussianState, want: NonGaussianState):
    assert (got.p, got.zeta, got.n_max) == (want.p, want.zeta, want.n_max)
    assert got.coeffs.dtype == want.coeffs.dtype
    assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert (got.norm_p2, got.tail_bound) == (want.norm_p2, want.tail_bound)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.lists(
        st.tuples(st.floats(min_value=1e-3, max_value=0.999),
                  st.sampled_from([0.0, math.pi, 0.7, -2.1])),
        min_size=1, max_size=12,
    ),
    st.floats(min_value=-15.0, max_value=-4.0),
    st.sampled_from([16, 300, 1 << 16]),
)
def test_build_states_is_build_state_bit_for_bit(p, draws, log_tol, cells):
    # duplicates and an unsorted order on purpose; a small cell cap splits even
    # short vectors into several blocks, the real one keeps most in one
    zetas = [az * cmath.exp(1j * theta) if theta else az for az, theta in draws]
    zetas = zetas + zetas[::-2]
    tail_tol = 10.0**log_tol
    blocks = []
    series = states._series

    def counting_series(p, az, n_top):
        blocks.append(len(az))
        return series(p, az, n_top)

    with mock.patch.object(states, "_BLOCK_CELLS", cells), \
            mock.patch.object(states, "_series", counting_series):
        got = build_states(p, zetas, tail_tol)
    if cells == 16:
        assert len(blocks) >= len(zetas)  # every vector is wider than 16 cells
    assert sum(blocks) >= len(zetas)
    for zeta, state in zip(zetas, got):
        assert_same_state(state, build_state(p, zeta, tail_tol))
    for zeta, state in list(zip(zetas, got))[:4]:
        assert_matches_lgamma_scan(p, zeta, tail_tol, state)


def test_build_states_spans_several_blocks_at_the_real_cap():
    # near |zeta| = 1 a few vectors fill more than _BLOCK_CELLS cells
    zetas = np.linspace(0.99, 0.999, 40).tolist()
    got = build_states(1, zetas)
    assert sum(state.n_max + 1 for state in got) > 2 * states._BLOCK_CELLS
    for zeta, state in zip(zetas, got):
        assert_same_state(state, build_state(1, zeta))


def test_build_states_zero_squeezing_is_the_vacuum():
    got = build_states(0, [0.3, 0.0, 0j, -0.0])
    for zeta, state in zip([0.0, 0j, -0.0], got[1:]):
        assert state.n_max == 0 and state.zeta == zeta
        assert_same_state(state, build_state(0, zeta))
        assert_allclose(state.coeffs, [1.0], rtol=0, atol=0)
    assert_same_state(got[0], build_state(0, 0.3))
    assert build_states(2, []) == []


@pytest.mark.parametrize(
    "p, bad",
    [(1, 1e-170), (1, 0.99999), (1, math.nan), (150, 0.9), (1, 1.5), (2, 0.0)],
)
def test_build_states_raises_what_build_state_raises(p, bad):
    with pytest.raises(Exception) as want:
        build_state(p, bad)
    for zetas in ([bad], [0.3, bad, 0.5], [0.6, 0.2, 0.4, bad]):
        with pytest.raises(type(want.value)) as got:
            build_states(p, zetas)
        assert str(got.value) == str(want.value)
    # the first refused zeta in order decides, as a loop over build_state
    # would, though NaN is caught before any series is summed
    with pytest.raises(ParameterError, match="^norm series underflows"):
        build_states(1, [0.3, 1e-170, math.nan])
    with pytest.raises(ParameterError, match="^zeta must be a number"):
        build_states(1, [0.3, math.nan, 1e-170])


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


def test_large_p_overflow_is_refused_before_summing():
    # at p = 10^4, zeta = 0.5 the tail rule would size the series at ~1.7e5
    # terms and make p passes over it; the closed form refuses it at once
    for zetas in ([0.5], [0.3, 0.5, 0.85]):
        start = time.perf_counter()
        with pytest.raises(ParameterError, match=r"^norm series leaves double precision "
                           r"at p = 10000, \|zeta\| = 0\.(5|3): P\^2 = inf$"):
            build_states(10_000, zetas)
        with pytest.raises(ParameterError, match="double precision"):
            build_state(10_000, zetas[0])
        assert time.perf_counter() - start < 0.05


def test_overflow_margin_keeps_what_the_series_builds():
    # the closed-form log P^2 of this zeta exceeds log(DBL_MAX) by 1.9e-11,
    # but the summed series stays finite; the next double overflows
    zeta = 0.0338343093305967
    state = build_state(3000, zeta)
    assert math.isfinite(state.norm_p2) and state.norm_p2 > 1.79e308
    with pytest.raises(ParameterError, match="double precision"):
        build_state(3000, math.nextafter(zeta, 1.0))


@pytest.mark.parametrize(
    "name, p, zeta, tail_tol",
    [("p", math.nan, 0.5, 1e-12), ("p", math.inf, 0.5, 1e-12), ("zeta", 1, math.nan, 1e-12),
     ("zeta", 1, complex(0.3, math.nan), 1e-12), ("tail_tol", 1, 0.5, math.nan),
     ("tail_tol", 1, 0.5, math.inf), ("tail_tol", 1, 0.5, 1.0), ("p", 10_001, 0.01, 1e-12),
     ("p", 10**8, 0.5, 1e-12)],
)
def test_nan_inputs_are_refused(name, p, zeta, tail_tol):
    # refused up front, naming the input, instead of scanning _MAX_TERMS terms;
    # a tail_tol of 1 or more would keep a state of n_max 1 at zeta = 0.85;
    # each j <= p costs _series a pass, so p = 10^8 would never finish
    with pytest.raises(ParameterError, match=f"^{name} must"):
        build_state(p, zeta, tail_tol)
    with pytest.raises(ParameterError, match=f"^{name} must"):
        normalization(p, zeta, tail_tol)
    with pytest.raises(ParameterError, match=f"^{name} must"):
        build_states(p, [0.4, zeta], tail_tol)


def test_p_at_the_cap_builds():
    # zeta = sqrt(e / p) keeps P^2 finite
    p = states._MAX_P
    state = build_state(p, math.sqrt(math.e / p))
    assert state.p == p and math.isfinite(state.norm_p2)
    with pytest.raises(ParameterError, match=f"^p must be <= {p}, got {p + 1}$"):
        build_state(p + 1, 0.5, n_max=3)


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


@pytest.mark.parametrize(
    "n_max", [2.5, True, math.nan, math.inf, np.float64(3.0), "3", [3], -1,
              states._MAX_TERMS + 1, 10**9, np.int64(10**9)],
)
def test_bad_n_max_is_refused_before_summing(n_max):
    # 2.5 used to raise IndexError, True TypeError and nan ValueError, and
    # 10^9 asked for 7.45 GiB per array before it failed
    def no_series(*args):
        raise AssertionError("_series ran")

    with mock.patch.object(states, "_series", no_series):
        for p, zeta in ((1, 0.5), (0, 0.0), (1, 1.5)):
            with pytest.raises(ParameterError, match="^n_max must be"):
                build_state(p, zeta, n_max=n_max)


def test_numpy_integer_n_max_builds_the_same_state():
    assert_same_state(build_state(2, 0.4, n_max=np.int64(7)), build_state(2, 0.4, n_max=7))
    assert build_state(1, 0.5, n_max=states._MAX_TERMS).n_max == states._MAX_TERMS


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
    with pytest.raises(ParameterError, match="rho must be"):
        ManifoldDensityMatrix(1, 1, np.eye(3, dtype=complex))


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
