"""Negativity: series form, blocked eigensolver and dense partial-transpose oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ngfiber.bath import BathSpec
from ngfiber.channel import ChannelParams, evolve_dephasing
from ngfiber.fock import FockOperator, FockSpace, partial_transpose
from ngfiber.negativity import (
    _negativity_blocked,
    _pt_blocks,
    negativity_analytic,
    negativity_fock,
    negativity_numeric,
)
from ngfiber.states import build_state, embed_density_matrix


def test_two_mode_squeezed_closed_form():
    # without subtraction the coefficients are geometric and the negativity
    # sums to 2 r / (1 - r); the truncation error is first order in the
    # dropped amplitudes, so cut deep enough for r = 0.7 to settle
    for r in (0.2, 0.5, 0.7):
        state = build_state(0, r, n_max=140)
        assert_allclose(negativity_analytic(state), 2.0 * r / (1.0 - r), rtol=1e-12)


def test_two_term_truncation_oracle():
    # p = 1, zeta = 0.5 truncated to two terms: weights 2/3 and 1/3,
    # negativity 2 sqrt(2)/3
    state = build_state(1, 0.5, n_max=1)
    assert_allclose(negativity_analytic(state), 2.0 * np.sqrt(2.0) / 3.0, rtol=1e-14)


def test_subtraction_increases_negativity():
    base = negativity_analytic(build_state(0, 0.5))
    one = negativity_analytic(build_state(1, 0.5))
    two = negativity_analytic(build_state(2, 0.5))
    assert base < one < two


def test_series_matches_dense_eigensolver():
    for p in (0, 1, 2):
        for zeta in (0.2, 0.5, 0.7):
            state = build_state(p, zeta, n_max=10)
            series = negativity_analytic(state)
            dense = negativity_numeric(state.density_matrix())
            assert_allclose(dense, series, rtol=0, atol=1e-12)


def test_phase_of_squeezing_is_irrelevant():
    r = 0.5
    plain = build_state(1, r, n_max=10)
    rotated = build_state(1, r * np.exp(1.3j), n_max=10)
    assert_allclose(
        negativity_analytic(rotated), negativity_analytic(plain), rtol=0, atol=1e-12
    )
    assert_allclose(
        negativity_numeric(rotated.density_matrix()),
        negativity_numeric(plain.density_matrix()),
        rtol=0,
        atol=1e-12,
    )


def pair_spectrum(state):
    """Partial-transpose spectrum of a pure manifold state from its pair structure.

    (diagonal, pairs, magnitudes): the 1x1 blocks |c_n|^2, the pairs (n, m)
    with n < m, and their |c_n||c_m|, each giving eigenvalues +mag and -mag.
    """
    a = state.abs_coeffs()
    pairs = np.column_stack(np.triu_indices(state.n_max + 1, k=1))
    return a * a, pairs, a[pairs[:, 0]] * a[pairs[:, 1]]


def pair_eigenvalues(state):
    """All eigenvalues of the pair spectrum, sorted ascending (the embedding's zeros omitted)."""
    diagonal, _, mags = pair_spectrum(state)
    return np.sort(np.concatenate([diagonal, mags, -mags]))


def test_ppt_spectrum_matches_dense_eigenvalues():
    state = build_state(1, 0.5, n_max=4)
    diagonal, pairs, mags = pair_spectrum(state)
    a = np.abs(state.coeffs)
    assert_allclose(diagonal, a * a, rtol=0, atol=1e-15)
    for (n, m), mag in zip(pairs, mags):
        assert n < m
        assert_allclose(mag, a[n] * a[m], rtol=0, atol=1e-15)

    space = FockSpace(2 * 4 + 1)
    full = embed_density_matrix(state.density_matrix(), space)
    dense = np.linalg.eigvalsh(partial_transpose(FockOperator(space, full)).matrix)
    nonzero = dense[np.abs(dense) > 1e-13]
    assert_allclose(np.sort(nonzero), pair_eigenvalues(state), rtol=0, atol=1e-13)
    # eigenvalue content reproduces the series value
    eigs = pair_eigenvalues(state)
    assert_allclose(
        np.abs(eigs).sum() - eigs.sum(), negativity_analytic(state), rtol=1e-13
    )


def test_product_state_has_zero_negativity():
    space = FockSpace(4)
    vec = np.zeros(space.dim)
    vec[space.index(1, 2)] = 1.0
    rho = FockOperator(space, np.outer(vec, vec).astype(complex))
    assert negativity_fock(rho) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.95))
def test_default_truncation_error_at_p0(zeta):
    # the default tail_tol bounds the l2 tail of the coefficients, while the
    # negativity is an l1 quantity, so its error is ~ sqrt(tail_tol): at most
    # 3.1e-5 relative (near zeta 0.03) against the exact 2 zeta / (1 - zeta)
    exact = 2.0 * zeta / (1.0 - zeta)
    assert abs(negativity_analytic(build_state(0, zeta)) - exact) <= 5e-5 * exact


def test_monotone_in_squeezing():
    values = [
        negativity_analytic(build_state(1, z)) for z in np.linspace(0.05, 0.9, 18)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def dense_oracle(rho):
    space = FockSpace(2 * rho.n_max + rho.p)
    return FockOperator(space, embed_density_matrix(rho, space))


def log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def manifold_states(draw):
    """Pure manifold states, or their thermal dephasing at telecom frequency."""
    p = draw(st.integers(min_value=0, max_value=3))
    n_max = draw(st.integers(min_value=0, max_value=10))
    zeta = draw(st.floats(min_value=0.05, max_value=0.9))
    phase = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    state = build_state(p, zeta * np.exp(1j * phase), n_max=n_max)
    if not draw(st.booleans()):
        return state.density_matrix()
    temp = draw(log_uniform(1e-3, 300.0))
    gamma_plus = draw(log_uniform(1e3, 1e10))
    tau_l = draw(log_uniform(1e-10, 1e-6))
    bath = BathSpec(omega_phonon=2.62e10, temperature=temp, omega_c=2.62e10)
    params = ChannelParams(1.216e15, 1.216e15, gamma_plus, 0.0, tau_l)
    return evolve_dephasing(state, params, bath)


@settings(max_examples=60, deadline=None)
@given(manifold_states())
def test_blocked_route_matches_dense_oracle(rho):
    blocked = negativity_numeric(rho)
    dense = negativity_fock(dense_oracle(rho))
    assert_allclose(blocked, dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("p, zeta, n_max", [(0, 0.6, 5), (1, 0.5, 4), (3, 0.7 * np.exp(0.4j), 6)])
def test_block_spectrum_matches_dense_and_analytic(p, zeta, n_max):
    state = build_state(p, zeta, n_max=n_max)
    rho = state.density_matrix()
    n = np.arange(n_max + 1)
    blocks = list(_pt_blocks(rho.rho, n, n + p))
    assert len(blocks) == 2 * n_max + 1
    # every block entry is a copy of a manifold entry, so the blocks are as
    # Hermitian as rho itself
    defect = np.max(np.abs(rho.rho - rho.rho.conj().T))
    for block in blocks:
        assert np.max(np.abs(block - block.conj().T)) <= defect
    blocked = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
    dense = np.linalg.eigvalsh(partial_transpose(dense_oracle(rho)).matrix)
    nonzero = np.sort(dense[np.abs(dense) > 1e-13])
    assert blocked.size == nonzero.size == (n_max + 1) ** 2
    assert_allclose(blocked, nonzero, rtol=0, atol=1e-13)
    assert_allclose(blocked, pair_eigenvalues(state), rtol=0, atol=1e-13)


@st.composite
def sector_mixtures(draw):
    """A two-mode density matrix mixing pure states, each on one n_a - n_b sector."""
    space = FockSpace(draw(st.integers(min_value=0, max_value=10)))
    diff = space.n_a - space.n_b
    sectors = st.integers(min_value=-space.total_cut, max_value=space.total_cut)
    parts = st.floats(min_value=-1.0, max_value=1.0)
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    for sector in draw(st.lists(sectors, min_size=1, max_size=4)):
        where = np.flatnonzero(diff == sector)
        amps = draw(st.lists(st.tuples(parts, parts), min_size=where.size, max_size=where.size))
        psi = np.zeros(space.dim, dtype=complex)
        psi[where] = [complex(re, im) for re, im in amps]
        rho += draw(st.floats(min_value=0.05, max_value=1.0)) * np.outer(psi, psi.conj())
    trace = np.trace(rho).real
    assume(trace > 1e-3)
    return space, rho / trace


@settings(max_examples=80, deadline=None)
@given(sector_mixtures())
def test_block_builder_matches_dense_oracle_on_sector_mixtures(mixture):
    space, rho = mixture
    blocked = _negativity_blocked(rho, space.n_a, space.n_b)
    dense = negativity_fock(FockOperator(space, rho))
    assert_allclose(blocked, dense, rtol=0, atol=1e-12)


def test_blocked_route_at_real_truncation():
    # zeta = 0.9 keeps n_max 162: the dense partial transpose there is a
    # 53 301 x 53 301 complex matrix (45 GB); the blocks stay under 0.5 MB
    state = build_state(1, 0.9)
    assert state.n_max == 162
    rho = state.density_matrix()
    tracemalloc.start()
    try:
        value = negativity_numeric(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6
    assert_allclose(value, negativity_analytic(state), rtol=0, atol=1e-9)
