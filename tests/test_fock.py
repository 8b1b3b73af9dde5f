"""Fock-space plumbing: basis layout, ladder operators, pulse, partial transpose."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm as scipy_expm

from ngfiber.errors import EigenFailure, NonHermitianInput, ParameterError
from ngfiber.fock import (
    FockOperator,
    FockSpace,
    annihilation,
    expm,
    expm_hermitian,
    number_operator,
    partial_transpose,
    phase_shifter,
)


def test_space_dimension_and_ordering():
    space = FockSpace(4)
    # triangular count: (cut+1)(cut+2)/2 states with n_a + n_b <= cut
    assert space.dim == 15
    totals = [na + nb for na, nb in space.basis]
    assert totals == sorted(totals)
    # within a total, n_a ascends
    for t in range(5):
        nas = [na for na, nb in space.basis if na + nb == t]
        assert nas == sorted(nas)


def test_index_round_trip():
    space = FockSpace(6)
    for i, (na, nb) in enumerate(space.basis):
        assert space.index(na, nb) == i
    with pytest.raises(KeyError):
        space.index(4, 3)
    with pytest.raises(KeyError):
        space.index(7, 0)


def test_space_equality_hash_and_repr():
    assert FockSpace(3) == FockSpace(3) != FockSpace(4)
    assert len({FockSpace(3), FockSpace(3), FockSpace(4)}) == 2
    assert repr(FockSpace(3)) == "FockSpace(total_cut=3)"


def test_number_arrays_match_basis():
    space = FockSpace(5)
    for i, (na, nb) in enumerate(space.basis):
        assert space.n_a[i] == na
        assert space.n_b[i] == nb


def test_invalid_space_and_mode():
    with pytest.raises(ParameterError):
        FockSpace(-1)
    # a fractional or NaN cut is refused, not truncated to an integer
    with pytest.raises(ParameterError):
        FockSpace(2.5)
    with pytest.raises(ParameterError):
        FockSpace(float("nan"))
    assert FockSpace(np.int64(3)).dim == 10
    space = FockSpace(2)
    with pytest.raises(ParameterError):
        annihilation(space, "c")


def test_annihilation_lowers_exactly():
    space = FockSpace(5)
    a = annihilation(space, "a").matrix
    b = annihilation(space, "b").matrix
    for na, nb in space.basis:
        vec = np.zeros(space.dim)
        vec[space.index(na, nb)] = 1.0
        out = a @ vec
        if na == 0:
            assert np.all(out == 0)
        else:
            expected = np.zeros(space.dim)
            expected[space.index(na - 1, nb)] = np.sqrt(na)
            assert_allclose(out, expected, rtol=0, atol=1e-15)
        out = b @ vec
        if nb == 0:
            assert np.all(out == 0)
        else:
            expected = np.zeros(space.dim)
            expected[space.index(na, nb - 1)] = np.sqrt(nb)
            assert_allclose(out, expected, rtol=0, atol=1e-15)


def test_commutator_on_interior_states():
    # [a, a+] = 1 holds away from the truncation edge
    space = FockSpace(6)
    a = annihilation(space, "a").matrix
    comm = a @ a.conj().T - a.conj().T @ a
    for na, nb in space.basis:
        if na + nb < space.total_cut:  # raising stays inside the space
            i = space.index(na, nb)
            assert_allclose(comm[i, i].real, 1.0, rtol=0, atol=1e-12)


def test_number_operator_diagonal():
    space = FockSpace(4)
    na_op = number_operator(space, "a").matrix
    nb_op = number_operator(space, "b").matrix
    assert_allclose(np.diag(na_op).real, space.n_a, rtol=0, atol=0)
    assert_allclose(np.diag(nb_op).real, space.n_b, rtol=0, atol=0)
    assert np.max(np.abs(na_op - np.diag(np.diag(na_op)))) == 0.0


def test_phase_shifter_quarter_cycle():
    space = FockSpace(4)
    pi_op = phase_shifter(space)
    m = pi_op.matrix
    assert np.max(np.abs(m.conj().T @ m - np.eye(space.dim))) < 1e-14
    diag = np.diag(m)
    expected = np.array([1j ** ((na - nb) % 4) for na, nb in space.basis])
    assert_allclose(diag, expected, rtol=0, atol=1e-15)
    # fourth power is the identity
    assert_allclose(m @ m @ m @ m, np.eye(space.dim), rtol=0, atol=1e-14)


def test_phase_shifter_flips_exchange_coupling():
    space = FockSpace(5)
    pi_op = phase_shifter(space).matrix
    a = annihilation(space, "a").matrix
    b = annihilation(space, "b").matrix
    exchange = a.conj().T @ b
    flipped = pi_op @ exchange @ pi_op.conj().T
    assert np.max(np.abs(flipped + exchange)) < 1e-13


def test_partial_transpose_bell_pair():
    # (|0,0> + |1,1>)/sqrt(2): the transposed matrix picks up a -1/2 eigenvalue
    space = FockSpace(2)
    vec = np.zeros(space.dim)
    vec[space.index(0, 0)] = 1 / np.sqrt(2)
    vec[space.index(1, 1)] = 1 / np.sqrt(2)
    rho = FockOperator(space, np.outer(vec, vec).astype(complex))
    pt = partial_transpose(rho)
    eigs = np.linalg.eigvalsh(pt.matrix)
    assert_allclose(eigs.min(), -0.5, rtol=0, atol=1e-14)
    assert_allclose(np.abs(eigs).sum() - eigs.sum(), 1.0, rtol=0, atol=1e-14)


def test_partial_transpose_is_involutive():
    # support the state on the {n_a <= 1, n_b <= 1} block: the transpose
    # permutes that block within itself, so applying it twice must be exact
    # (a generic matrix on a total-number cutoff has elements whose image
    # falls outside the cut, and those are not recoverable)
    space = FockSpace(3)
    block = [space.index(na, nb) for na in (0, 1) for nb in (0, 1)]
    rng = np.random.default_rng(7)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    small = m @ m.conj().T
    small /= np.trace(small).real
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    rho[np.ix_(block, block)] = small
    op = FockOperator(space, rho)
    double = partial_transpose(partial_transpose(op))
    assert_allclose(double.matrix, rho, rtol=0, atol=1e-15)


def test_partial_transpose_rejects_bad_input():
    space = FockSpace(2)
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[0, 1] = 1.0  # not Hermitian
    with pytest.raises(NonHermitianInput):
        partial_transpose(FockOperator(space, m))
    with pytest.raises(ParameterError):
        partial_transpose(FockOperator(space, 2.0 * np.eye(space.dim, dtype=complex)))


def test_operator_shape_mismatch():
    space = FockSpace(2)
    with pytest.raises(ParameterError):
        FockOperator(space, np.eye(space.dim + 1, dtype=complex))
    other = FockSpace(3)
    with pytest.raises(ParameterError, match="different spaces"):
        annihilation(space, "a") @ annihilation(other, "a")


def test_expm_diagonal_phases():
    space = FockSpace(3)
    h = FockOperator(
        space, number_operator(space, "a").matrix + 2.0 * number_operator(space, "b").matrix
    )
    t = 0.37
    u = expm(h, t)
    expected = np.exp(-1j * t * (space.n_a + 2.0 * space.n_b))
    assert_allclose(np.diag(u.matrix), expected, rtol=0, atol=1e-14)
    assert np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(space.dim))) < 1e-12


def test_expm_matches_series_for_small_generator():
    space = FockSpace(3)
    a = annihilation(space, "a")
    hm = (a.dagger() @ a).matrix + 0.2 * (a.matrix + a.dagger().matrix)
    t = 1e-4
    u = expm_hermitian(hm, t)
    series = (
        np.eye(space.dim)
        - 1j * t * hm
        - 0.5 * t * t * (hm @ hm)
        + (1j * t**3 / 6.0) * (hm @ hm @ hm)
    )
    assert_allclose(u, series, rtol=0, atol=1e-14)


@st.composite
def block_diagonal_hermitians(draw):
    """Hermitian matrix made of blocks along the diagonal.

    One dense block, all 1x1 blocks, or random cuts whose blocks have some
    entries zeroed (sparse).  The diagonal and sparse kinds give unit-vector
    eigenvectors, and the sparse kind repeated eigenvalues (each zeroed row
    is an eigenvalue 0), which one random dense Hermitian matrix would not.
    """
    dim = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(("dense", "diagonal", "sparse")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dense":
        cuts = [0, dim]
    elif kind == "diagonal":
        cuts = list(range(dim + 1))
    else:
        inner = rng.choice(np.arange(1, dim), size=rng.integers(0, dim), replace=False)
        cuts = [0, *sorted(inner.tolist()), dim]
    h = np.zeros((dim, dim), dtype=complex)
    for lo, hi in zip(cuts, cuts[1:]):
        size = hi - lo
        block = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        if kind == "sparse":
            block *= rng.random((size, size)) < rng.uniform(0.3, 1.0)
        h[lo:hi, lo:hi] = block + block.conj().T
    return h


@settings(max_examples=80, deadline=None)
@given(block_diagonal_hermitians(), st.floats(-3.0, 3.0))
def test_blocked_expm_matches_scipy(h, t):
    assert_allclose(expm_hermitian(h, t), scipy_expm(-1j * t * h), rtol=0, atol=1e-12)


def test_expm_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 1.0)
    # a NaN fails the defect comparison instead of slipping past it
    with pytest.raises(NonHermitianInput, match="nan"):
        expm_hermitian(np.array([[0.0, 1.0], [1.0, np.nan]], dtype=complex), 1.0)


def _eigh_fails(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _eigh_not_unitary(a):
    return np.zeros(a.shape[:-1]), 2.0 * np.broadcast_to(np.eye(a.shape[-1]), a.shape)


def _eigh_nan(a):
    return np.zeros(a.shape[:-1]), np.full(a.shape, np.nan)


@pytest.mark.parametrize(
    "eigh, match",
    [(_eigh_fails, "eigendecomposition failed"), (_eigh_not_unitary, "unitarity defect"),
     (_eigh_nan, "unitarity defect nan")],
)
def test_expm_eigen_failures_are_typed(monkeypatch, eigh, match):
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    with pytest.raises(EigenFailure, match=match):
        expm_hermitian(np.diag([0.0, 1.0]).astype(complex), 1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_expm_at_a_non_finite_time_fails_the_unitarity_check(t):
    with np.errstate(invalid="ignore"), pytest.raises(EigenFailure, match="unitarity defect nan"):
        expm_hermitian(np.diag([0.0, 1.0]).astype(complex), t)


def test_hermiticity_helpers():
    space = FockSpace(2)
    a = annihilation(space, "a")
    h = FockOperator(space, a.matrix + a.dagger().matrix)
    assert h.hermiticity_defect() == 0.0
    # a - a+ is as large as the largest entry of a, <1,0|a|2,0> = sqrt(2)
    assert a.hermiticity_defect() == np.sqrt(2.0)
