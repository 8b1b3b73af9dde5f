"""Joint system-bath propagation and pulse-protected evolution."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm as scipy_expm
from scipy.sparse.linalg import expm_multiply

import ngfiber.bangbang as bb
from ngfiber import validate
from ngfiber.errors import (
    DimensionBudgetExceeded,
    DimensionMismatch,
    NonHermitianInput,
    ParameterError,
)
from ngfiber.fock import (
    FockOperator,
    FockSpace,
    annihilation,
    expm_hermitian,
    number_operator,
    phase_shifter,
)
from ngfiber.negativity import negativity_analytic, negativity_fock
from ngfiber.states import build_state, embed


def small_bath(g: float = 0.35, dephasing: float = 0.0) -> bb.ToyBath:
    return bb.ToyBath(
        num_modes=1,
        frequencies=(1.0,),
        raman_couplings=(g,),
        dephasing_rates_a=(dephasing,),
        dephasing_rates_b=(dephasing,),
        s_cut=2,
        omega_a=2.0,
        omega_b=1.3,
    )


def propagate_pulses_after(h_list, tau, psi0, pi):
    """The train Pi E_N ... Pi E_1: Pi U Pi^dag, with U the train of propagate_bb."""
    return pi * bb.propagate_bb(h_list, tau, pi.conj() * psi0, pi)


def test_toybath_validation():
    with pytest.raises(ParameterError):
        bb.ToyBath(0, (), (), (), ())
    with pytest.raises(ParameterError):
        bb.ToyBath(1, (1.0,), (0.1,), (0.0,), (0.0,), s_cut=0)
    with pytest.raises(ParameterError):
        bb.ToyBath(2, (1.0,), (0.1, 0.2), (0.0, 0.0), (0.0, 0.0))
    bath = bb.ToyBath(2, (1.0, 2.0), (0.1, 0.2), (0.0, 0.0), (0.0, 0.0), s_cut=3)
    assert bath.mode_dim == 4
    assert bath.bath_dim() == 16


def test_dimension_budget():
    bath = small_bath()
    space = FockSpace(4)
    assert bb.joint_dim(space, bath) == 45
    assert bb.check_budget(space, bath) == 45
    with pytest.raises(DimensionBudgetExceeded):
        bb.check_budget(FockSpace(80), bath)
    with pytest.raises(DimensionBudgetExceeded):
        bb.build_hamiltonian(FockSpace(80), bath)


def test_joint_builders_refuse_what_build_hamiltonian_refuses():
    bath = bb.ToyBath(2, (1.0, 1.5), (0.3, 0.2), (0.0, 0.0), (0.0, 0.0), s_cut=4)
    space = FockSpace(20)
    assert bb.joint_dim(space, bath) == 5775 > bb.DIMENSION_BUDGET
    state = build_state(1, 0.5, n_max=2)
    for build in (
        lambda: bb.build_hamiltonian(space, bath),
        lambda: bb.joint_initial_state(state, space, bath),
        lambda: bb.joint_phase_shifter(space, bath),
    ):
        with pytest.raises(DimensionBudgetExceeded, match="5775"):
            build()


def test_hamiltonian_is_diagonal_without_couplings():
    bath = small_bath(g=0.0)
    space = FockSpace(3)
    h = bb.build_hamiltonian(space, bath).toarray()
    off = h - np.diag(np.diag(h))
    assert np.max(np.abs(off)) == 0.0


def test_hamiltonian_hermitian_with_random_couplings():
    rng = np.random.default_rng(11)
    for _ in range(3):
        g, ga, gb = rng.uniform(0.1, 1.0, size=3)
        bath = bb.ToyBath(
            num_modes=2,
            frequencies=(1.0, 1.7),
            raman_couplings=(g, 0.4 * g),
            dephasing_rates_a=(ga, 0.3 * ga),
            dephasing_rates_b=(gb, 0.6 * gb),
            s_cut=2,
            omega_a=2.0,
            omega_b=1.3,
        )
        h = bb.build_hamiltonian(FockSpace(3), bath).toarray()
        assert np.max(np.abs(h - h.conj().T)) < 1e-13


def test_hamiltonian_conserves_total_photon_number():
    # the exchange term moves a quantum between the modes, never in or out
    bath = small_bath(g=0.6, dephasing=0.2)
    space = FockSpace(3)
    h = bb.build_hamiltonian(space, bath).toarray()
    n_total = np.kron(
        np.diag((space.n_a + space.n_b).astype(complex)),
        np.eye(bath.bath_dim(), dtype=complex),
    )
    comm = h @ n_total - n_total @ h
    assert np.max(np.abs(comm)) < 1e-13


def kron_hamiltonian(space, bath, segment=0, profile=None):
    """Reference H from kron chains of single-mode operators."""
    def lift(op, mode_index):
        out = np.array([[1.0 + 0.0j]])
        for i in range(bath.num_modes):
            out = np.kron(out, op if i == mode_index else np.eye(bath.mode_dim))
        return out

    lowering = np.diag(np.sqrt(np.arange(1, bath.mode_dim)), 1).astype(complex)
    a = annihilation(space, "a").matrix
    b = annihilation(space, "b").matrix
    na = number_operator(space, "a").matrix
    nb = number_operator(space, "b").matrix
    h = np.kron(bath.omega_a * na + bath.omega_b * nb, np.eye(bath.bath_dim()))
    for i in range(bath.num_modes):
        g = bath.raman_couplings[i]
        ga = bath.dephasing_rates_a[i]
        gb = bath.dephasing_rates_b[i]
        if profile is not None:
            g = g * profile.g_scales[segment, i]
            ga = ga * profile.dephasing_scales[segment, i]
            gb = gb * profile.dephasing_scales[segment, i]
        lower = lift(lowering, i)
        occupation = lower.conj().T @ lower
        h = h + bath.frequencies[i] * np.kron(np.eye(space.dim), occupation)
        term = g * np.kron(a.conj().T @ b, lower)
        h = h + term + term.conj().T + np.kron(ga * na + gb * nb, occupation)
    return h


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 6),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_hamiltonian_matches_kron_construction(num_modes, s_cut, cut, perturbed, seed):
    space = FockSpace(cut)
    assume(space.dim * (s_cut + 1) ** num_modes <= 1024)
    rng = np.random.default_rng(seed)

    def draw():
        return tuple(rng.uniform(0.0, 2.0, num_modes))

    bath = bb.ToyBath(
        num_modes, draw(), draw(), draw(), draw(), s_cut=s_cut,
        omega_a=rng.uniform(0.0, 3.0), omega_b=rng.uniform(0.0, 3.0),
    )
    profile = None
    if perturbed:
        profile = bb.SegmentProfile.generate(4, 1.0, 0.1, seed=seed, num_modes=num_modes)
    ref = kron_hamiltonian(space, bath, 3, profile)
    h = bb.build_hamiltonian(space, bath, 3, profile).toarray()
    # both routes round differently (the reference's occupation is sqrt(s)^2)
    assert np.max(np.abs(h - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert np.array_equal(h == 0, ref == 0)


def test_joint_phase_shifter_is_the_kron_diagonal():
    bath = bb.ToyBath(2, (1.0, 1.5), (0.3, 0.2), (0.0, 0.0), (0.0, 0.0), s_cut=2)
    space = FockSpace(6)
    dense = np.kron(phase_shifter(space).matrix, np.eye(bath.bath_dim()))
    pi = bb.joint_phase_shifter(space, bath)
    assert pi.shape == (bb.joint_dim(space, bath),)
    assert np.array_equal(pi, np.diag(dense))


def test_joint_phase_shifter_allocates_no_dense_pulse():
    # criterion 09's joint dim 3696, where a dense kron pulse is 218 MB
    bath = bb.ToyBath(1, (0.0,), (0.5,), (0.0,), (0.0,), s_cut=15)
    space = FockSpace(20)
    assert bb.joint_dim(space, bath) == 3696
    tracemalloc.start()
    try:
        pi = bb.joint_phase_shifter(space, bath)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pi.shape == (3696,)
    assert peak <= 1_000_000


def test_perturbed_propagation_matches_expm_multiply():
    bath = bb.ToyBath(2, (1.0, 1.7), (0.4, 0.25), (0.1, 0.05), (0.2, 0.1), s_cut=2,
                      omega_a=2.0, omega_b=1.3)
    space = FockSpace(5)
    profile = bb.SegmentProfile.generate(8, 1.0, 0.1, seed=9, num_modes=2)
    h_list = [bb.build_hamiltonian(space, bath, i, profile) for i in range(8)]
    psi0 = bb.joint_initial_state(build_state(1, 0.5, n_max=2), space, bath)
    pi = bb.joint_phase_shifter(space, bath)
    tau = 0.6
    ref = psi0.astype(complex)
    for h in h_list:
        ref = expm_multiply(-1j * tau * h.toarray(), pi * ref)
    assert_allclose(bb.propagate_bb(h_list, tau, psi0, pi), ref, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 2),
    st.integers(1, 3),
    st.integers(2, 5),
    st.integers(1, 4),
    st.sampled_from((None, False, True)),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_distinct_segment_patterns_match_scipy_expm(
    num_modes, s_cut, cut, pairs, pulses_after, sparse, seed
):
    # the segments share one block partition, although one of them has its
    # exchange coupling scaled to 0 (a diagonal pattern) and some repeat an H;
    # a sparse psi0 has support on a random subset of the sectors only
    space = FockSpace(cut)
    assume(space.dim * (s_cut + 1) ** num_modes <= 120)
    rng = np.random.default_rng(seed)

    def draw():
        return tuple(rng.uniform(0.1, 1.0, num_modes))

    bath = bb.ToyBath(num_modes, draw(), draw(), draw(), draw(), s_cut=s_cut,
                      omega_a=rng.uniform(0.0, 3.0), omega_b=rng.uniform(0.0, 3.0))
    n_seg = 2 * pairs
    profile = bb.SegmentProfile.generate(n_seg, 1.0, 0.2, seed=seed, num_modes=num_modes)
    uncoupled = rng.integers(n_seg)
    profile.g_scales[uncoupled] = 0.0
    distinct = [bb.build_hamiltonian(space, bath, i, profile) for i in range(n_seg)]
    picks = rng.integers(0, n_seg, n_seg)
    picks[rng.integers(n_seg)] = uncoupled
    h_list = [distinct[i] for i in picks]
    psi0 = rng.normal(size=distinct[0].shape[0]) + 1j * rng.normal(size=distinct[0].shape[0])
    if sparse:
        sector = distinct[0].layout.sector
        labels = np.unique(sector)
        psi0[~np.isin(sector, rng.choice(labels, rng.integers(1, labels.size + 1), False))] = 0
    pi = bb.joint_phase_shifter(space, bath)
    tau = rng.uniform(0.05, 1.0)
    ref = psi0.copy()
    for h in h_list:
        step = scipy_expm(-1j * tau * h.toarray())
        if pulses_after is None:
            ref = step @ ref
        else:
            ref = pi * (step @ ref) if pulses_after else step @ (pi * ref)
    if pulses_after is None:
        psi = bb.propagate_free(h_list, tau, psi0)
    elif pulses_after:
        psi = propagate_pulses_after(h_list, tau, psi0, pi)
    else:
        psi = bb.propagate_bb(h_list, tau, psi0, pi)
    assert_allclose(psi, ref, rtol=0, atol=1e-12 * np.linalg.norm(psi0))


def test_hermiticity_is_checked_per_segment_hamiltonian():
    bath = bb.ToyBath(1, (1.0,), (0.3,), (0.1,), (0.2,), s_cut=2, omega_a=2.0, omega_b=1.3)
    space = FockSpace(3)
    h_list = [bb.build_hamiltonian(space, bath) for _ in range(4)]
    psi0 = bb.joint_initial_state(build_state(1, 0.5, n_max=1), space, bath)
    rows, cols = h_list[2].entries()

    def tampered(h, scale, k, defect):
        data = scale / np.max(np.abs(h.data)) * h.data
        data[k] += defect
        return bb.SectorHamiltonian(h.layout, data)

    # an in-block entry whose mirror is zero, in the third of four segments
    k = np.flatnonzero((h_list[2].data == 0) & (rows != cols))[0]
    assert h_list[2].toarray()[cols[k], rows[k]] == 0
    h_list[2] = tampered(h_list[2], np.max(np.abs(h_list[2].data)), k, 0.1)
    with pytest.raises(NonHermitianInput):
        bb.propagate_free(h_list, 0.1, psi0)
    # the tolerance scales with each matrix's own max|m|: a 5e-10 defect on an
    # H of scale 1e3 passes, a 5e-12 defect on a unit-scale H does not
    k = np.flatnonzero((h_list[0].data != 0) & (rows < cols))[0]
    big = tampered(h_list[0], 1e3, k, 5e-10)
    unit = tampered(h_list[1], 1.0, k, 0.0)
    bb.propagate_free([big, unit], 0.1, psi0)
    bad = tampered(h_list[1], 1.0, k, 5e-12)
    with pytest.raises(NonHermitianInput):
        bb.propagate_free([big, unit, bad], 0.1, psi0)
    # psi0 occupies two of the sectors; a defect, or a NaN, in a block it
    # leaves empty is never eigensolved, and is refused all the same
    sector = h_list[0].layout.sector
    empty = ~np.isin(sector[rows], sector[psi0 != 0])
    k = np.flatnonzero(empty & (h_list[0].data != 0) & (rows < cols))[0]
    pi = bb.joint_phase_shifter(space, bath)
    for defect in (0.1, NAN):
        pair = [unit, tampered(h_list[0], 1.0, k, defect)]
        with pytest.raises(NonHermitianInput):
            bb.propagate_free(pair, 0.1, psi0)
        with pytest.raises(NonHermitianInput):
            bb.propagate_bb(pair, 0.1, psi0, pi)


def joint_sectors(space, bath):
    """(n_a + n_b, n_a + sum_i s_i) of every joint index, from a kron of labels."""
    digits = np.indices((bath.mode_dim,) * bath.num_modes).reshape(bath.num_modes, -1)
    n_a = np.repeat(space.n_a, bath.bath_dim())
    total = np.repeat(space.n_a + space.n_b, bath.bath_dim())
    return total, n_a + np.tile(digits.sum(axis=0), space.dim)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 6),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_sector_blocks_hold_every_nonzero_of_the_kron_hamiltonian(
    num_modes, s_cut, cut, perturbed, seed
):
    space = FockSpace(cut)
    assume(space.dim * (s_cut + 1) ** num_modes <= 1024)
    rng = np.random.default_rng(seed)

    def draw():
        return tuple(rng.uniform(0.1, 2.0, num_modes))

    bath = bb.ToyBath(
        num_modes, draw(), draw(), draw(), draw(), s_cut=s_cut,
        omega_a=rng.uniform(0.0, 3.0), omega_b=rng.uniform(0.0, 3.0),
    )
    profile, segments = None, [0]
    if perturbed:
        # segment 1 has its exchange coupling scaled to 0: a diagonal H
        profile = bb.SegmentProfile.generate(4, 1.0, 0.1, seed=seed, num_modes=num_modes)
        profile.g_scales[1] = 0.0
        segments = range(4)
    total, m = joint_sectors(space, bath)
    for segment in segments:
        h = bb.build_hamiltonian(space, bath, segment, profile)
        sector = h.layout.sector
        # one label per conserved pair, and no label shared by two pairs
        labelled = np.unique(np.stack([total, m, sector]), axis=1).shape[1]
        conserved = np.unique(np.stack([total, m]), axis=1).shape[1]
        assert labelled == np.unique(sector).size == conserved
        ref = kron_hamiltonian(space, bath, segment, profile)
        rows, cols = np.nonzero(ref)
        assert np.array_equal(sector[rows], sector[cols])
        # the n_a + n_b = 0 sector holds bath states only: its block is diagonal
        vacuum = rows[total[rows] == 0]
        assert np.array_equal(vacuum, cols[total[rows] == 0])
        assert np.max(np.abs(h.toarray() - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_build_hamiltonian_allocates_no_dense_matrix():
    # criterion 09's joint dim 3696, where a dense H is 219 MB; the layout is
    # built inside the measurement, then reused by the next call
    bath = bb.ToyBath(1, (0.0,), (0.5,), (0.0,), (0.0,), s_cut=15)
    space = FockSpace(20)
    bb._sector_layout.cache_clear()
    tracemalloc.start()
    try:
        h = bb.build_hamiltonian(space, bath)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.shape == (3696, 3696)
    assert peak <= 2_000_000
    assert bb.build_hamiltonian(space, bath).layout is h.layout


NAN, INF = float("nan"), float("inf")


def two_mode_bath(**changes):
    args = dict(num_modes=2, frequencies=(1.0, 1.7), raman_couplings=(0.4, 0.25),
                dephasing_rates_a=(0.1, 0.05), dephasing_rates_b=(0.2, 0.1), s_cut=2,
                omega_a=2.0, omega_b=1.3)
    return bb.ToyBath(**{**args, **changes})


def build_on_profile(segment, num_modes):
    ones = np.ones((4, num_modes))
    profile = bb.SegmentProfile(4, 1.0, ones, ones)
    return bb.build_hamiltonian(FockSpace(2), two_mode_bath(), segment, profile)


def propagate_mixed_spaces():
    # joint dim 18 twice: total_cut 2 with one 3-level mode, total_cut 1 with one 6-level mode
    one = bb.ToyBath(1, (1.0,), (0.3,), (0.0,), (0.0,), s_cut=2)
    h = bb.build_hamiltonian(FockSpace(2), one)
    other = bb.build_hamiltonian(FockSpace(1), replace(one, s_cut=5))
    bb.propagate_free([h, other], 0.1, np.ones(18))


def small_train():
    space, bath = FockSpace(2), two_mode_bath()
    h = bb.build_hamiltonian(space, bath)
    psi0 = bb.joint_initial_state(build_state(0, 0.5, n_max=1), space, bath)
    return [h, h], psi0, bb.joint_phase_shifter(space, bath)


def propagate_small(tau=0.1, psi=None, pi=None, pulsed=True):
    """The pulsed (or free) two-segment train on joint dim 54, with psi0 and Pi mapped."""
    h_list, psi0, pi_op = small_train()
    psi0 = psi0 if psi is None else psi(psi0)
    if not pulsed:
        return bb.propagate_free(h_list, tau, psi0)
    return bb.propagate_bb(h_list, tau, psi0, pi_op if pi is None else pi(pi_op))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: two_mode_bath(frequencies=(1.0, NAN)), id="frequency-nan"),
        pytest.param(lambda: two_mode_bath(raman_couplings=(INF, 0.25)), id="coupling-inf"),
        pytest.param(lambda: two_mode_bath(dephasing_rates_a=(0.1, NAN)), id="rate-a-nan"),
        pytest.param(lambda: two_mode_bath(dephasing_rates_b=(-INF, 0.1)), id="rate-b-inf"),
        pytest.param(lambda: two_mode_bath(omega_a=NAN), id="omega-a-nan"),
        pytest.param(lambda: two_mode_bath(omega_b=INF), id="omega-b-inf"),
        pytest.param(lambda: bb.SegmentProfile(4, 1.0, np.full((4, 2), NAN), np.ones((4, 2))),
                     id="profile-scale-nan"),
        pytest.param(lambda: build_on_profile(0, 1), id="one-mode-profile-on-two-modes"),
        pytest.param(lambda: build_on_profile(7, 2), id="segment-7-of-4"),
        pytest.param(lambda: build_on_profile(-1, 2), id="segment-minus-1"),
        pytest.param(lambda: build_on_profile(1.5, 2), id="segment-1.5"),
        pytest.param(lambda: two_mode_bath(s_cut=2.5), id="s-cut-2.5"),
        pytest.param(lambda: two_mode_bath(num_modes=2.0), id="num-modes-2.0"),
        pytest.param(
            lambda: bb.propagate_free(
                [bb.build_hamiltonian(FockSpace(2), two_mode_bath()).toarray()], 0.1, np.ones(54)
            ),
            id="dense-ndarray",
        ),
        pytest.param(propagate_mixed_spaces, id="mixed-joint-spaces"),
        *(pytest.param(lambda tau=tau, pulsed=pulsed: propagate_small(tau, pulsed=pulsed),
                       id=f"{'pulsed' if pulsed else 'free'}-tau-{tau}")
          for tau in (NAN, INF, -INF) for pulsed in (False, True)),
        pytest.param(lambda: propagate_small(pi=lambda pi: pi[:, None]), id="pulse-column"),
        pytest.param(lambda: propagate_small(pi=lambda pi: 2 * pi), id="pulse-doubled"),
        pytest.param(lambda: propagate_small(pi=lambda pi: pi * np.exp(1e-5 * np.arange(54))),
                     id="pulse-off-unit-modulus"),
        pytest.param(lambda: propagate_small(pi=list), id="pulse-list"),
        *(pytest.param(lambda pulsed=pulsed: propagate_small(
            psi=lambda psi0: np.repeat(psi0[:, None], 3, axis=1), pulsed=pulsed),
            id=f"{'pulsed' if pulsed else 'free'}-state-three-columns")
          for pulsed in (False, True)),
    ],
)
def test_toy_model_refusals_are_typed(make):
    with pytest.raises(ParameterError):
        make()


def test_block_propagation_allocates_no_dense_propagator():
    # dim 819 with 24 segments: one dense U is 10.7 MB, and the dense route peaked at 21.6 MB
    bath = bb.ToyBath(2, (0.6, 1.4), (0.3, 0.3), (0.02, 0.02), (0.03, 0.03), s_cut=2,
                      omega_a=2.0, omega_b=1.3)
    space = FockSpace(12)
    h_list = [bb.build_hamiltonian(space, bath)] * 24
    psi0 = bb.joint_initial_state(build_state(0, 0.4, n_max=6), space, bath)
    pi = bb.joint_phase_shifter(space, bath)
    assert psi0.shape == (819,)
    tracemalloc.start()
    try:
        psi = bb.propagate_bb(h_list, 0.3, psi0, pi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    assert peak <= 4_000_000


def recording_eigh(monkeypatch):
    """Wrap np.linalg.eigh to record the shape of every stack it eigensolves."""
    shapes, eigh = [], np.linalg.eigh

    def record(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", record)
    return shapes


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("pulsed", [False, True])
@pytest.mark.parametrize("p, n_max", [(0, 0), (1, 2), (2, 4)])
def test_only_the_occupied_sectors_are_eigensolved(monkeypatch, p, n_max, pulsed, perturbed):
    # bath in its ground state: one sector (N, M) = (2n + p, n) per amplitude
    # c_n of the state, and H never moves psi out of them
    bath = two_mode_bath()
    space = FockSpace(2 * n_max + p + 2)
    n_seg = 6
    if perturbed:
        profile = bb.SegmentProfile.generate(n_seg, 1.0, 0.1, seed=3, num_modes=2)
        h_list = [bb.build_hamiltonian(space, bath, i, profile) for i in range(n_seg)]
    else:
        h_list = [bb.build_hamiltonian(space, bath)] * n_seg
    n_distinct = len({id(h) for h in h_list})
    psi0 = bb.joint_initial_state(build_state(p, 0.5, n_max=n_max), space, bath)
    sector = h_list[0].layout.sector
    occupied = np.unique(sector[psi0 != 0])
    assert occupied.size == n_max + 1
    shapes = recording_eigh(monkeypatch)
    if pulsed:
        psi = bb.propagate_bb(h_list, 0.4, psi0, bb.joint_phase_shifter(space, bath))
    else:
        psi = bb.propagate_free(h_list, 0.4, psi0)
    assert all(shape[0] == n_distinct for shape in shapes)
    assert sum(shape[1] for shape in shapes) == n_max + 1
    sizes = sorted(size for shape in shapes for size in [shape[-1]] * shape[1])
    assert sizes == sorted(np.count_nonzero(sector == label) for label in occupied)
    assert np.all(psi[~np.isin(sector, occupied)] == 0)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_zero_state_propagates_without_an_eigensolve(monkeypatch):
    h_list, psi0, pi = small_train()
    shapes = recording_eigh(monkeypatch)
    zero = np.zeros_like(psi0)
    assert np.array_equal(bb.propagate_free(h_list, 0.1, zero), zero)
    assert np.array_equal(bb.propagate_bb(h_list, 0.1, zero, pi), zero)
    assert shapes == []


def test_segment_profile_validation_and_seeding():
    with pytest.raises(ParameterError):
        bb.SegmentProfile(3, 1.0, np.ones((3, 1)), np.ones((3, 1)))
    with pytest.raises(ParameterError):
        bb.SegmentProfile(0, 1.0, np.ones((0, 1)), np.ones((0, 1)))
    a = bb.SegmentProfile.generate(8, 1.0, 0.05, seed=42, num_modes=2)
    b = bb.SegmentProfile.generate(8, 1.0, 0.05, seed=42, num_modes=2)
    c = bb.SegmentProfile.generate(8, 1.0, 0.05, seed=43, num_modes=2)
    assert np.array_equal(a.g_scales, b.g_scales)
    assert np.array_equal(a.dephasing_scales, b.dephasing_scales)
    assert not np.array_equal(a.g_scales, c.g_scales)


def test_inhomogeneous_propagation_is_reproducible():
    bath = small_bath(g=0.4)
    space = FockSpace(4)
    state = build_state(1, 0.5, n_max=1)
    psi0 = bb.joint_initial_state(state, space, bath)
    pi_op = bb.joint_phase_shifter(space, bath)

    def run(seed):
        profile = bb.SegmentProfile.generate(8, 1.0, 0.05, seed=seed, num_modes=1)
        h_list = [
            bb.build_hamiltonian(space, bath, segment=i, profile=profile)
            for i in range(8)
        ]
        return bb.propagate_bb(h_list, 0.5, psi0, pi_op)

    assert np.array_equal(run(5), run(5))
    assert not np.array_equal(run(5), run(6))


def test_free_propagation_diagonal_phases():
    bath = small_bath(g=0.0)
    space = FockSpace(3)
    h = bb.build_hamiltonian(space, bath)
    dim = bb.joint_dim(space, bath)
    psi0 = np.zeros(dim, dtype=complex)
    # system |1, 2>, bath occupation 1
    idx = space.index(1, 2) * bath.bath_dim() + 1
    psi0[idx] = 1.0
    tau = 0.83
    psi = bb.propagate_free([h, h, h], tau, psi0)
    # energy: 2*1 + 1.3*2 + 1.0*1 phases through three segments
    expected_phase = np.exp(-1j * 3 * tau * (2.0 * 1 + 1.3 * 2 + 1.0 * 1))
    assert_allclose(psi[idx], expected_phase, rtol=0, atol=1e-12)
    assert_allclose(np.linalg.norm(psi), 1.0, rtol=0, atol=1e-10)


def test_segmented_free_propagation_matches_single_exponential():
    bath = small_bath(g=0.5, dephasing=0.1)
    space = FockSpace(3)
    h = bb.build_hamiltonian(space, bath)
    state = build_state(1, 0.4, n_max=1)
    psi0 = bb.joint_initial_state(state, space, bath)
    tau = 0.3
    n_seg = 6
    split = bb.propagate_free([h] * n_seg, tau, psi0)
    whole = expm_hermitian(h.toarray(), n_seg * tau) @ psi0
    assert np.max(np.abs(split - whole)) < 1e-10
    assert abs(np.linalg.norm(split) - 1.0) < 1e-10
    # no segment: the state is returned as given
    assert np.array_equal(bb.propagate_free([], tau, psi0), psi0)


def test_bb_needs_even_segments_and_matching_dims():
    bath = small_bath()
    space = FockSpace(4)
    h = bb.build_hamiltonian(space, bath)
    state = build_state(1, 0.5, n_max=1)
    psi0 = bb.joint_initial_state(state, space, bath)
    pi_op = bb.joint_phase_shifter(space, bath)
    with pytest.raises(ParameterError):
        bb.propagate_bb([h], 0.1, psi0, pi_op)
    with pytest.raises(ParameterError):
        bb.propagate_bb([h, h, h], 0.1, psi0, pi_op)
    with pytest.raises(DimensionMismatch):
        bb.propagate_bb([h, h], 0.1, psi0[:-1], pi_op)
    with pytest.raises(DimensionMismatch):
        bb.propagate_free([h], 0.1, psi0[:-1])


def test_pulses_are_inert_without_exchange_coupling():
    # with only number-diagonal couplings the pulse commutes through and the
    # reduced state is unchanged, under either pulse placement
    bath = small_bath(g=0.0, dephasing=0.3)
    space = FockSpace(4)
    h = bb.build_hamiltonian(space, bath)
    state = build_state(1, 0.5, n_max=1)
    psi0 = bb.joint_initial_state(state, space, bath)
    pi_op = bb.joint_phase_shifter(space, bath)
    h_list = [h] * 8
    tau = 0.7
    rho_free = bb.reduced_system_matrix(
        bb.propagate_free(h_list, tau, psi0), space, bath
    )
    for propagate in (bb.propagate_bb, propagate_pulses_after):
        psi_bb = propagate(h_list, tau, psi0, pi_op)
        rho_bb = bb.reduced_system_matrix(psi_bb, space, bath)
        assert np.max(np.abs(rho_bb - rho_free)) < 1e-13


def test_phase_shifter_conjugation_flips_exchange_hamiltonian():
    # pure exchange coupling anticommutes with the pulse: Pi H Pi^dag = -H
    bath = bb.ToyBath(
        num_modes=1,
        frequencies=(0.0,),
        raman_couplings=(0.5,),
        dephasing_rates_a=(0.0,),
        dephasing_rates_b=(0.0,),
        s_cut=2,
        omega_a=0.0,
        omega_b=0.0,
    )
    space = FockSpace(4)
    h = bb.build_hamiltonian(space, bath).toarray()
    pi = bb.joint_phase_shifter(space, bath)
    conj = pi[:, None] * h * pi.conj()
    assert np.max(np.abs(conj + h)) < 1e-13


def test_reduced_state_of_product_is_pure():
    bath = small_bath()
    space = FockSpace(4)
    state = build_state(1, 0.5, n_max=1)
    psi0 = bb.joint_initial_state(state, space, bath)
    rho = bb.reduced_system_matrix(psi0, space, bath)
    vec = embed(state, space)
    assert_allclose(rho, np.outer(vec, vec.conj()), rtol=0, atol=1e-15)
    assert_allclose(
        bb.negativity_trace(psi0, space, bath),
        negativity_analytic(state),
        rtol=1e-12,
    )
    with pytest.raises(DimensionMismatch):
        bb.reduced_system_matrix(psi0[:-1], space, bath)


def test_fully_dephased_joint_state_has_no_negativity():
    # tag each manifold component with an orthogonal bath state
    bath = small_bath()
    space = FockSpace(4)
    state = build_state(1, 0.5, n_max=1)
    dim = bb.joint_dim(space, bath)
    psi = np.zeros(dim, dtype=complex)
    for n in range(2):
        sys_idx = space.index(n, n + 1)
        psi[sys_idx * bath.bath_dim() + n] = state.coeffs[n]
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-14
    assert bb.negativity_trace(psi, space, bath) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 2),
    st.integers(1, 4),
    st.integers(2, 12),
    st.integers(0, 2),
    st.sampled_from((None, False, True)),
    st.integers(0, 2**32 - 1),
)
def test_negativity_trace_matches_dense_oracle(num_modes, s_cut, cut, p, pulses_after, seed):
    # the reduced state conserves n_a - n_b, so the photon-number-blocked
    # route sees the whole partial-transpose spectrum
    space = FockSpace(cut)
    rng = np.random.default_rng(seed)

    def draw():
        return tuple(rng.uniform(0.1, 1.0, num_modes))

    bath = bb.ToyBath(num_modes, draw(), draw(), draw(), draw(), s_cut=s_cut,
                      omega_a=rng.uniform(0.0, 3.0), omega_b=rng.uniform(0.0, 3.0))
    n_seg = 2 * int(rng.integers(1, 5))
    profile = bb.SegmentProfile.generate(
        n_seg, 1.0, rng.uniform(0.02, 0.3), seed=seed, num_modes=num_modes
    )
    h_list = [bb.build_hamiltonian(space, bath, i, profile) for i in range(n_seg)]
    state = build_state(p, rng.uniform(0.1, 0.8), n_max=(cut - p) // 2)
    psi0 = bb.joint_initial_state(state, space, bath)
    tau = rng.uniform(0.1, 1.5)
    pi = bb.joint_phase_shifter(space, bath)
    if pulses_after is None:
        psi = bb.propagate_free(h_list, tau, psi0)
    elif pulses_after:
        psi = propagate_pulses_after(h_list, tau, psi0, pi)
    else:
        psi = bb.propagate_bb(h_list, tau, psi0, pi)
    rho = FockOperator(space, bb.reduced_system_matrix(psi, space, bath))
    assert_allclose(bb.negativity_trace(psi, space, bath), negativity_fock(rho), rtol=0, atol=1e-13)


def test_negativity_trace_refuses_what_it_cannot_block():
    bath = small_bath()
    space = FockSpace(4)
    # |0,0> + |1,0> mixes n_a - n_b = 0 and 1: its partial transpose couples
    # N = 0 to N = 1, so the blocked route refuses it (the dense oracle does not)
    vec = np.zeros(space.dim)
    vec[[space.index(0, 0), space.index(1, 0)]] = np.sqrt(0.5)
    psi = np.kron(vec, bb.bath_ground_state(bath))
    with pytest.raises(ParameterError, match="n_a - n_b"):
        bb.negativity_trace(psi, space, bath)
    rho = FockOperator(space, bb.reduced_system_matrix(psi, space, bath))
    assert_allclose(negativity_fock(rho), 0.0, rtol=0, atol=1e-15)
    # the unit-trace check of partial_transpose still applies
    psi0 = bb.joint_initial_state(build_state(1, 0.5, n_max=1), space, bath)
    with pytest.raises(ParameterError, match="unit trace"):
        bb.negativity_trace(1.1 * psi0, space, bath)


def test_dfs_residual_vanishes_on_manifold():
    space = FockSpace(8)
    for p, zeta in ((0, 0.5), (1, 0.5), (2, 0.3)):
        state = build_state(p, zeta, n_max=3)
        assert bb.dfs_check(state, space) == 0.0


def test_off_manifold_component_is_detected():
    # the same residual, evaluated directly, sees any leakage off the manifold
    space = FockSpace(4)
    state = build_state(1, 0.5, n_max=1)
    vec = embed(state, space)
    vec[space.index(0, 0)] = 0.1  # n_b - n_a = 0 here, not the manifold value 1
    vec /= np.linalg.norm(vec)
    residual = np.linalg.norm((space.n_a - space.n_b + state.p) * vec)
    assert residual > 0.09


def test_h0_target_phases():
    bath = small_bath()
    space = FockSpace(4)
    state = build_state(1, 0.5, n_max=1)
    assert_allclose(
        bb.h0_evolved_target(state, space, bath, 0.0),
        embed(state, space),
        rtol=0,
        atol=0,
    )
    t = 1.7
    target = bb.h0_evolved_target(state, space, bath, t)
    vec = embed(state, space)
    for n in range(2):
        idx = space.index(n, n + 1)
        expected = vec[idx] * np.exp(-1j * t * (2.0 * n + 1.3 * (n + 1)))
        assert_allclose(target[idx], expected, rtol=0, atol=1e-14)
    # bare evolution only rotates phases within the manifold
    assert_allclose(np.abs(target), np.abs(vec), rtol=0, atol=1e-15)


def test_system_fidelity_accepts_state_or_vector():
    bath = small_bath()
    space = FockSpace(4)
    state = build_state(1, 0.5, n_max=1)
    psi0 = bb.joint_initial_state(state, space, bath)
    # a manifold state goes in as its full-space vector
    f_vec = bb.system_fidelity(psi0, embed(state, space), space, bath)
    assert_allclose(f_vec, 1.0, rtol=0, atol=1e-14)


def test_pulse_train_rescues_entanglement():
    # frozen regression: strong exchange coupling destroys half the
    # negativity over the full walk, while 32 protected segments keep
    # essentially all of it
    bath = small_bath(g=0.8)
    space = FockSpace(4)
    state = build_state(1, 0.5, n_max=1)
    psi0 = bb.joint_initial_state(state, space, bath)
    pi_op = bb.joint_phase_shifter(space, bath)
    h = bb.build_hamiltonian(space, bath)
    tau_total, n_seg = 24.0, 32
    tau = tau_total / n_seg
    n0 = negativity_analytic(state)
    n_free = bb.negativity_trace(
        bb.propagate_free([h] * n_seg, tau, psi0), space, bath
    )
    n_bb = bb.negativity_trace(
        bb.propagate_bb([h] * n_seg, tau, psi0, pi_op), space, bath
    )
    assert n_free < 0.5 * n0
    assert n_bb > 0.9 * n0
    # pin the measured values so silent drift fails loudly
    assert_allclose(n_free / n0, 0.4568455079970216, rtol=1e-8)
    assert_allclose(n_bb / n0, 0.9907246256581633, rtol=1e-8)


def test_both_pulse_placements_protect():
    bath = small_bath(g=0.35)
    space = FockSpace(4)
    state = build_state(1, 0.5, n_max=1)
    psi0 = bb.joint_initial_state(state, space, bath)
    pi_op = bb.joint_phase_shifter(space, bath)
    h = bb.build_hamiltonian(space, bath)
    tau_total, n_seg = 16.0, 32
    tau = tau_total / n_seg
    target = bb.h0_evolved_target(state, space, bath, tau_total)
    i_free = 1.0 - bb.system_fidelity(
        bb.propagate_free([h] * n_seg, tau, psi0), target, space, bath
    )
    for propagate in (bb.propagate_bb, propagate_pulses_after):
        psi = propagate([h] * n_seg, tau, psi0, pi_op)
        i_bb = 1.0 - bb.system_fidelity(psi, target, space, bath)
        assert i_bb < 0.1 * i_free


def test_validate_bang_bang_checks_pass():
    # validate --level full runs both on block-form Hamiltonians
    for check in (validate._check_bb_identities, validate._check_bb_suppression):
        result = check()
        assert result.passed, result.detail
