"""Brute-force propagation of the system plus a small discretized bath.

The joint Hamiltonian couples the two fiber modes to a handful of truncated
oscillator modes through a pair-exchange (Raman) term g (a+ b B + a b+ B+)
and number-diagonal dephasing terms (G_a n_a + G_b n_b) B+B.  It is built from
occupation labels and conserves n_a + n_b and n_a + sum_i s_i, so it is
block diagonal.  Propagation decomposes the distinct segment Hamiltonians once,
over the blocks of their joint pattern (`fock._block_expm`), and advances the
state block by block; no dense propagator is formed.  Interleaving the
quarter-cycle phase shifter Pi = exp(i pi (n_a - n_b)/2), a phase vector,
between segment propagators flips the sign of the pair-exchange term each
segment, so its first-order effect cancels over segment pairs while the
manifold-preserving terms accumulate unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionBudgetExceeded, DimensionMismatch, ParameterError
from .fock import FockOperator, FockSpace, _block_expm, _quarter_phases
from .negativity import negativity_fock
from .states import NonGaussianState, embed

DIMENSION_BUDGET = 4096


@dataclass
class ToyBath:
    """A few discrete oscillator modes standing in for the phonon continuum."""

    num_modes: int
    frequencies: tuple  # rad/s per mode
    raman_couplings: tuple  # g_i, rad/s
    dephasing_rates_a: tuple  # Gamma_a^i, rad/s
    dephasing_rates_b: tuple  # Gamma_b^i, rad/s
    s_cut: int = 2  # phonon number cutoff per mode
    omega_a: float = 0.0  # system mode frequencies for the free part
    omega_b: float = 0.0

    def __post_init__(self):
        if self.num_modes < 1:
            raise ParameterError("num_modes must be >= 1")
        if self.s_cut < 1:
            raise ParameterError("s_cut must be >= 1")
        for name in ("frequencies", "raman_couplings", "dephasing_rates_a", "dephasing_rates_b"):
            vals = tuple(getattr(self, name))
            setattr(self, name, vals)
            if len(vals) != self.num_modes:
                raise ParameterError(f"{name} must have num_modes = {self.num_modes} entries")

    @property
    def mode_dim(self) -> int:
        return self.s_cut + 1

    def bath_dim(self) -> int:
        return self.mode_dim ** self.num_modes


@dataclass
class SegmentProfile:
    """Per-segment multiplicative perturbations of the couplings (mean 1)."""

    num_segments: int
    delta: float  # segment length, m (bookkeeping only)
    g_scales: np.ndarray  # (num_segments, num_modes)
    dephasing_scales: np.ndarray  # (num_segments, num_modes)
    seed: int = 0

    def __post_init__(self):
        if self.num_segments < 2 or self.num_segments % 2 != 0:
            raise ParameterError("num_segments must be an even integer >= 2")
        self.g_scales = np.asarray(self.g_scales, dtype=float)
        self.dephasing_scales = np.asarray(self.dephasing_scales, dtype=float)

    @classmethod
    def homogeneous(cls, num_segments: int, delta: float, num_modes: int) -> "SegmentProfile":
        ones = np.ones((num_segments, num_modes))
        return cls(num_segments, delta, ones, ones.copy())

    @classmethod
    def generate(
        cls, num_segments: int, delta: float, rel_std: float, seed: int, num_modes: int
    ) -> "SegmentProfile":
        """Seeded i.i.d. Gaussian perturbations with mean 1 and std rel_std."""
        rng = np.random.default_rng(seed)
        g = 1.0 + rel_std * rng.standard_normal((num_segments, num_modes))
        d = 1.0 + rel_std * rng.standard_normal((num_segments, num_modes))
        return cls(num_segments, delta, g, d, seed=seed)


def _joint_occupations(space: FockSpace, bath: ToyBath):
    """n_a, n_b and s_i (one row per mode, s_0 the leading bath digit) per joint index."""
    strides = bath.mode_dim ** np.arange(bath.num_modes - 1, -1, -1)
    s = np.tile(np.arange(bath.bath_dim()) // strides[:, None] % bath.mode_dim, space.dim)
    return np.repeat(space.n_a, bath.bath_dim()), np.repeat(space.n_b, bath.bath_dim()), s


def joint_dim(space: FockSpace, bath: ToyBath) -> int:
    return space.dim * bath.bath_dim()


def check_budget(space: FockSpace, bath: ToyBath, budget: int = DIMENSION_BUDGET) -> int:
    dim = joint_dim(space, bath)
    if dim > budget:
        raise DimensionBudgetExceeded(f"joint dimension {dim} exceeds budget {budget}")
    return dim


def build_hamiltonian(
    space: FockSpace,
    bath: ToyBath,
    segment: int = 0,
    profile: SegmentProfile | None = None,
) -> np.ndarray:
    """Dense Hermitian joint Hamiltonian for one fiber segment.

    H = omega_a n_a + omega_b n_b + sum_i Omega_i B_i+ B_i
        + sum_i g_i (a+ b B_i + a b+ B_i+)
        + sum_i (G_a^i n_a + G_b^i n_b) B_i+ B_i

    With a profile, the couplings of the given segment index are scaled by
    its perturbation factors.
    """
    check_budget(space, bath)
    n_a, n_b, s = _joint_occupations(space, bath)
    diag = bath.omega_a * n_a + bath.omega_b * n_b
    h = np.zeros((n_a.size, n_a.size), dtype=complex)
    for i in range(bath.num_modes):
        g, ga, gb = bath.raman_couplings[i], bath.dephasing_rates_a[i], bath.dephasing_rates_b[i]
        if profile is not None:
            d = profile.dephasing_scales[segment, i]
            g, ga, gb = g * profile.g_scales[segment, i], ga * d, gb * d
        diag = diag + (bath.frequencies[i] + ga * n_a + gb * n_b) * s[i]
        # a+ b B_i: next system index of the same total, one quantum of mode i fewer
        src = np.flatnonzero((n_b > 0) & (s[i] > 0))
        dst = src + bath.bath_dim() - bath.mode_dim ** (bath.num_modes - 1 - i)
        amp = g * (np.sqrt(n_a[src] + 1) * np.sqrt(n_b[src]) * np.sqrt(s[i, src]))
        h[dst, src] = h[src, dst] = amp
    np.fill_diagonal(h, diag)
    return h


def joint_phase_shifter(space: FockSpace, bath: ToyBath) -> np.ndarray:
    """Pi on the system, identity on the bath, as a phase vector: apply as pi_op * psi."""
    return np.repeat(_quarter_phases(space), bath.bath_dim())


def _propagate(h_list, tau: float, psi: np.ndarray, pi_op=None, pulses_after=False):
    """Advance psi through the segments, block by block, optionally pulsing each one.

    Each distinct Hamiltonian (by identity) is decomposed once, over the blocks
    of the distinct ones' joint pattern.  psi and the pulse phases are permuted
    into block order once; each segment multiplies every size group in place.
    """
    distinct = {}
    for h in h_list:
        if h.shape[0] != psi.shape[0]:
            raise DimensionMismatch("state and Hamiltonian dimensions differ")
        distinct.setdefault(id(h), (len(distinct), h))
    if not distinct:
        return psi
    groups = _block_expm([h for _, h in distinct.values()], tau)
    order = np.concatenate([idx.ravel() for idx, _ in groups])
    x = psi[order]
    phases = None if pi_op is None else pi_op[order]
    views, start = [], 0
    for idx, _ in groups:
        views.append(x[start : start + idx.size].reshape(*idx.shape, 1))
        start += idx.size
    for h in h_list:
        k = distinct[id(h)][0]
        if phases is not None and not pulses_after:
            x *= phases
        for view, (_, blocks) in zip(views, groups):
            view[...] = np.matmul(blocks[k], view)
        if phases is not None and pulses_after:
            x *= phases
    out = np.empty_like(x)
    out[order] = x
    return out


def propagate_free(h_list, tau: float, psi0: np.ndarray) -> np.ndarray:
    """Apply the segment propagators in order with no pulses.

    No dense propagator is formed: the segments are advanced per block of their
    Hamiltonians' joint nonzero pattern (`fock._block_expm`).
    """
    return _propagate(list(h_list), tau, np.asarray(psi0, dtype=complex))


def propagate_bb(
    h_list,
    tau: float,
    psi0: np.ndarray,
    pi_op: np.ndarray,
    pulses_after: bool = False,
) -> np.ndarray:
    """Segment propagation with interleaved phase-shifter pulses.

    The default convention places a pulse before each segment,
    U = E_N Pi ... E_2 Pi E_1 Pi; with pulses_after=True the pulse follows
    each segment instead (strictly paired variant).  Both cancel the
    pair-exchange coupling to first order; they differ only at the walk's
    boundary.  Requires an even number of segments; pi_op is a phase vector.
    The distinct segment Hamiltonians share one blocked eigendecomposition and
    psi is advanced block by block, so no dense propagator is formed.
    """
    n = len(h_list)
    if n < 2 or n % 2 != 0:
        raise ParameterError("propagate_bb needs an even number of segments >= 2")
    psi = np.asarray(psi0, dtype=complex)
    if pi_op.shape[0] != psi.shape[0]:
        raise DimensionMismatch("pulse operator and state dimensions differ")
    return _propagate(h_list, tau, psi, pi_op, pulses_after)


def reduced_system_matrix(
    psi_joint: np.ndarray, space: FockSpace, bath: ToyBath
) -> np.ndarray:
    """Trace the bath out of a joint pure state."""
    dim = joint_dim(space, bath)
    if psi_joint.shape != (dim,):
        raise DimensionMismatch(
            f"joint state has shape {psi_joint.shape}, expected ({dim},)"
        )
    m = psi_joint.reshape(space.dim, bath.bath_dim())
    return m @ m.conj().T


def negativity_trace(psi_joint: np.ndarray, space: FockSpace, bath: ToyBath) -> float:
    """Negativity of the reduced two-mode state of a joint pure state."""
    rho = reduced_system_matrix(psi_joint, space, bath)
    return negativity_fock(FockOperator(space, rho))


def system_fidelity(
    psi_joint: np.ndarray,
    target: NonGaussianState | np.ndarray,
    space: FockSpace,
    bath: ToyBath,
) -> float:
    """<target| rho_system |target> for a joint pure state.

    The target may be a manifold state (embedded here) or a ready-made
    full-space vector.
    """
    if isinstance(target, NonGaussianState):
        target = embed(target, space)
    rho = reduced_system_matrix(psi_joint, space, bath)
    return float(np.real(target.conj() @ rho @ target))


def dfs_check(state: NonGaussianState, space: FockSpace) -> float:
    """Norm of (n_a - n_b + p) |psi>: zero iff the state sits on the manifold."""
    vec = embed(state, space)
    diff = (space.n_a - space.n_b + state.p) * vec
    return float(np.linalg.norm(diff))


def h0_evolved_target(
    state: NonGaussianState, space: FockSpace, bath: ToyBath, t: float
) -> np.ndarray:
    """System vector after bare evolution: phases from omega_a n_a + omega_b n_b.

    This is the reference for infidelity measurements: the couplings are what
    the pulse sequence is supposed to cancel, so the protected evolution is
    compared against the coupling-free one rather than the frozen initial
    state (whose overlap oscillates at the deterministic mode frequencies).
    """
    vec = embed(state, space)
    phases = np.exp(-1j * t * (bath.omega_a * space.n_a + bath.omega_b * space.n_b))
    return phases * vec


def bath_ground_state(bath: ToyBath) -> np.ndarray:
    vec = np.zeros(bath.bath_dim(), dtype=complex)
    vec[0] = 1.0
    return vec


def joint_initial_state(
    state: NonGaussianState, space: FockSpace, bath: ToyBath
) -> np.ndarray:
    """System state tensored with the bath ground state."""
    return np.kron(embed(state, space), bath_ground_state(bath))
