"""Brute-force propagation of the system plus a small discretized bath.

The joint Hamiltonian couples the two fiber modes to a handful of truncated
oscillator modes through a pair-exchange (Raman) term g (a+ b B + a b+ B+)
and number-diagonal dephasing terms (G_a n_a + G_b n_b) B+B.  It conserves
n_a + n_b and n_a + sum_i s_i, so it is built straight into one block per
sector of those two numbers (`SectorHamiltonian`), from a layout computed once
per (total_cut, num_modes, s_cut); no dense joint matrix exists.  A block
where the state is zero stays zero, so propagation eigensolves only the
blocks the initial state occupies, of each distinct segment Hamiltonian, one
stacked eigh per block size (`fock._block_expm`), and advances the state
block by block; no dense propagator is formed either.  A state from
`joint_initial_state` (bath in its ground state) occupies one block per
system amplitude, n_max + 1 of them.  Interleaving the
quarter-cycle phase shifter Pi = exp(i pi (n_a - n_b)/2), a phase vector,
between segment propagators flips the sign of the pair-exchange term each
segment, so its first-order effect cancels over segment pairs while the
manifold-preserving terms accumulate unchanged.  Pi is diagonal and
conserves both sector numbers, so a pulsed segment is the one unitary E Pi,
and its phases are multiplied into the columns of each propagator block.

In every bath configuration s of a state propagated from
`joint_initial_state`, n_a - n_b = -p - 2 sum_i s_i, so the reduced two-mode
state conserves n_a - n_b, and `negativity_trace` eigensolves the blocks of
its partial transpose that `negativity` builds; no dense one is formed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionBudgetExceeded, DimensionMismatch, ParameterError
from .fock import (
    TRACE_TOL,
    UNITARY_TOL,
    FockSpace,
    _block_expm,
    _check_hermitian,
    _quarter_phases,
)
from .negativity import _negativity_blocked
from .states import NonGaussianState, embed

# Largest joint dimension.  It bounds psi and the sector blocks of H (at most
# dim * (largest sector) entries: 0.57 MB at dim 3696), not a dim^2 array.
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
        for name in ("num_modes", "s_cut"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= 1):
                raise ParameterError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("frequencies", "raman_couplings", "dephasing_rates_a", "dephasing_rates_b"):
            vals = tuple(getattr(self, name))
            setattr(self, name, vals)
            if len(vals) != self.num_modes:
                raise ParameterError(f"{name} must have num_modes = {self.num_modes} entries")
            if not np.all(np.isfinite(vals)):
                raise ParameterError(f"{name} must be finite, got {vals}")
        if not (np.isfinite(self.omega_a) and np.isfinite(self.omega_b)):
            raise ParameterError(
                f"omega_a and omega_b must be finite, got {self.omega_a}, {self.omega_b}"
            )

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

    def __post_init__(self):
        if self.num_segments < 2 or self.num_segments % 2 != 0:
            raise ParameterError("num_segments must be an even integer >= 2")
        self.g_scales = np.asarray(self.g_scales, dtype=float)
        self.dephasing_scales = np.asarray(self.dephasing_scales, dtype=float)
        if not (np.all(np.isfinite(self.g_scales)) and np.all(np.isfinite(self.dephasing_scales))):
            raise ParameterError("segment scales must be finite")

    @classmethod
    def generate(
        cls, num_segments: int, delta: float, rel_std: float, seed: int, num_modes: int
    ) -> "SegmentProfile":
        """Seeded i.i.d. Gaussian perturbations with mean 1 and std rel_std."""
        rng = np.random.default_rng(seed)
        g = 1.0 + rel_std * rng.standard_normal((num_segments, num_modes))
        d = 1.0 + rel_std * rng.standard_normal((num_segments, num_modes))
        return cls(num_segments, delta, g, d)


@dataclass(frozen=True, eq=False)
class _SectorLayout:
    """Where each entry of a joint Hamiltonian sits in its block form."""

    sector: np.ndarray  # per joint index: the smallest joint index of its sector
    groups: tuple  # per block size: (joint indices (n_blocks, size), offset in the flat vector)
    order: np.ndarray  # joint index at each position of block order
    n_a: np.ndarray  # occupations in block order
    n_b: np.ndarray
    s: np.ndarray  # (num_modes, dim), s_0 the leading bath digit
    diag: np.ndarray  # flat position of each diagonal entry, in block order
    mirror: np.ndarray  # per flat position (block, i, j): the flat position of (block, j, i)
    exchange: tuple  # per mode: sqrt((n_a+1) n_b s_i), positions of <dst|H|src> and <src|H|dst>
    size: int  # length of the flat vector


def _size_groups(labels: np.ndarray) -> list:
    """The indices of each label's block, one (n_blocks, size) array per block size.

    Sizes ascend; within a size, blocks follow their labels, and each block
    lists its indices in ascending order.  Labels are non-negative integers.
    """
    sizes = np.bincount(labels)[labels]  # block size at every index
    order = np.lexsort((labels, sizes))  # by block size, then block
    return [
        order[sizes[order] == size].reshape(-1, size) for size in np.flatnonzero(np.bincount(sizes))
    ]


@functools.cache
def _sector_layout(total_cut: int, num_modes: int, s_cut: int) -> _SectorLayout:
    """Block form shared by every Hamiltonian on one joint space.

    H conserves N = n_a + n_b and M = n_a + sum_i s_i, so each sector (N, M) is
    one block, labelled by its smallest joint index and grouped by size as
    `_size_groups` orders them.  The flat vector holds the blocks
    row-major, group after group.  A sector may split into several components
    (N = 0, or a segment whose g is 0); its block is then merely sparser.
    """
    space = FockSpace(total_cut)
    mode_dim = s_cut + 1
    bath_dim = mode_dim**num_modes
    strides = mode_dim ** np.arange(num_modes - 1, -1, -1)
    n_a = np.repeat(space.n_a, bath_dim)
    n_b = np.repeat(space.n_b, bath_dim)
    s = np.tile(np.arange(bath_dim) // strides[:, None] % mode_dim, space.dim)
    dim = n_a.size
    code = (n_a + n_b) * (total_cut + num_modes * s_cut + 1) + n_a + s.sum(axis=0)
    first = np.full(code.max() + 1, dim)
    np.minimum.at(first, code, np.arange(dim))
    sector = first[code]
    idx_groups = _size_groups(sector)
    # per joint index: flat start of its block, its place in the block, the block size
    start, local, width = (np.empty(dim, dtype=np.intp) for _ in range(3))
    groups, mirrors, offset = [], [], 0
    for idx in idx_groups:
        n_blocks, size = idx.shape
        start[idx] = offset + size * size * np.arange(n_blocks)[:, None]
        local[idx] = np.arange(size)
        width[idx] = size
        groups.append((idx, offset))
        flat = offset + np.arange(idx.size * size).reshape(n_blocks, size, size)
        mirrors.append(flat.swapaxes(1, 2).ravel())
        offset += idx.size * size

    def position(row, col):
        return start[row] + local[row] * width[row] + local[col]

    exchange = []
    for i in range(num_modes):
        # a+ b B_i: next system index of the same total, one quantum of mode i fewer
        src = np.flatnonzero((n_b > 0) & (s[i] > 0))
        dst = src + bath_dim - strides[i]
        amp = np.sqrt(n_a[src] + 1) * np.sqrt(n_b[src]) * np.sqrt(s[i, src])
        exchange.append((amp, position(dst, src), position(src, dst)))
    order = np.concatenate([idx.ravel() for idx in idx_groups])
    mirror = np.concatenate(mirrors)
    layout = _SectorLayout(
        sector, tuple(groups), order, n_a[order], n_b[order], s[:, order],
        position(order, order), mirror, tuple(exchange), offset,
    )
    # every Hamiltonian on this space shares these arrays
    for arr in (sector, order, layout.n_a, layout.n_b, layout.s, layout.diag, mirror,
                *idx_groups, *(a for mode in exchange for a in mode)):
        arr.flags.writeable = False
    return layout


@dataclass(frozen=True, eq=False)
class SectorHamiltonian:
    """A joint Hamiltonian as its blocks over the conserved sectors.

    `data` holds every block row-major, blocks of one size together
    (`layout.groups`); entries outside the blocks are zero.  `toarray()`
    scatters it into a dense matrix, for tests and oracles.
    """

    layout: _SectorLayout
    data: np.ndarray

    @property
    def shape(self) -> tuple:
        dim = self.layout.order.size
        return dim, dim

    def entries(self) -> tuple:
        """(rows, cols): the joint indices of each entry of `data`."""
        rows, cols = [], []
        for idx, _ in self.layout.groups:
            rows.append(np.repeat(idx, idx.shape[1], axis=1).ravel())
            cols.append(np.tile(idx, idx.shape[1]).ravel())
        return np.concatenate(rows), np.concatenate(cols)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        out[self.entries()] = self.data
        return out


def joint_dim(space: FockSpace, bath: ToyBath) -> int:
    return space.dim * bath.bath_dim()


def check_budget(space: FockSpace, bath: ToyBath) -> int:
    dim = joint_dim(space, bath)
    if dim > DIMENSION_BUDGET:
        raise DimensionBudgetExceeded(f"joint dimension {dim} exceeds budget {DIMENSION_BUDGET}")
    return dim


def build_hamiltonian(
    space: FockSpace,
    bath: ToyBath,
    segment: int = 0,
    profile: SegmentProfile | None = None,
) -> SectorHamiltonian:
    """Hermitian joint Hamiltonian for one fiber segment, in sector-block form.

    H = omega_a n_a + omega_b n_b + sum_i Omega_i B_i+ B_i
        + sum_i g_i (a+ b B_i + a b+ B_i+)
        + sum_i (G_a^i n_a + G_b^i n_b) B_i+ B_i

    With a profile, the couplings of the given segment index are scaled by
    its perturbation factors.  Returns a `SectorHamiltonian`, not a dense
    matrix: one flat vector of the blocks of the conserved sectors, filled
    with a few vector operations per mode; `toarray()` gives the dense H.
    """
    check_budget(space, bath)
    if profile is not None:
        shape = (profile.num_segments, bath.num_modes)
        if profile.g_scales.shape != shape or profile.dephasing_scales.shape != shape:
            raise ParameterError(
                f"profile scales must have shape {shape}, got {profile.g_scales.shape} "
                f"and {profile.dephasing_scales.shape}"
            )
        if not (isinstance(segment, (int, np.integer)) and 0 <= segment < profile.num_segments):
            raise ParameterError(
                f"segment {segment} is outside [0, {profile.num_segments}) of the profile"
            )
    layout = _sector_layout(space.total_cut, bath.num_modes, bath.s_cut)
    n_a, n_b, s = layout.n_a, layout.n_b, layout.s
    diag = bath.omega_a * n_a + bath.omega_b * n_b
    data = np.zeros(layout.size, dtype=complex)
    for i, (amp, lower, upper) in enumerate(layout.exchange):
        g, ga, gb = bath.raman_couplings[i], bath.dephasing_rates_a[i], bath.dephasing_rates_b[i]
        if profile is not None:
            d = profile.dephasing_scales[segment, i]
            g, ga, gb = g * profile.g_scales[segment, i], ga * d, gb * d
        diag = diag + (bath.frequencies[i] + ga * n_a + gb * n_b) * s[i]
        data[lower] = data[upper] = g * amp
    data[layout.diag] = diag
    return SectorHamiltonian(layout, data)


def joint_phase_shifter(space: FockSpace, bath: ToyBath) -> np.ndarray:
    """Pi on the system, identity on the bath, as a phase vector: apply as pi_op * psi."""
    check_budget(space, bath)
    return np.repeat(_quarter_phases(space), bath.bath_dim())


def _vector(name: str, value) -> np.ndarray:
    vec = np.asarray(value, dtype=complex)
    if vec.ndim != 1:
        raise ParameterError(f"{name} must be a 1-D vector, got shape {vec.shape}")
    return vec


def _propagate(h_list, tau: float, psi: np.ndarray, pi_op=None):
    """Advance psi through the segments block by block, pulsing before each if pi_op is given.

    Every H conserves its sectors, so a block where psi is zero stays zero:
    only the blocks psi occupies are eigensolved, pulsed and advanced, and
    every other entry is returned as psi's exact zero.  The Hermiticity check
    still covers every block of each distinct H (by identity): their flat
    vectors are stacked and compared with their layout's mirror in one
    gather, and the occupied blocks of each size group are eigensolved at
    once.  Pi is diagonal within every block, so each pulsed
    segment is the one unitary E Pi: the pulse phases scale the columns of
    every propagator block once.  psi is permuted into block order once;
    each segment multiplies the occupied blocks of every size group.
    """
    if not math.isfinite(tau):
        raise ParameterError(f"tau must be finite, got {tau}")
    distinct = {}
    for h in h_list:
        if not isinstance(h, SectorHamiltonian):
            raise ParameterError(
                f"segment Hamiltonians must come from build_hamiltonian, got {type(h).__name__}"
            )
        if h.shape[0] != psi.shape[0]:
            raise DimensionMismatch("state and Hamiltonian dimensions differ")
        distinct.setdefault(id(h), (len(distinct), h))
    if not distinct:
        return psi
    layout = h_list[0].layout
    if any(h.layout is not layout for _, h in distinct.values()):
        raise DimensionMismatch("segment Hamiltonians act on different joint spaces")
    data = np.stack([h.data for _, h in distinct.values()])
    _check_hermitian(data, layout.mirror)
    stacks = [
        data[:, off : off + idx.size * idx.shape[1]].reshape(len(distinct), *idx.shape, -1)
        for idx, off in layout.groups
    ]
    x = psi[layout.order]
    # per size group psi occupies: its amplitudes, the occupied block numbers,
    # their joint indices and their stacked H blocks
    live, start = [], 0
    for (idx, _), stack in zip(layout.groups, stacks):
        part = x[start : start + idx.size].reshape(*idx.shape, 1)
        start += idx.size
        occ = np.flatnonzero(part.any(axis=(1, 2)))
        if occ.size:
            live.append((part, occ, idx[occ], stack[:, occ]))
    props = _block_expm([stack for *_, stack in live], tau)
    if pi_op is not None:
        props = [w * pi_op[idx][:, None, :] for w, (_, _, idx, _) in zip(props, live)]
    amps = [part[occ] for part, occ, *_ in live]
    for h in h_list:
        k = distinct[id(h)][0]
        for j, blocks in enumerate(props):
            amps[j] = np.matmul(blocks[k], amps[j])
    for (part, occ, *_), amp in zip(live, amps):
        part[occ] = amp
    out = np.empty_like(x)
    out[layout.order] = x
    return out


def propagate_free(h_list, tau: float, psi0: np.ndarray) -> np.ndarray:
    """Apply the segment propagators in order with no pulses.

    h_list holds `SectorHamiltonian`s from `build_hamiltonian`; anything else
    (a dense ndarray included) raises ParameterError, as do a non-finite tau
    and a psi0 that is not a 1-D vector.  Only the sector blocks psi0
    occupies are eigensolved (`fock._block_expm`) and advanced, block by
    block; every block of every H is checked for Hermiticity.  No dense
    joint matrix and no dense propagator are formed.
    """
    return _propagate(list(h_list), tau, _vector("psi0", psi0))


def propagate_bb(h_list, tau: float, psi0: np.ndarray, pi_op: np.ndarray) -> np.ndarray:
    """Segment propagation with a phase-shifter pulse before each segment.

    U = E_N Pi ... E_2 Pi E_1 Pi.  Pi is applied as part of each segment
    unitary E Pi, not as a separate step.  Pulses placed after each segment
    instead give Pi U Pi^dag, so that train is
    pi_op * propagate_bb(h_list, tau, pi_op.conj() * psi0, pi_op).  Both
    cancel the pair-exchange coupling to first order.  Requires an even
    number of segments, a finite tau, and psi0 and pi_op as 1-D vectors of
    the joint dimension, pi_op an ndarray with every |pi| 1 within
    UNITARY_TOL (a phase vector); anything else raises ParameterError.
    h_list holds `SectorHamiltonian`s from `build_hamiltonian` (a dense
    ndarray raises ParameterError).  The sector blocks psi0 occupies are eigensolved, one
    stacked eigh per block size over the distinct H, and psi is advanced
    block by block, so neither a dense joint matrix nor a dense propagator is
    formed.
    """
    n = len(h_list)
    if n < 2 or n % 2 != 0:
        raise ParameterError("propagate_bb needs an even number of segments >= 2")
    if not isinstance(pi_op, np.ndarray):
        raise ParameterError(f"pi_op must be a phase vector array, got {type(pi_op).__name__}")
    psi = _vector("psi0", psi0)
    pi = _vector("pi_op", pi_op)
    if pi.shape[0] != psi.shape[0]:
        raise DimensionMismatch("pulse operator and state dimensions differ")
    if not np.all(abs(abs(pi) - 1.0) <= UNITARY_TOL):
        raise ParameterError("pi_op must be a phase vector: every |pi| must be 1")
    return _propagate(h_list, tau, psi, pi)


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
    """Negativity of the reduced two-mode state of a joint pure state.

    Its partial transpose is eigensolved one total-photon-number block at a
    time (see the module docstring).  A psi_joint whose norm is not 1, or
    whose reduced state mixes different n_a - n_b, raises ParameterError.
    """
    rho = reduced_system_matrix(psi_joint, space, bath)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ParameterError(f"negativity_trace expects unit trace, got {tr:.12g}")
    return _negativity_blocked(rho, space.n_a, space.n_b)


def system_fidelity(
    psi_joint: np.ndarray, target: np.ndarray, space: FockSpace, bath: ToyBath
) -> float:
    """<target| rho_system |target> for a joint pure state.

    The target is a full-space system vector; embed(state, space) gives one
    for a manifold state.
    """
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
    check_budget(space, bath)
    return np.kron(embed(state, space), bath_ground_state(bath))
