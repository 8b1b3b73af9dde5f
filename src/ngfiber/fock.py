"""Dense linear algebra on a two-mode Fock space truncated by total photon number.

Basis states |n_a, n_b> with n_a + n_b <= total_cut are enumerated in a fixed
order (ascending total photon number, then ascending n_a), so every matrix
representation is reproducible across runs, and each total photon number
N = n_a + n_b is one contiguous index range.  `_block_expm` computes
propagators of Hermitian blocks already stacked by size (one stacked eigh per
size, for a whole list of matrices at once), and `_check_hermitian` checks
matrices held as flat entry vectors against a transposing permutation of
them; `bangbang` checks every block of its conserved sectors in one gather
and passes only the blocks its state occupies to `_block_expm`.  The dense
operators (`annihilation`, `number_operator`, `phase_shifter`,
`partial_transpose`, `expm`) are kept as reference implementations for the
tests and `validate`; `partial_transpose` is the dense oracle behind
`negativity.negativity_fock`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigenFailure, NonHermitianInput, ParameterError

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
TRACE_TOL = 1e-10

# Exact quarter-turn phases i**k, indexed by k mod 4.  Building the phase
# shifter from this table keeps its entries exact complex units, so the
# sign-flip identities below hold to machine zero rather than to rounding.
_QUARTER_PHASES = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)


class FockSpace:
    """Two-mode Fock space with a total-photon-number cutoff."""

    def __init__(self, total_cut: int):
        if not (isinstance(total_cut, (int, np.integer)) and total_cut >= 0):
            raise ParameterError(f"total_cut must be an integer >= 0, got {total_cut!r}")
        self.total_cut = int(total_cut)
        self.basis = tuple(
            (na, tot - na) for tot in range(self.total_cut + 1) for na in range(tot + 1)
        )
        self.dim = len(self.basis)
        assert self.dim == (self.total_cut + 1) * (self.total_cut + 2) // 2
        self._index = {pair: i for i, pair in enumerate(self.basis)}
        # occupation lookup arrays, handy for vectorized operator builds
        self.n_a = np.array([na for na, _ in self.basis])
        self.n_b = np.array([nb for _, nb in self.basis])

    def index(self, na: int, nb: int) -> int:
        return self._index[(na, nb)]

    def __eq__(self, other):
        return isinstance(other, FockSpace) and other.total_cut == self.total_cut

    def __hash__(self):
        return hash(("FockSpace", self.total_cut))

    def __repr__(self):
        return f"FockSpace(total_cut={self.total_cut})"


@dataclass
class FockOperator:
    """A dense operator together with the space it acts on."""

    space: FockSpace
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.space.dim, self.space.dim):
            raise ParameterError(
                f"matrix shape {self.matrix.shape} does not match space dim {self.space.dim}"
            )

    def dagger(self) -> "FockOperator":
        return FockOperator(self.space, self.matrix.conj().T)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        if other.space != self.space:
            raise ParameterError("operators act on different spaces")
        return FockOperator(self.space, self.matrix @ other.matrix)


def _check_mode(mode: str) -> str:
    if mode not in ("a", "b"):
        raise ParameterError(f"mode must be 'a' or 'b', got {mode!r}")
    return mode


def annihilation(space: FockSpace, mode: str) -> FockOperator:
    """Annihilation operator for one mode.

    Lowering never leaves the truncated space, so a is exact here; its
    adjoint loses amplitude only on the n_a + n_b = total_cut boundary.
    """
    _check_mode(mode)
    m = np.zeros((space.dim, space.dim), dtype=complex)
    for j, (na, nb) in enumerate(space.basis):
        if mode == "a" and na > 0:
            m[space.index(na - 1, nb), j] = np.sqrt(na)
        elif mode == "b" and nb > 0:
            m[space.index(na, nb - 1), j] = np.sqrt(nb)
    return FockOperator(space, m)


def number_operator(space: FockSpace, mode: str) -> FockOperator:
    _check_mode(mode)
    occ = space.n_a if mode == "a" else space.n_b
    return FockOperator(space, np.diag(occ.astype(complex)))


def _quarter_phases(space: FockSpace) -> np.ndarray:
    """Diagonal of the phase shifter, i**(n_a - n_b) per basis state, exact units."""
    return np.array(_QUARTER_PHASES)[(space.n_a - space.n_b) % 4]


def phase_shifter(space: FockSpace) -> FockOperator:
    """Diagonal unitary exp(i pi (n_a - n_b) / 2) with exact unit entries."""
    return FockOperator(space, np.diag(_quarter_phases(space)))


def partial_transpose(rho: FockOperator) -> FockOperator:
    """Partial transpose of a density matrix over mode b.

    <n_a n_b| rho^Tb |m_a m_b> = <n_a m_b| rho |m_a n_b>.  The transpose over
    mode a is the full transpose of this one, with the same spectrum.
    Entries whose transposed index pair falls outside the truncated basis are
    dropped; the diagonal is never affected, so the trace is preserved
    exactly.  Requires a Hermitian, unit-trace input.
    """
    space = rho.space
    if rho.hermiticity_defect() > TRACE_TOL:
        raise NonHermitianInput("partial_transpose expects a Hermitian density matrix")
    tr = complex(np.trace(rho.matrix))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ParameterError(f"partial_transpose expects unit trace, got {tr:.12g}")

    cut = space.total_cut
    lookup = np.full((cut + 1, cut + 1), -1, dtype=int)
    for i, (na, nb) in enumerate(space.basis):
        lookup[na, nb] = i
    na, nb = space.n_a, space.n_b

    src_row = lookup[na[:, None], nb[None, :]]
    src_col = lookup[na[None, :], nb[:, None]]

    valid = (src_row >= 0) & (src_col >= 0)
    out = np.zeros_like(rho.matrix)
    rows, cols = np.nonzero(valid)
    out[rows, cols] = rho.matrix[src_row[rows, cols], src_col[rows, cols]]
    return FockOperator(space, out)


def _check_hermitian(data: np.ndarray, mirror: np.ndarray) -> None:
    """Raise NonHermitianInput unless every matrix of data is Hermitian.

    data is (n_matrices, n_entries), one matrix's entries per row, and
    data[:, mirror] holds each entry's transposed partner in its place (for a
    dense matrix, the entries of its transpose; for sector blocks, the same
    blocks transposed).  The check is per matrix, max|m - m+| over all its
    entries against HERMITIAN_TOL * max(1, max|m|); entries left out are zero
    in m and in m+, so this is the dense defect.  A NaN anywhere fails it.
    """
    asym = abs(data - data[:, mirror].conj()).max(axis=1)
    scale = abs(data).max(axis=1)
    bad = np.flatnonzero(~(asym <= HERMITIAN_TOL * np.maximum(1.0, scale)))
    if bad.size:
        raise NonHermitianInput(
            f"expm requires a Hermitian generator (defect {asym[bad[0]]:.3e} in matrix {bad[0]})"
        )


def _block_expm(stacks, t: float) -> list:
    """exp(-i m t) per block, for stacks of Hermitian blocks.

    Each stack is (n_matrices, n_blocks, size, size): the blocks of one size
    for every matrix in a list.  Returns the propagators in the same shapes.
    Only the blocks passed in are eigensolved; the caller checks their
    Hermiticity (`_check_hermitian`), over as many blocks as it needs.  The
    unitarity check runs per stack, on every propagator block formed, and a
    NaN fails it.
    """
    out = []
    for sub in stacks:
        try:
            evals, evecs = np.linalg.eigh(sub)
        except np.linalg.LinAlgError as exc:
            raise EigenFailure(f"eigendecomposition failed: {exc}") from exc
        blocks = (evecs * np.exp(-1j * evals * t)[..., None, :]) @ evecs.conj().swapaxes(-1, -2)
        size = sub.shape[-1]
        defect = float(np.max(np.abs(blocks.conj().swapaxes(-1, -2) @ blocks - np.eye(size))))
        if not defect <= UNITARY_TOL:
            raise EigenFailure(f"propagator unitarity defect {defect:.3e}")
        out.append(blocks)
    return out


def expm_hermitian(matrix: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-i * matrix * t) of a Hermitian matrix, as one dense block.

    The test oracle for propagation: the whole matrix goes through
    `_check_hermitian`, against its transpose, and `_block_expm`, so both
    checks apply to it.
    """
    size = matrix.shape[-1]
    _check_hermitian(matrix.reshape(1, -1), np.arange(size * size).reshape(size, size).T.ravel())
    return _block_expm([matrix[None, None]], t)[0][0, 0]


def expm(h: FockOperator, t: float) -> FockOperator:
    """Unitary exp(-i h t) for a Hermitian Fock-space generator."""
    return FockOperator(h.space, expm_hermitian(h.matrix, t))
