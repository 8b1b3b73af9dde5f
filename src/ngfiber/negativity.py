"""Entanglement negativity via the positive-partial-transpose criterion.

For a manifold state the partially transposed density matrix decomposes into
1x1 blocks (the diagonal weights) and 2x2 blocks contributing eigenvalue
pairs +/- |rho_nm|, so the negativity has a closed series form.  The numeric
route below never uses that pair structure.  It relies only on the fact that
a state supported on the n_a - n_b = -p manifold has a partial transpose that
conserves the total photon number N = n_a + n_b, so rho^PT is block diagonal
in N.  Each block is assembled straight from the manifold matrix and handed
to a Hermitian eigensolver, which makes the route an independent cross-check
of the series.  The same fact holds for any two-mode density matrix that
conserves n_a - n_b, such as the reduced state of a bang-bang run: its
partial transpose (`fock.partial_transpose`) is eigensolved one N block at a
time.  The dense route (transpose one mode index, diagonalize the whole
space, `negativity_fock`) is kept as the test oracle.

Convention: the negativity returned everywhere in this module is the trace
norm defect ||rho^PT||_1 - 1, i.e. twice the absolute sum of the negative
partial-transpose eigenvalues.  For a pure manifold state this equals the
ordered double sum over n != m of |c_n||c_m|, which is the series all the
decohered variants in the channel module reduce to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fock import TRACE_TOL, FockOperator, partial_transpose
from .states import ManifoldDensityMatrix, NonGaussianState


@dataclass
class PptSpectrum:
    """Analytic eigenvalue content of the partially transposed pure state."""

    diagonal: np.ndarray  # 1x1 blocks, one per manifold index
    pair_indices: np.ndarray  # (n, m) with n < m
    pair_magnitudes: np.ndarray  # each contributes eigenvalues +mag and -mag

    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, sorted ascending (zeros from the embedding omitted)."""
        vals = np.concatenate([self.diagonal, self.pair_magnitudes, -self.pair_magnitudes])
        return np.sort(vals)


def ppt_spectrum_analytic(state: NonGaussianState) -> PptSpectrum:
    """Partial-transpose spectrum from the state's coefficient vector."""
    a = state.abs_coeffs()
    diag = a * a
    n = state.n_max + 1
    iu = np.triu_indices(n, k=1)
    mags = a[iu[0]] * a[iu[1]]
    return PptSpectrum(diag, np.column_stack(iu), mags)


def negativity_analytic(state: NonGaussianState) -> float:
    """Closed-form negativity of the pure manifold state.

    Equals sum over ordered pairs n != m of |c_n||c_m|, computed as
    (sum |c_n|)^2 - sum |c_n|^2 over the stored coefficient range.  The
    truncation matches the state's own, so this and negativity_numeric agree
    to eigensolver precision.
    """
    a = state.abs_coeffs()
    s1 = float(a.sum())
    return s1 * s1 - float((a * a).sum())


def negativity_fock(rho: FockOperator) -> float:
    """Negativity of a full two-mode density matrix: dense PPT eigensolve.

    Transposes mode b: the mode-a partial transpose is its full transpose,
    with the same spectrum.  Returns ||rho^PT||_1 - trace =
    sum(|lambda| - lambda), twice the absolute sum of the negative
    eigenvalues (see the module docstring).  Computed
    without a magnitude threshold: genuinely zero eigenvalues cancel in
    |lambda| - lambda up to rounding, while a threshold would silently drop
    real small coherence pairs.
    """
    eigs = np.linalg.eigvalsh(partial_transpose(rho).matrix)
    return float(np.abs(eigs).sum() - eigs.sum())


def _negativity_fock_blocked(rho: FockOperator) -> float:
    """negativity_fock of a two-mode density matrix that conserves n_a - n_b.

    Its partial transpose has no entry between different N = n_a + n_b, so
    each N block (a contiguous index range) is eigensolved on its own.  An
    entry between different N above TRACE_TOL means rho mixes n_a - n_b and
    raises ParameterError; there is no dense fallback.
    """
    pt = partial_transpose(rho).matrix
    space = rho.space
    total = space.n_a + space.n_b
    leak = np.abs(pt[total[:, None] != total[None, :]]).max(initial=0.0)
    if leak > TRACE_TOL:
        raise ParameterError(
            f"density matrix mixes different n_a - n_b (partial transpose entry {leak:.3e} "
            f"between photon numbers)"
        )
    ends = np.arange(space.total_cut + 2) * np.arange(1, space.total_cut + 3) // 2
    eigs = np.concatenate([np.linalg.eigvalsh(pt[a:b, a:b]) for a, b in zip(ends, ends[1:])])
    return float(np.abs(eigs).sum() - eigs.sum())


def _pt_blocks(rho: ManifoldDensityMatrix):
    """Nonzero total-photon-number blocks of the partial transpose over mode b.

    <n_a, N - n_a| rho^Tb |m_a, N - m_a> = <n_a, N - m_a| rho |m_a, N - n_a>,
    which is the manifold entry rho_{n_a, m_a} when N - n_a = m_a + p and 0
    otherwise.  So block N holds rho_{n_a, N - p - n_a} at row n_a and
    column N - p - n_a; rows with either index outside 0..n_max are zero and
    are left out.  Yields one Hermitian matrix per N = p .. 2 n_max + p.
    """
    for total in range(rho.p, 2 * rho.n_max + rho.p + 1):
        lo = max(0, total - rho.p - rho.n_max)
        hi = min(rho.n_max, total - rho.p)
        rows = np.arange(lo, hi + 1)
        block = np.zeros((rows.size, rows.size), dtype=complex)
        block[rows - lo, hi - rows] = rho.rho[rows, hi + lo - rows]
        yield block


def negativity_numeric(rho: ManifoldDensityMatrix) -> float:
    """Negativity by a partial-transpose eigensolve, blocked by total photon number.

    Sums |lambda| - lambda over the eigenvalues of every block that
    _pt_blocks assembles from the manifold matrix.  The blocks are exact, not
    an approximation: a manifold state commutes with n_a - n_b, so its
    partial transpose commutes with n_a + n_b and has no entry between
    different blocks.  The full space is never built; memory is O(n_max^2).
    The result holds for any two-mode truncation total_cut >= 2 n_max + p,
    the largest total photon number rho occupies: a larger cut only adds
    empty blocks.
    """
    rho.validate()
    eigs = np.concatenate([np.linalg.eigvalsh(block) for block in _pt_blocks(rho)])
    return float(np.abs(eigs).sum() - eigs.sum())
