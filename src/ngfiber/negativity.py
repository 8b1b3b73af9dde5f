"""Entanglement negativity via the positive-partial-transpose criterion.

For a manifold state the partially transposed density matrix decomposes into
1x1 blocks (the diagonal weights) and 2x2 blocks contributing eigenvalue
pairs +/- |rho_nm|, so the negativity has a closed series form.  The numeric
route below never uses that pair structure.  It relies only on the fact that
a state supported on the n_a - n_b = -p manifold has a partial transpose that
conserves the total photon number N = n_a + n_b, so rho^PT is block diagonal
in N.  Each block is assembled straight from the manifold matrix and handed
to a Hermitian eigensolver, which makes the route an independent cross-check
of the series.  The dense route (embed, transpose one mode index,
diagonalize the whole space) is kept for general two-mode operators and as
the test oracle.

Convention: the negativity returned everywhere in this module is the trace
norm defect ||rho^PT||_1 - 1, i.e. twice the absolute sum of the negative
partial-transpose eigenvalues.  For a pure manifold state this equals the
ordered double sum over n != m of |c_n||c_m|, which is the series all the
decohered variants in the channel module reduce to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationTooSmall
from .fock import FockOperator, partial_transpose
from .states import ManifoldDensityMatrix, NonGaussianState

NEGATIVE_EIG_CUT = -1e-10


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


def _pt_eigenvalues(rho: FockOperator, mode: str) -> np.ndarray:
    """Spectrum of the dense partial transpose of a full two-mode matrix."""
    return np.linalg.eigvalsh(partial_transpose(rho, mode).matrix)


def negativity_fock(rho: FockOperator, mode: str = "b") -> float:
    """Negativity of a full two-mode density matrix: dense PPT eigensolve.

    Returns ||rho^PT||_1 - trace = sum(|lambda| - lambda), twice the absolute
    sum of the negative eigenvalues (see the module docstring).  Computed
    without a magnitude threshold: genuinely zero eigenvalues cancel in
    |lambda| - lambda up to rounding, while a threshold would silently drop
    real small coherence pairs.
    """
    eigs = _pt_eigenvalues(rho, mode)
    return float(np.abs(eigs).sum() - eigs.sum())


def negative_eigenvalue_count(rho: FockOperator, mode: str = "b") -> int:
    eigs = _pt_eigenvalues(rho, mode)
    return int(np.count_nonzero(eigs < NEGATIVE_EIG_CUT))


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


def negativity_numeric(rho: ManifoldDensityMatrix, total_cut: int | None = None) -> float:
    """Negativity by a partial-transpose eigensolve, blocked by total photon number.

    Sums |lambda| - lambda over the eigenvalues of every block that
    _pt_blocks assembles from the manifold matrix.  The blocks are exact, not
    an approximation: a manifold state commutes with n_a - n_b, so its
    partial transpose commutes with n_a + n_b and has no entry between
    different blocks.  The full space is never built; memory is O(n_max^2).

    total_cut names the two-mode truncation the result refers to.  It must
    satisfy total_cut >= 2 n_max + p so no partial-transpose entry is lost;
    a larger cut only adds empty blocks and does not change the value.
    """
    rho.validate()
    needed = 2 * rho.n_max + rho.p
    if total_cut is not None and total_cut < needed:
        raise TruncationTooSmall(f"total_cut {total_cut} < 2 n_max + p = {needed}")
    eigs = np.concatenate([np.linalg.eigvalsh(block) for block in _pt_blocks(rho)])
    return float(np.abs(eigs).sum() - eigs.sum())
