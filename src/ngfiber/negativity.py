"""Entanglement negativity via the positive-partial-transpose criterion.

For a manifold state the partially transposed density matrix decomposes into
1x1 blocks (the diagonal weights) and 2x2 blocks contributing eigenvalue
pairs +/- |rho_nm|, so the negativity has a closed series form.  The numeric
route below never uses that pair structure.  It relies only on the fact that
a two-mode density matrix that conserves n_a - n_b has a partial transpose
that conserves the total photon number N = n_a + n_b, so rho^PT is block
diagonal in N.  One builder (`_pt_blocks`) assembles those blocks straight
from rho and the occupations of its basis, and each is handed to a Hermitian
eigensolver.  It serves a manifold matrix (`negativity_numeric`, an
independent cross-check of the series) and the reduced state of a bang-bang
run (`bangbang.negativity_trace`) alike.  The dense route (transpose one mode
index, diagonalize the whole space, `negativity_fock`) is kept as the test
oracle.

Convention: the negativity returned everywhere in this module is the trace
norm defect ||rho^PT||_1 - 1, i.e. twice the absolute sum of the negative
partial-transpose eigenvalues.  For a pure manifold state this equals the
ordered double sum over n != m of |c_n||c_m|, which is the series all the
decohered variants in the channel module reduce to.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .fock import TRACE_TOL, FockOperator, partial_transpose
from .states import ManifoldDensityMatrix, NonGaussianState


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


def _pt_blocks(rho: np.ndarray, n_a: np.ndarray, n_b: np.ndarray):
    """Total-photon-number blocks of the partial transpose over mode b, by ascending N.

    rho is a density matrix over the basis states |n_a[i], n_b[i]>.  Its entry
    rho_ij = <a_i b_i| rho |a_j b_j> is <a_i b_j| rho^Tb |a_j b_i>, and when i
    and j share n_a - n_b both of those states hold N = a_i + b_j photons.  So
    block N holds rho_ij at row a_i and column a_j, less the block's smallest
    n_a.  An entry above TRACE_TOL between different n_a - n_b raises
    ParameterError: its partial-transpose entry would join two blocks.
    """
    diff = n_a - n_b
    same = diff[:, None] == diff[None, :]
    leak = np.abs(rho[~same]).max(initial=0.0)
    if leak > TRACE_TOL:
        raise ParameterError(f"density matrix mixes different n_a - n_b (entry {leak:.3e})")
    i, j = np.nonzero(same)
    order = np.argsort(n_a[i] + n_b[j], kind="stable")
    i, j = i[order], j[order]
    rows, cols, values, total = n_a[i], n_a[j], rho[i, j], n_a[i] + n_b[j]
    starts = np.flatnonzero(np.diff(total, prepend=-1))
    lows = np.minimum.reduceat(rows, starts)
    sizes = np.maximum.reduceat(rows, starts) - lows + 1
    for start, end, low, size in zip(starts, [*starts[1:], total.size], lows, sizes):
        block = np.zeros((size, size), dtype=complex)
        block[rows[start:end] - low, cols[start:end] - low] = values[start:end]
        yield block


def _negativity_blocked(rho: np.ndarray, n_a: np.ndarray, n_b: np.ndarray) -> float:
    """sum(|lambda| - lambda) over the eigenvalues of every _pt_blocks block."""
    eigs = np.concatenate([np.linalg.eigvalsh(block) for block in _pt_blocks(rho, n_a, n_b)])
    return float(np.abs(eigs).sum() - eigs.sum())


def negativity_numeric(rho: ManifoldDensityMatrix) -> float:
    """Negativity by a partial-transpose eigensolve, blocked by total photon number.

    The manifold basis is |n, n + p>, n = 0..n_max, so _pt_blocks assembles
    the blocks straight from the manifold matrix.  The blocks are exact, not
    an approximation: a manifold state commutes with n_a - n_b, so its
    partial transpose commutes with n_a + n_b and has no entry between
    different blocks.  The full space is never built; memory is O(n_max^2).
    The result holds for any two-mode truncation total_cut >= 2 n_max + p,
    the largest total photon number rho occupies: a larger cut only adds
    empty blocks.
    """
    rho.validate()
    n = np.arange(rho.n_max + 1)
    return _negativity_blocked(rho.rho, n, n + rho.p)
