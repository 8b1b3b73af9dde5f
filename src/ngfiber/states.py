"""Photon-subtracted two-mode squeezed vacuum states.

Subtracting p photons from one arm of a two-mode squeezed vacuum leaves a
superposition over the fixed-offset manifold |n, n+p>:

    |psi> = (1/P) sum_n zeta^(n+p) sqrt((n+p)!/n!) |n, n+p>,   |zeta| < 1,

with P^2 = sum_n term(n), term(n) = |zeta|^(2(n+p)) (n+p)!/n!.  Everything
downstream (spectra, channels, design numbers) is built from this coefficient
vector.  The series of one |zeta| is one row of log terms (_series); its
partial sums and analytic tail bounds give the truncation, P^2, the
coefficients and the recorded tail bound alike, whether n_max is chosen by the
tail rule or given.  The tail rule has one path, _truncate: build_states
truncates many zetas at once, in 2-D blocks of rows (_cut), and build_state
without n_max is build_states on one row, so every state has the same bits
from either.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateState,
    DivergentState,
    NonHermitianInput,
    ParameterError,
    TruncationTooSmall,
)
from .fock import FockSpace

DEFAULT_TAIL_TOL = 1e-12
_MAX_TERMS = 1_000_000
# Largest p accepted.  _series makes one pass over the terms per j = 1..p: at
# zeta = sqrt(e / p), where P^2 stays finite, p = 10^4 builds in 0.09 s and
# p = 10^5 in 3.8 s on a 2-CPU x86-64 machine.
_MAX_P = 10_000
# log P^2 above which the tail rule refuses a zeta before summing its series.  A
# summed log term carries up to p roundings at magnitudes up to ~1e5 (~1.3e-7 in all
# at p = _MAX_P; within 1.1e-10 of the closed form where P^2 overflows, p <= 10^4)
# and lgamma a few ulp, so the 1e-6 margin keeps every zeta the series builds.
_LOG_P2_LIMIT = math.log(sys.float_info.max) + 1e-6
# Most cells (rows x terms) in one 2-D block of norm series.  It bounds the
# memory build_states takes at once, never its results: every row is computed
# on its own.
_BLOCK_CELLS = 1 << 16


def _column(values: list):
    """values as a column that broadcasts along a row of terms.

    One value stays a scalar, which numpy broadcasts at less cost than a 1 x 1
    array; that keeps build_state on one row as cheap as a 1-D series.
    """
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def _series(p: int, az: list, n_top: int):
    """(log terms, partial sums S_n, tail bounds) for n = 0..n_top, one row per |zeta| in az.

    log term(n) = 2(n+p) log|zeta| + sum_{j=1..p} log(n+j), with log((n+p)!/n!)
    added one j at a time: no lgamma difference to cancel and no n x p array.
    For n' >= n every term ratio is below r = |zeta|^2 (1 + p/(n+1)), so when
    r < 1 the mass beyond n is at most term(n) r / (1 - r); otherwise the bound
    is inf.  Every value is elementwise and the partial sums run along each row
    in index order, like a running total, so a row holds the same bits whatever
    the other rows and n_top.
    """
    az2 = [a * a for a in az]
    log_terms = np.arange(p, n_top + p + 1.0) * _column([2.0 * math.log(a) for a in az])
    for j in range(1, p + 1):
        log_terms += np.log(np.arange(j, n_top + j + 1.0))
    r = _column(az2) * (1.0 + p / np.arange(1.0, n_top + 2))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        terms = np.exp(log_terms)
        tails = terms * r / (1.0 - r)
        sums = terms.cumsum(axis=-1)
    if max(az2) * (1.0 + p) >= 1.0:  # r falls with n: r_0 is each row's largest
        tails[r >= 1.0] = math.inf
    if log_terms.ndim == 1:
        return log_terms[None], sums[None], tails[None]
    return log_terms, sums, tails


def _first_length(p: int, az: float, log_tol: float) -> int:
    """n_top of a row's first vector.

    Sized from where |zeta|^(2n) n^p / (1 - |zeta|^2) reaches tail_tol, with a
    25% margin.  At large p it still falls short, and the row is retried: at
    tail_tol 1e-12, n_max reaches 1.06x this length at p = 30 and 1.31x at
    p = 100 (2x at p = 100, tail_tol 1e-3).
    """
    log_az2 = 2.0 * math.log(az)
    n0 = max(log_tol / log_az2, 0.0)  # |zeta|^(2 n0) = tail_tol
    guess = (log_tol + math.log1p(-az * az) - p * math.log1p(n0)) / log_az2
    return int(min(1.25 * max(guess, 0.0) + 8, _MAX_TERMS))


def _overflows(p: int, az: list) -> list:
    """Per |zeta|: whether the whole norm series leaves double precision.

    P^2 = p! |zeta|^(2p) / (1 - |zeta|^2)^(p+1) in closed form.  The tail rule
    keeps all of it but a tail below tail_tol < 1, so beyond _LOG_P2_LIMIT the
    kept partial sum overflows too: the row is refused without summing it.
    """
    a = np.array(az)
    log_p2 = math.lgamma(p + 1) + 2 * p * np.log(a) - (p + 1) * np.log1p(-a * a)
    return (log_p2 > _LOG_P2_LIMIT).tolist()


def _leaves_double(p: int, az: float, p2: float) -> ParameterError:
    return ParameterError(
        f"norm series leaves double precision at p = {p}, |zeta| = {az}: P^2 = {p2}"
    )


def _runs(order: list, lengths: list):
    """Consecutive runs of order (rows by ascending length) of at most _BLOCK_CELLS cells.

    A run is as wide as its last, longest row; a row wider than the cap runs alone.
    """
    start = 0
    while start < len(order):
        stop = start + 1
        while stop < len(order) and lengths[order[stop]] < _BLOCK_CELLS // (stop + 1 - start):
            stop += 1
        yield order[start:stop]
        start = stop


def _truncate(p: int, zetas: list, tail_tol: float) -> list:
    """The truncated state of every zeta, or the ParameterError build_state raises for it.

    The rows are sorted by the length of their first vector and evaluated by
    _cut in the runs of _runs.  A row with no n passing in its run's vector
    goes into a later run at twice that length, up to _MAX_TERMS.  A row whose
    whole series overflows (_overflows) is refused first.
    """
    az = [abs(zeta) for zeta in zetas]
    log_tol = math.log(tail_tol)
    lengths = [_first_length(p, a, log_tol) for a in az]
    over = _overflows(p, az)
    out = [_leaves_double(p, a, math.inf) if o else None for a, o in zip(az, over)]
    pending = sorted([i for i, o in enumerate(over) if not o], key=lengths.__getitem__)
    while pending:
        retry = []  # runs come in ascending length, so the retries stay sorted
        for rows in _runs(pending, lengths):
            top = lengths[rows[-1]]
            cut = _cut(p, [zetas[i] for i in rows], [az[i] for i in rows], top, tail_tol)
            for row, item in zip(rows, cut):
                if item is None:
                    lengths[row] = min(2 * top, _MAX_TERMS)
                    retry.append(row)
                else:
                    out[row] = item
        pending = retry
    return out


def _cut(p: int, zetas: list, az: list, top: int, tail_tol: float) -> list:
    """Truncate a run of rows on one vector of top + 1 terms: per row a state, an error, or None.

    n_max is the smallest n whose tail bound is below tail_tol relative to the
    partial sum (and absolutely, whichever is stricter).  Every value of a row
    is its own (_series), so its first passing n, and its error, are the same
    in any vector long enough to hold them.  None asks for a longer vector.  A
    vector whose last tail bound is 0 with no n passing has a test threshold
    that underflows (P^2 is 0 or subnormal, as at p = 1, |zeta| = 1e-170) and
    no later term to lift it: that is refused at once, not blamed on
    |zeta| -> 1.
    """
    log_terms, sums, tails = _series(p, az, top)
    passed = tails < tail_tol * np.minimum(1.0, sums)
    cuts, errors = [], {}
    for i, n in enumerate(passed.argmax(axis=1).tolist()):
        if passed[i, n]:
            cuts.append((n, float(sums[i, n]), float(tails[i, n])))
            continue
        cuts.append(None)
        if tails[i, top] == 0.0:
            errors[i] = ParameterError(
                f"norm series underflows at p = {p}, |zeta| = {az[i]}: P^2 = {sums[i, top]:.3g} "
                f"(largest log term {log_terms[i].max():.1f})"
            )
        elif top == _MAX_TERMS:
            errors[i] = ParameterError(
                f"norm series did not converge within {_MAX_TERMS} terms (|zeta| too close to 1?)"
            )
    built = _states(p, zetas, log_terms, cuts)
    for i, error in errors.items():
        built[i] = error
    return built


def _states(p: int, zetas: list, log_terms: np.ndarray, cuts: list) -> list:
    """The state of each row of log terms, cut where cuts gives (n_max, P^2, tail bound).

    |c_n| = exp((log term(n) - log P^2) / 2) is computed for the whole block,
    the phase e^(i theta (n+p)) row by row over the kept terms.  A row whose
    cut is None gives None; a row whose P^2 is not a positive finite double
    (p = 150 at zeta = 0.9 overflows) gives its ParameterError instead of a
    state.
    """
    # log P^2 = inf sends a row without a state to zeros, never to an overflow
    log_p2 = [math.log(cut[1]) if cut and 0.0 < cut[1] < math.inf else math.inf for cut in cuts]
    mags = np.exp(0.5 * (log_terms - _column(log_p2)))
    out = []
    for i, (zeta, cut) in enumerate(zip(zetas, cuts)):
        if cut is None:
            out.append(None)
            continue
        n, p2, tail = cut
        if log_p2[i] == math.inf:
            out.append(_leaves_double(p, abs(zeta), p2))
            continue
        theta = cmath.phase(complex(zeta))
        if theta:
            coeffs = mags[i, : n + 1] * np.exp(1j * theta * (np.arange(n + 1) + p))
        else:  # exp(0j) is exactly 1
            coeffs = mags[i, : n + 1].astype(complex)
        # the recorded tail bound: analytic bound on the mass left beyond n_max
        out.append(NonGaussianState(p, complex(zeta), n, coeffs, p2, tail / p2))
    return out


def _validate(p, tail_tol) -> int:
    if not (p >= 0 and math.isfinite(p) and int(p) == p):
        raise ParameterError(f"p must be a non-negative integer, got {p}")
    if p > _MAX_P:
        raise ParameterError(f"p must be <= {_MAX_P}, got {p}")
    if not 0.0 < tail_tol < 1.0:
        raise ParameterError(f"tail_tol must be in (0, 1), got {tail_tol}")
    return int(p)


def _unsummed(p: int, zeta: complex):
    """What build_state gives for zeta at a valid p and tail_tol without a series, or None.

    That is the error of a NaN, divergent or zero-norm zeta, or the vacuum at
    zeta = 0, p = 0; None asks for the norm series.
    """
    az = abs(zeta)
    if math.isnan(az):
        return ParameterError(f"zeta must be a number, got {zeta}")
    if az >= 1.0:
        return DivergentState(f"|zeta| = {az} >= 1: the state norm diverges")
    if az == 0.0:
        if p > 0:
            return DegenerateState("zeta = 0 with p > 0 gives a zero-norm state")
        return NonGaussianState(0, zeta, 0, np.array([1.0 + 0.0j]), 1.0, 0.0)
    return None


def normalization(p: int, zeta: complex, tail_tol: float = DEFAULT_TAIL_TOL):
    """Squared norm P^2 of the unnormalized state and the truncation index.

    Returns (P2, n_max) where n_max is the smallest truncation whose analytic
    geometric tail bound is below tail_tol.
    """
    state = build_state(p, zeta, tail_tol)
    return state.norm_p2, state.n_max


@dataclass
class NonGaussianState:
    """Normalized manifold state: coefficient c_n multiplies |n, n+p>.

    The autocorrelations of |c| and |c|^2 that every channel observable
    reduces against are cached on first use, so coeffs must not change after.
    """

    p: int
    zeta: complex
    n_max: int
    coeffs: np.ndarray
    norm_p2: float
    tail_bound: float

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.n_max + 1,):
            raise ParameterError("coefficient vector length must be n_max + 1")

    def abs_coeffs(self) -> np.ndarray:
        return np.abs(self.coeffs)

    @functools.cached_property
    def _abs_autocorr(self) -> np.ndarray:
        """A_k = sum_n |c_n||c_{n+k}| for k = 0..n_max, computed on first use."""
        a = np.abs(self.coeffs)
        return np.correlate(a, a, "full")[self.n_max :]

    @functools.cached_property
    def _pop_autocorr(self) -> np.ndarray:
        """B_k = sum_n |c_n|^2 |c_{n+k}|^2 for k = 0..n_max, computed on first use."""
        w = np.abs(self.coeffs) ** 2
        return np.correlate(w, w, "full")[self.n_max :]

    def density_matrix(self) -> "ManifoldDensityMatrix":
        rho = np.outer(self.coeffs, self.coeffs.conj())
        return ManifoldDensityMatrix(self.p, self.n_max, rho)


def build_states(p: int, zetas, tail_tol: float = DEFAULT_TAIL_TOL) -> list:
    """The state of every zeta, truncated by the tail rule; build_state is this on one row.

    The norm series of all the zetas are truncated together, in 2-D blocks of
    at most _BLOCK_CELLS cells (rows sorted by the length of their first
    vector, each block as long as its longest row), and each block's
    coefficients are computed at once.  A row's bits are its own, the same
    in any list, so the result is [build_state(p, zeta, tail_tol) for zeta in
    zetas] bit for bit.  Raises what build_state raises for the first zeta it
    refuses; p and tail_tol are checked before any zeta.
    """
    zetas = list(zetas)
    p = _validate(p, tail_tol)
    out = [_unsummed(p, zeta) for zeta in zetas]
    rows = [i for i, item in enumerate(out) if item is None]
    for i, item in zip(rows, _truncate(p, [zetas[i] for i in rows], tail_tol)):
        out[i] = item
    for item in out:
        if isinstance(item, Exception):
            raise item
    return out


def build_state(
    p: int,
    zeta: complex,
    tail_tol: float = DEFAULT_TAIL_TOL,
    n_max: int | None = None,
) -> NonGaussianState:
    """Construct the normalized state.

    With the default arguments the truncation index is chosen so the
    neglected tail mass is below tail_tol, which must lie in (0, 1): the
    state is build_states(p, [zeta], tail_tol)[0].  Passing n_max, an integer
    in [0, _MAX_TERMS] (checked before zeta), forces an explicit truncation
    instead (useful when a downstream dense computation must stay small); the
    achieved tail bound is recorded either way.  Coefficients are
    renormalized over the kept range, so sum |c_n|^2 = 1 exactly.  A kept
    series whose P^2 is not a positive finite double (p = 150 at zeta = 0.9
    overflows) raises ParameterError.
    """
    if n_max is None:
        return build_states(p, [zeta], tail_tol)[0]
    p = _validate(p, tail_tol)
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)):
        raise ParameterError(f"n_max must be an integer, got {n_max}")
    if not 0 <= n_max <= _MAX_TERMS:
        raise ParameterError(f"n_max must be in [0, {_MAX_TERMS}], got {n_max}")
    state = _unsummed(p, zeta)
    if state is None:
        log_terms, sums, tails = _series(p, [abs(zeta)], n_max)
        cut = (int(n_max), float(sums[0, n_max]), float(tails[0, n_max]))
        [state] = _states(p, [zeta], log_terms, [cut])
    if isinstance(state, Exception):
        raise state
    return state


@dataclass
class ManifoldDensityMatrix:
    """Density matrix restricted to the |n, n+p> manifold, indexed by n."""

    p: int
    n_max: int
    rho: np.ndarray

    HERM_TOL = 1e-12
    TRACE_TOL = 1e-10
    PSD_TOL = -1e-10

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        if self.rho.shape != (self.n_max + 1, self.n_max + 1):
            raise ParameterError("rho must be (n_max+1) x (n_max+1)")

    def validate(self) -> None:
        defect = float(np.max(np.abs(self.rho - self.rho.conj().T)))
        if defect > self.HERM_TOL:
            raise NonHermitianInput(f"manifold rho hermiticity defect {defect:.3e}")
        tr = float(np.trace(self.rho).real)
        if abs(tr - 1.0) > self.TRACE_TOL:
            raise ParameterError(f"manifold rho trace {tr:.12g} != 1")
        # rho - PSD_TOL I factors exactly when the smallest eigenvalue exceeds
        # PSD_TOL; the spectrum is computed only to report a failure.
        try:
            np.linalg.cholesky(self.rho - self.PSD_TOL * np.eye(self.n_max + 1))
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(self.rho)[0])
            raise ParameterError(
                f"manifold rho has negative eigenvalue {min_eig:.3e}"
            ) from None


def embed(state: NonGaussianState, space: FockSpace) -> np.ndarray:
    """State vector in a full two-mode Fock space.

    The largest populated basis state is |n_max, n_max + p|, so the space
    must satisfy total_cut >= 2 n_max + p.
    """
    needed = 2 * state.n_max + state.p
    if space.total_cut < needed:
        raise TruncationTooSmall(
            f"total_cut {space.total_cut} < 2 n_max + p = {needed}"
        )
    vec = np.zeros(space.dim, dtype=complex)
    for n in range(state.n_max + 1):
        vec[space.index(n, n + state.p)] = state.coeffs[n]
    return vec


def embed_density_matrix(rho: ManifoldDensityMatrix, space: FockSpace) -> np.ndarray:
    """Manifold density matrix as a dense matrix on a full two-mode space."""
    needed = 2 * rho.n_max + rho.p
    if space.total_cut < needed:
        raise TruncationTooSmall(
            f"total_cut {space.total_cut} < 2 n_max + p = {needed}"
        )
    out = np.zeros((space.dim, space.dim), dtype=complex)
    idx = np.array([space.index(n, n + rho.p) for n in range(rho.n_max + 1)])
    out[np.ix_(idx, idx)] = rho.rho
    return out


def _oscillator_column(n_top: int, u: float) -> np.ndarray:
    """Harmonic-oscillator eigenfunction values phi_0..phi_n_top at u.

    Stable normalized form of the Hermite three-term recurrence:
    phi_k = u sqrt(2/k) phi_{k-1} - sqrt((k-1)/k) phi_{k-2}.
    """
    vals = np.empty(n_top + 1)
    vals[0] = math.pi ** -0.25 * math.exp(-0.5 * u * u)
    if n_top >= 1:
        vals[1] = math.sqrt(2.0) * u * vals[0]
    for k in range(2, n_top + 1):
        vals[k] = u * math.sqrt(2.0 / k) * vals[k - 1] - math.sqrt((k - 1.0) / k) * vals[k - 2]
    return vals


def wavefunction(state: NonGaussianState, x: float, y: float) -> complex:
    """Two-mode coordinate wavefunction of the unnormalized state.

    Equals (zeta^p / sqrt(2^p pi)) sum_n (zeta/2)^n / n! H_n(x) H_{n+p}(y)
    exp(-(x^2+y^2)/2) with physicists' Hermite polynomials, evaluated through
    the normalized oscillator recurrence for stability at large n.  Note the
    returned amplitude is NOT unit-normalized: its L2 norm over the plane is
    P = sqrt(norm_p2), the measured value of which is reported by the tests.
    """
    phi_x = _oscillator_column(state.n_max, x)
    phi_y = _oscillator_column(state.n_max + state.p, y)
    total = np.sum(state.coeffs * phi_x * phi_y[state.p :])
    return complex(math.sqrt(state.norm_p2) * total)
