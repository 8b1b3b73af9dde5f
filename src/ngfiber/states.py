"""Photon-subtracted two-mode squeezed vacuum states.

Subtracting p photons from one arm of a two-mode squeezed vacuum leaves a
superposition over the fixed-offset manifold |n, n+p>:

    |psi> = (1/P) sum_n zeta^(n+p) sqrt((n+p)!/n!) |n, n+p>,   |zeta| < 1,

with P^2 = sum_n term(n), term(n) = |zeta|^(2(n+p)) (n+p)!/n!.  Everything
downstream (spectra, channels, design numbers) is built from this coefficient
vector.  The series is one vector of log terms (_log_terms); its partial sums
and analytic tail bounds give the truncation, P^2, the coefficients and the
recorded tail bound alike, whether n_max is chosen by the tail rule or given.
"""

from __future__ import annotations

import cmath
import functools
import math
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


def _log_terms(p: int, log_az: float, n_top: int) -> np.ndarray:
    """log term(n) for n = 0..n_top: 2(n+p) log|zeta| + sum_{j=1..p} log(n+j).

    log((n+p)!/n!) is added one j at a time: no lgamma difference to cancel
    and no n x p array.
    """
    log_terms = np.arange(p, n_top + p + 1.0) * (2.0 * log_az)
    for j in range(1, p + 1):
        log_terms += np.log(np.arange(j, n_top + j + 1.0))
    return log_terms


def _series(p: int, az: float, n_top: int):
    """(log terms, partial sums S_n, tail bounds) of the norm series, n = 0..n_top.

    For n' >= n every term ratio is below r = |zeta|^2 (1 + p/(n+1)), so when
    r < 1 the mass beyond n is at most term(n) r / (1 - r); otherwise the
    bound is inf.  The partial sums run in index order, like a running total.
    """
    log_terms = _log_terms(p, math.log(az), n_top)
    r = az * az * (1.0 + p / np.arange(1.0, n_top + 2))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        terms = np.exp(log_terms)
        tails = np.where(r < 1.0, terms * r / (1.0 - r), math.inf)
        return log_terms, terms.cumsum(), tails


def _truncate(p: int, az: float, tail_tol: float):
    """The norm series through its truncation index: (log terms, S_n, tails, n_max).

    n_max is the smallest n whose tail bound is below tail_tol relative to the
    partial sum (and absolutely, whichever is stricter).  The first vector is
    sized from where |zeta|^(2n) n^p / (1 - |zeta|^2) reaches tail_tol, with a
    25% margin (the estimate falls short by up to ~13%), and doubled up to
    _MAX_TERMS while no n passes.  A vector whose last tail bound is 0 with no
    n passing has a test threshold that underflows (P^2 is 0 or subnormal, as
    at p = 1, |zeta| = 1e-170) and no later term to lift it: that is refused at
    once, not blamed on |zeta| -> 1.
    """
    log_tol, log_az2 = math.log(tail_tol), 2.0 * math.log(az)
    n0 = max(log_tol / log_az2, 0.0)  # |zeta|^(2 n0) = tail_tol
    guess = (log_tol + math.log1p(-az * az) - p * math.log1p(n0)) / log_az2
    n_top = int(min(1.25 * max(guess, 0.0) + 8, _MAX_TERMS))
    while True:
        log_terms, sums, tails = _series(p, az, n_top)
        passed = tails < tail_tol * np.minimum(1.0, sums)
        n_max = int(passed.argmax())
        if passed[n_max]:
            return log_terms, sums, tails, n_max
        if tails[-1] == 0.0:
            raise ParameterError(
                f"norm series underflows at p = {p}, |zeta| = {az}: P^2 = {sums[-1]:.3g} "
                f"(largest log term {log_terms.max():.1f})"
            )
        if n_top == _MAX_TERMS:
            raise ParameterError(
                f"norm series did not converge within {_MAX_TERMS} terms (|zeta| too close to 1?)"
            )
        n_top = min(2 * n_top, _MAX_TERMS)


def _validate_zeta(p: int, zeta: complex) -> float:
    if not (p >= 0 and math.isfinite(p) and int(p) == p):
        raise ParameterError(f"p must be a non-negative integer, got {p}")
    az = abs(zeta)
    if math.isnan(az):
        raise ParameterError(f"zeta must be a number, got {zeta}")
    if az >= 1.0:
        raise DivergentState(f"|zeta| = {az} >= 1: the state norm diverges")
    if az == 0.0 and p > 0:
        raise DegenerateState("zeta = 0 with p > 0 gives a zero-norm state")
    return az


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


def build_state(
    p: int,
    zeta: complex,
    tail_tol: float = DEFAULT_TAIL_TOL,
    n_max: int | None = None,
) -> NonGaussianState:
    """Construct the normalized state.

    With the default arguments the truncation index is chosen so the
    neglected tail mass is below tail_tol.  Passing n_max forces an explicit
    truncation instead (useful when a downstream dense computation must stay
    small); the achieved tail bound is recorded either way.  Coefficients are
    renormalized over the kept range, so sum |c_n|^2 = 1 exactly.  A kept
    series whose P^2 is not a positive finite double (p = 150 at zeta = 0.9
    overflows) raises ParameterError.
    """
    az = _validate_zeta(p, zeta)
    if not tail_tol > 0:
        raise ParameterError(f"tail_tol must be positive, got {tail_tol}")
    if az == 0.0:
        return NonGaussianState(0, zeta, 0, np.array([1.0 + 0.0j]), 1.0, 0.0)

    p = int(p)
    if n_max is None:
        log_terms, sums, tails, n_max = _truncate(p, az, tail_tol)
    else:
        if n_max < 0:
            raise ParameterError("n_max must be >= 0")
        log_terms, sums, tails = _series(p, az, n_max)
    p2 = float(sums[n_max])
    if not 0.0 < p2 < math.inf:
        raise ParameterError(
            f"norm series leaves double precision at p = {p}, |zeta| = {az}: P^2 = {p2}"
        )

    ns = np.arange(n_max + 1)
    mags = np.exp(0.5 * (log_terms[: n_max + 1] - math.log(p2)))
    theta = cmath.phase(complex(zeta))
    coeffs = mags * np.exp(1j * theta * (ns + p))
    # analytic bound on the mass left beyond the kept range
    tail_bound = float(tails[n_max]) / p2
    return NonGaussianState(p, complex(zeta), int(n_max), coeffs, p2, tail_bound)


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
