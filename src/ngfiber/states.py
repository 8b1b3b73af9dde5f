"""Photon-subtracted two-mode squeezed vacuum states.

Subtracting p photons from one arm of a two-mode squeezed vacuum leaves a
superposition over the fixed-offset manifold |n, n+p>:

    |psi> = (1/P) sum_n zeta^(n+p) sqrt((n+p)!/n!) |n, n+p>,   |zeta| < 1,

with P^2 = sum_n |zeta|^(2(n+p)) (n+p)!/n!.  Everything downstream (spectra,
channels, design numbers) is built from this coefficient vector.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

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


def _series_scan(p: int, abs_zeta: float, tail_tol: float):
    """Yield (n, term) for the norm series until the analytic tail bound passes.

    term(n) = |zeta|^(2(n+p)) (n+p)!/n!, accumulated in log space.  For
    n >= n_max every term ratio is below r = |zeta|^2 (1 + p/(n_max+1)), so
    the remaining tail is bounded by term(n_max) * r / (1 - r).  The scan
    stops at the smallest n_max whose bound is below tail_tol relative to the
    partial sum (and absolutely, whichever is stricter).
    """
    log_az2 = 2.0 * math.log(abs_zeta)
    total = 0.0
    n = 0
    while n <= _MAX_TERMS:
        log_term = (n + p) * log_az2 + math.lgamma(n + p + 1) - math.lgamma(n + 1)
        term = math.exp(log_term)
        total += term
        yield n, term, total
        r = abs_zeta * abs_zeta * (1.0 + p / (n + 1.0))
        if r < 1.0:
            tail_bound = term * r / (1.0 - r)
            if tail_bound < tail_tol * min(1.0, total):
                return
        n += 1
    raise ParameterError(
        f"norm series did not converge within {_MAX_TERMS} terms (|zeta| too close to 1?)"
    )


def _validate_zeta(p: int, zeta: complex) -> float:
    if p < 0 or int(p) != p:
        raise ParameterError(f"p must be a non-negative integer, got {p}")
    az = abs(zeta)
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
    az = _validate_zeta(p, zeta)
    if tail_tol <= 0:
        raise ParameterError("tail_tol must be positive")
    if az == 0.0:
        return 1.0, 0
    n_max, total = 0, 0.0
    for n, _term, total in _series_scan(p, az, tail_tol):
        n_max = n
    return total, n_max


@dataclass
class NonGaussianState:
    """Normalized manifold state: coefficient c_n multiplies |n, n+p>."""

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
    renormalized over the kept range, so sum |c_n|^2 = 1 exactly.
    """
    az = _validate_zeta(p, zeta)
    if az == 0.0:
        return NonGaussianState(0, zeta, 0, np.array([1.0 + 0.0j]), 1.0, 0.0)

    log_az = math.log(az)
    if n_max is None:
        p2, n_max = normalization(p, zeta, tail_tol)
    else:
        if n_max < 0:
            raise ParameterError("n_max must be >= 0")
        p2 = 0.0
        for n in range(n_max + 1):
            p2 += math.exp(2 * (n + p) * log_az + math.lgamma(n + p + 1) - math.lgamma(n + 1))

    ns = np.arange(n_max + 1)
    log_half = (ns + p) * log_az + 0.5 * (
        np.array([math.lgamma(n + p + 1) - math.lgamma(n + 1) for n in ns])
    )
    mags = np.exp(log_half - 0.5 * math.log(p2))
    theta = cmath.phase(complex(zeta))
    coeffs = mags * np.exp(1j * theta * (ns + p))

    # analytic bound on the mass left beyond the kept range
    r = az * az * (1.0 + p / (n_max + 1.0))
    last = math.exp(2 * (n_max + p) * log_az + math.lgamma(n_max + p + 1) - math.lgamma(n_max + 1))
    tail_bound = last * r / (1.0 - r) / p2 if r < 1.0 else math.inf

    return NonGaussianState(int(p), complex(zeta), int(n_max), coeffs, p2, tail_bound)


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
