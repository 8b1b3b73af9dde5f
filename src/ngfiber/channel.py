"""Decoherence channels for manifold states riding a fiber segment.

On the |n, n+p> manifold the difference n_a - n_b of the collective coupling
is the constant -p, so it adds only a global phase (the protected-subspace
property: gamma_minus is accepted but never changes the state).  Free evolution
adds the phase phi_n = exp(-i tau_l omega_total n), the sum coupling 2n + p a
thermal dephasing, and segment-length fluctuations a Gaussian decay, so every
channel maps c_n c_m^* to phi_n c_n (phi_m c_m)^* d_{n-m}, with one coherence
factor d_k (thermal mean times decay) that depends only on k = n - m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, _gibbs_levels, dissipation_rate
from .errors import DimensionBudgetExceeded, ParameterError, ZeroFrequency
from .states import ManifoldDensityMatrix, NonGaussianState

# Largest n_max + 1 for which a dense manifold matrix is built.  Assembly peaks
# at about 48 B (n_max + 1)^2, so 0.8 GB here; zeta = 0.99 needs 1947.
MANIFOLD_BUDGET = 4096


@dataclass
class ChannelParams:
    """Frequencies and coupling rates seen during one transit."""

    omega_a: float  # rad/s
    omega_b: float  # rad/s
    gamma_plus: float  # rad/s, couples to n_a + n_b
    gamma_minus: float  # rad/s, couples to n_a - n_b: a manifold no-op
    tau_l: float  # s, transit (or segment-accumulation) time
    epsilon: float = 0.0  # s, rms segment-timing fluctuation

    def __post_init__(self):
        for name in ("omega_a", "omega_b", "gamma_plus", "gamma_minus", "tau_l", "epsilon"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ParameterError(f"{name} must be finite and >= 0, got {value}")

    @property
    def omega_total(self) -> float:
        return self.omega_a + self.omega_b


def _thermal_phase_means(n_max: int, params: ChannelParams, bath: BathSpec) -> np.ndarray:
    """d[k] = sum_{s<=S} p_s exp(-2 i tau_l gamma_plus s k) for k = 0..n_max.

    With the weights of gibbs_weights (cut at S = s_max, renormalized) this is
    a geometric sum: d_k = (1-q)(1-(q z)^(S+1)) / ((1-q^(S+1))(1-q z)) with
    z = exp(-2 i tau_l gamma_plus k); each 1 - e^(..) is an expm1, exact as q, z -> 1.
    """
    q, s_max = _gibbs_levels(bath)
    if q == 0.0:
        return np.ones(n_max + 1, dtype=complex)
    beta, levels = -math.log(q), s_max + 1
    phi = 2.0 * params.tau_l * params.gamma_plus * np.arange(n_max + 1)
    one_q = -math.expm1(-beta)
    numer = one_q * -np.expm1(-levels * (beta + 1j * phi))
    return numer / (-math.expm1(-levels * beta) * (one_q - q * np.expm1(-1j * phi)))


def _negativity(state: NonGaussianState, factors: np.ndarray) -> float:
    """2 sum_{k>=1} |factors_k| A_k, with A_k = sum_n |c_n||c_{n+k}|."""
    a = np.abs(state.coeffs)
    return 2.0 * float(np.dot(np.abs(factors[1:]), np.correlate(a, a, "full")[state.n_max + 1 :]))


def _manifold_rho(
    state: NonGaussianState, params: ChannelParams, bath: BathSpec, coherence
) -> ManifoldDensityMatrix:
    """rho_nm = psi_n psi_m^* d_{n-m}, psi_n = phi_n c_n, d = coherence(n_max, params, bath).

    phi enters as a diagonal unitary, not as a function of n - m, so rho stays a
    Schur product of positive matrices however tau_l omega_total n rounds.
    d_{-k} = d_k^*.  Refuses before allocating when n_max + 1 exceeds MANIFOLD_BUDGET;
    the result is validated before it is returned.
    """
    if state.n_max + 1 > MANIFOLD_BUDGET:
        raise DimensionBudgetExceeded(
            f"manifold matrix of size {state.n_max + 1} exceeds budget {MANIFOLD_BUDGET}"
        )
    factors = coherence(state.n_max, params, bath)
    n = np.arange(state.n_max + 1)
    psi = np.exp(-1j * (params.tau_l * params.omega_total) * n) * state.coeffs
    full = np.concatenate([factors[::-1], factors[1:].conj()])  # full[n_max - k] = factors_k
    toeplitz = np.lib.stride_tricks.sliding_window_view(full, state.n_max + 1)[::-1]
    out = ManifoldDensityMatrix(state.p, state.n_max, np.outer(psi, psi.conj()) * toeplitz)
    out.validate()
    return out


def evolve_dephasing(
    state: NonGaussianState, params: ChannelParams, bath: BathSpec
) -> ManifoldDensityMatrix:
    """Thermally averaged dephasing of the pure manifold state.

    rho_nm = c_n c_m^* sum_s p_s exp(-i tau_l [omega_total + 2 gamma_plus s]
    (n - m)).  The diagonal is untouched; coherences acquire the thermal
    visibility.  gamma_minus does not appear: the difference coupling is
    constant on the manifold and cancels between bra and ket.
    """
    return _manifold_rho(state, params, bath, _thermal_phase_means)


def fidelity(state: NonGaussianState, params: ChannelParams, bath: BathSpec) -> float:
    """Overlap <psi| rho(tau_l) |psi> after thermal dephasing.

    Equals sum_s p_s |sum_n |c_n|^2 exp(-i tau_l n (omega_total +
    2 gamma_plus s))|^2 = B_0 + 2 sum_{k>=1} B_k Re(phi_k d_k), B the
    autocorrelation of |c|^2; bounded by 1, reaching it whenever every
    relative phase winds by a multiple of 2 pi.
    """
    w = np.abs(state.coeffs) ** 2
    b = np.correlate(w, w, "full")[state.n_max :]
    d = np.exp(-1j * (params.tau_l * params.omega_total) * np.arange(state.n_max + 1))
    d *= _thermal_phase_means(state.n_max, params, bath)
    f = float(b[0] + 2.0 * np.dot(b[1:], d[1:].real))
    return min(max(f, 0.0), 1.0)


def recovery_times(params: ChannelParams, s: int, l_max: int) -> np.ndarray:
    """Times l pi / (omega_total + 2 gamma_plus s) for l = 1..l_max.

    At even l every coherence phase is a multiple of 2 pi and the fidelity
    returns to 1 exactly.  At odd l the phases alternate sign with n, which
    maps the state to its zeta -> -zeta partner: still pure, same
    entanglement, but the overlap with the original dips to
    ((1-|zeta|^2)/(1+|zeta|^2))^(2(p+1)).
    """
    if s < 0 or l_max < 1:
        raise ParameterError("s must be >= 0 and l_max >= 1")
    chi = params.omega_total + 2.0 * params.gamma_plus * s
    if chi <= 0:
        raise ZeroFrequency("omega_total + 2 gamma_plus s must be > 0")
    return np.arange(1, l_max + 1) * math.pi / chi


def visibility_unity_time(params: ChannelParams) -> float:
    """Segment time tau = pi / gamma_plus at which every thermal visibility is 1."""
    if params.gamma_plus <= 0:
        raise ZeroFrequency("gamma_plus must be > 0")
    return math.pi / params.gamma_plus


def negativity_after_dephasing(
    state: NonGaussianState, params: ChannelParams, bath: BathSpec
) -> float:
    """Negativity of the dephased state from its coherence magnitudes.

    N = 2 sum_{n<m} |c_n||c_m| v_{m-n}, where v_k is the thermal visibility
    at x = tau_l gamma_plus.  Uses the same truncated Gibbs weights as
    evolve_dephasing, so it matches the eigensolver route exactly.
    """
    return _negativity(state, _thermal_phase_means(state.n_max, params, bath))


def _dissipative_factors(n_max: int, params: ChannelParams, bath: BathSpec) -> np.ndarray:
    """Thermal means times exp(-4 epsilon^2 Gamma k^2), Gamma the closed-form rate at bath T."""
    gamma = dissipation_rate(bath, params.tau_l)
    k = np.arange(n_max + 1, dtype=float)
    decay = np.exp(-(4.0 * params.epsilon * params.epsilon * gamma * k * k))
    return decay * _thermal_phase_means(n_max, params, bath)


def evolve_with_dissipation(
    state: NonGaussianState, params: ChannelParams, bath: BathSpec
) -> ManifoldDensityMatrix:
    """Dephasing plus Gaussian coherence decay from timing fluctuations.

    Multiplies the dephased matrix elementwise by
    exp(-4 epsilon^2 Gamma(tau_l) (n-m)^2), with Gamma the closed-form
    dissipation rate at the bath temperature.  The diagonal is preserved.
    """
    return _manifold_rho(state, params, bath, _dissipative_factors)


def negativity_dissipative(
    state: NonGaussianState,
    params: ChannelParams,
    bath: BathSpec,
    combined: bool = False,
) -> float:
    """Negativity after timing-fluctuation decay.

    The default is the zero-temperature branch
    N = sum_{n != m} |c_n||c_m| exp(-4 epsilon^2 Gamma (n-m)^2) and requires
    bath.temperature == 0.  With combined=True the thermal visibility factors
    are multiplied in as well (and Gamma becomes the finite-temperature
    rate), matching evolve_with_dissipation at T > 0.
    """
    if bath.temperature > 0.0 and not combined:
        raise ParameterError(
            "the plain dissipative series is a T = 0 result; pass combined=True "
            "to fold in thermal visibilities"
        )
    return _negativity(state, _dissipative_factors(state.n_max, params, bath))
