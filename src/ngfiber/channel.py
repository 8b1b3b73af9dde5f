"""Decoherence channels for manifold states riding a fiber segment.

On the |n, n+p> manifold the difference n_a - n_b of the collective coupling
is the constant -p, so it adds only a global phase (the protected-subspace
property: gamma_minus is accepted but never changes the state).  Free evolution
adds the phase phi_n = exp(-i tau_l omega_total n), the sum coupling 2n + p a
thermal dephasing, and segment-length fluctuations a Gaussian decay, so every
channel maps c_n c_m^* to phi_n c_n (phi_m c_m)^* d_{n-m}, with one coherence
factor d_k (thermal mean times decay) that depends only on k = n - m.

The scalar observables (negativity_after_dephasing, negativity_dissipative,
fidelity) reduce d_k against an autocorrelation of |c| or |c|^2 that the state
caches, so after a state's first use each costs O(n_max).  Their thermal
row is built once for consecutive calls on the same inputs (_thermal_row),
and negativity_dissipative asks for none at T = 0, where every thermal mean
is 1.  timing_negativities gives negativity_dissipative at T = 0 for a whole
list of tau_l at once, each value with the bits of its own call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, dissipation_rate, gibbs_phase_mean
from .errors import DimensionBudgetExceeded, ParameterError, ZeroFrequency
from .states import _BLOCK_CELLS, ManifoldDensityMatrix, NonGaussianState

# Largest n_max + 1 for which a dense manifold matrix is built.  Assembly peaks
# at about 48 B (n_max + 1)^2, so 0.8 GB here; zeta = 0.99 needs 1947.
MANIFOLD_BUDGET = 4096
# exp(-x) is exactly 0.0 in double precision for every x > 745.2
_FULL_DECAY = 1000.0


def _require_finite_nonnegative(name: str, value: float) -> None:
    if not 0 <= value < math.inf:
        raise ParameterError(f"{name} must be finite and >= 0, got {value}")


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
            _require_finite_nonnegative(name, getattr(self, name))

    @property
    def omega_total(self) -> float:
        return self.omega_a + self.omega_b


def _thermal_phase_means(n_max: int, params: ChannelParams, bath: BathSpec) -> np.ndarray:
    """d[k] = sum_s p_s exp(-2 i tau_l gamma_plus s k) over every level s, k = 0..n_max.

    gibbs_phase_mean at phi = 2 tau_l gamma_plus k, read-only: see _thermal_row.
    """
    return _thermal_row(n_max, 2.0 * params.tau_l * params.gamma_plus, bath.mean_occupation())


# One row is kept: the observables of one sweep point (negativity_after_dephasing,
# negativity_dissipative, fidelity) ask for the same row one after another.  At
# n_max ~ 2e4 and T > 0, building it three times made a 64-point sweep 25 %
# slower.  The row is read-only because every caller gets the same array.
@functools.lru_cache(maxsize=1)
def _thermal_row(n_max: int, step: float, n_bar: float) -> np.ndarray:
    """_thermal_phase_means with phi_k = step k, as a read-only array."""
    if n_bar == 0.0:  # T = 0: every mean is 1; the closed form costs 5-40x more
        d = np.ones(n_max + 1, dtype=complex)
    else:
        d = gibbs_phase_mean(n_bar, step * np.arange(n_max + 1))
    d.flags.writeable = False
    return d


def _negativity(state: NonGaussianState, factors: np.ndarray) -> float:
    """2 sum_{k>=1} |factors_k| A_k, with A_k = sum_n |c_n||c_{n+k}|.

    A_k is the state's cached autocorrelation, so after its first use on a
    state each call costs O(n_max).
    """
    return 2.0 * float(np.dot(np.abs(factors[1:]), state._abs_autocorr[1:]))


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
    (n - m)), the sum over every Gibbs level taken in closed form
    (gibbs_phase_mean).  The diagonal is untouched; coherences acquire the
    thermal visibility.  gamma_minus does not appear: the difference coupling
    is constant on the manifold and cancels between bra and ket.
    """
    return _manifold_rho(state, params, bath, _thermal_phase_means)


def fidelity(state: NonGaussianState, params: ChannelParams, bath: BathSpec) -> float:
    """Overlap <psi| rho(tau_l) |psi> after thermal dephasing.

    Equals sum_s p_s |sum_n |c_n|^2 exp(-i tau_l n (omega_total +
    2 gamma_plus s))|^2 = B_0 + 2 sum_{k>=1} B_k Re(phi_k d_k), d_k the
    closed-form Gibbs mean of evolve_dephasing and B the autocorrelation of
    |c|^2 (cached on the state, so O(n_max) after its first use); bounded by
    1, reaching it whenever every relative phase winds by a multiple of 2 pi.
    """
    b = state._pop_autocorr
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

    N = 2 sum_{n<m} |c_n||c_m| v_{m-n}, where v_k = visibility_closed(bath,
    tau_l gamma_plus, k) is the modulus of the closed-form Gibbs mean that
    evolve_dephasing uses, so it matches the eigensolver route on that matrix.
    """
    return _negativity(state, _thermal_phase_means(state.n_max, params, bath))


def _decay_scale(epsilon: float, gamma: float) -> float:
    """The prefactor 4 epsilon^2 Gamma of the timing decay exp(-4 epsilon^2 Gamma k^2).

    A rate of 0 (tau_l = 0) gives exactly 0 even where epsilon^2 overflows.
    The prefactor is capped at _FULL_DECAY, past which every k >= 1 decays to
    0.0 all the same, so no inf * 0 and no overflow is ever formed.
    """
    return min(4.0 * epsilon * epsilon * gamma, _FULL_DECAY) if gamma > 0 else 0.0


def _timing_decay(epsilon: float, gamma: float, n_max: int) -> np.ndarray:
    """exp(-4 epsilon^2 Gamma k^2) for k = 0..n_max; d_0 is exactly 1."""
    k = np.arange(n_max + 1, dtype=float)
    return np.exp(-(_decay_scale(epsilon, gamma) * k * k))


def _dissipative_factors(n_max: int, params: ChannelParams, bath: BathSpec) -> np.ndarray:
    """Thermal means times exp(-4 epsilon^2 Gamma k^2), Gamma the closed-form rate at bath T."""
    decay = _timing_decay(params.epsilon, dissipation_rate(bath, params.tau_l), n_max)
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
    rate), matching evolve_with_dissipation at T > 0.  At T = 0 every
    thermal visibility is 1, so the real decay row is reduced alone.
    """
    if bath.temperature > 0.0 and not combined:
        raise ParameterError(
            "the plain dissipative series is a T = 0 result; pass combined=True "
            "to fold in thermal visibilities"
        )
    decay = _timing_decay(params.epsilon, dissipation_rate(bath, params.tau_l), state.n_max)
    if bath.temperature > 0.0:
        decay = decay * _thermal_phase_means(state.n_max, params, bath)
    return _negativity(state, decay)


def timing_negativities(
    state: NonGaussianState, epsilon: float, taus: list, bath: BathSpec
) -> list:
    """negativity_dissipative at every tau_l in taus, bit for bit, for a T = 0 bath.

    Element i is negativity_dissipative(state, params, bath) for any
    ChannelParams with tau_l = taus[i] and this epsilon: at T = 0 the
    frequencies and gamma_plus do not enter.  epsilon and every tau_l are
    refused as ChannelParams refuses them, with its messages, and so is a bath
    at T > 0.  The decay rows are built in 2-D blocks of at most _BLOCK_CELLS
    cells, and each row is reduced with its own dot product against A_k: a row
    keeps the bits of the one-rate route, which one matrix product would not.
    """
    _require_finite_nonnegative("epsilon", epsilon)
    for tau_l in taus:
        _require_finite_nonnegative("tau_l", tau_l)
    if bath.temperature > 0.0:
        raise ParameterError(
            "timing_negativities is a T = 0 result; use negativity_dissipative with "
            "combined=True at T > 0"
        )
    k = np.arange(state.n_max + 1, dtype=float)
    a = state._abs_autocorr[1:]
    scales = [_decay_scale(epsilon, dissipation_rate(bath, tau_l)) for tau_l in taus]
    rows = max(1, _BLOCK_CELLS // k.size)
    out = []
    for start in range(0, len(scales), rows):
        decay = np.exp(-(np.array(scales[start : start + rows])[:, None] * k * k))
        out += [2.0 * float(np.dot(row[1:], a)) for row in decay]
    return out
