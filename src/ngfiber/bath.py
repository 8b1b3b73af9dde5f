"""Thermal phonon statistics and Ohmic-bath dissipation rates.

Two bath effects enter the fiber channel: a thermally weighted phase spread
(captured by visibility factors over the Gibbs distribution of a
representative phonon mode, cut where the Gibbs mass left out falls below
GIBBS_TAIL_TOL = 1e-12) and a dissipative decay rate, the integral of an
Ohmic memory kernel with exponential cutoff against the accumulated phase
filter 2 sin^2(omega tau / 2) / omega^2.  The rate is evaluated in closed
form at any temperature (dissipation_rate); the panel quadrature of the
integral (dissipation_rate_quadrature) is kept as an independent oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .constants import HBAR, K_B
from .errors import (
    ParameterError,
    QuadratureNonConvergence,
    ZeroModeDifference,
    ZeroTemperature,
)

GIBBS_TAIL_TOL = 1e-12  # Gibbs mass left out by the level cut
_MAX_PANELS = 2**20  # quadrature refuses more: 32-node panels, 256 MiB per float64 array
_gauss_legendre = functools.cache(leggauss)  # the quadrature's two orders; 0.8 ms to rebuild
_RATE_HEAD = 16  # reduced-cutoff terms summed directly before the trigamma tail
# psi'(z) ~ sum_m _TRIGAMMA_COEFFS[m-1] / z^m = 1/z + 1/(2 z^2) + sum_j B_2j / z^(2j+1), with
# B_2 .. B_16; at Re z >= _RATE_HEAD the first term left out, B_18 / z^19, is below 1e-21
_TRIGAMMA_COEFFS = np.array(
    [1, 1 / 2, 1 / 6, 0, -1 / 30, 0, 1 / 42, 0, -1 / 30, 0, 5 / 66, 0, -691 / 2730, 0, 7 / 6, 0,
     -3617 / 510]
)


@dataclass
class BathSpec:
    """Representative phonon mode plus Ohmic continuum parameters."""

    omega_phonon: float  # rad/s, level spacing of the representative mode
    temperature: float  # K
    omega_c: float  # rad/s, Ohmic cutoff

    def __post_init__(self):
        if not 0 < self.omega_phonon < math.inf:
            raise ParameterError(f"omega_phonon must be finite and > 0, got {self.omega_phonon}")
        if not 0 <= self.temperature < math.inf:
            raise ParameterError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not 0 < self.omega_c < math.inf:
            raise ParameterError(f"omega_c must be finite and > 0, got {self.omega_c}")
        if self.boltzmann_ratio() == 1.0:
            raise ParameterError(
                f"temperature {self.temperature} K is too high: the Boltzmann ratio "
                "exp(-hbar Omega / kB T) rounds to 1"
            )

    def boltzmann_ratio(self) -> float:
        """exp(-hbar Omega / kB T), the Gibbs weight ratio between levels."""
        if self.temperature == 0.0:
            return 0.0
        return math.exp(-HBAR * self.omega_phonon / (K_B * self.temperature))


def _gibbs_levels(bath: BathSpec):
    """(q, s_max): Boltzmann ratio and the smallest cut with q^(s_max+1) < GIBBS_TAIL_TOL."""
    q = bath.boltzmann_ratio()
    if q == 0.0:
        return q, 0
    return q, max(0, math.ceil(math.log(GIBBS_TAIL_TOL) / math.log(q)) - 1)


def gibbs_weights(bath: BathSpec):
    """Thermal occupation probabilities p_s, truncated and renormalized.

    Returns (weights, s_max).  The zero-point energy cancels in the ratio, so
    p_s is geometric: p_s = (1-q) q^s with q = exp(-hbar Omega / kB T).  The
    cut keeps the neglected mass below GIBBS_TAIL_TOL; weights are rescaled
    to sum to one exactly.
    """
    q, s_max = _gibbs_levels(bath)
    s = np.arange(s_max + 1)
    w = (1.0 - q) * q ** s
    w /= w.sum()
    return w, s_max


def visibility_direct(bath: BathSpec, x: float, k: int) -> float:
    """|sum_s p_s exp(-2 i x s k)| by direct summation over Gibbs weights."""
    if k == 0:
        raise ZeroModeDifference("visibility requires k != 0")
    w, s_max = gibbs_weights(bath)
    s = np.arange(s_max + 1)
    return float(abs(np.sum(w * np.exp(-2j * x * k * s))))


def visibility_closed(bath: BathSpec, x: float, k: int) -> float:
    """Closed form of the thermal visibility.

    v = (1/2Z) / |sinh(hbar Omega / 2 kB T + i x k)| with the partition
    function Z = 1 / (2 sinh(hbar Omega / 2 kB T)); using
    |sinh(a+ib)|^2 = sinh^2 a + sin^2 b this is evaluated in the
    overflow-safe form 1 / sqrt(1 + (sin(xk)/sinh(a))^2).  Periodic in x
    with period pi/|k|.
    """
    if k == 0:
        raise ZeroModeDifference("visibility requires k != 0")
    if bath.temperature == 0.0:
        raise ZeroTemperature("closed-form visibility is written for T > 0")
    a = HBAR * bath.omega_phonon / (2.0 * K_B * bath.temperature)
    if a > 300.0:  # sinh overflows; the ratio is 1 to better than 1e-260
        return 1.0
    ratio = math.sin(x * k) / math.sinh(a)
    return 1.0 / math.sqrt(1.0 + ratio * ratio)


def ohmic_memory(omega, omega_c: float):
    """Ohmic memory kernel with exponential cutoff, omega^2 exp(-omega/omega_c).

    Mass-normalized so the spectral shape is exactly this expression; its
    maximum sits at omega = 2 omega_c.
    """
    omega = np.asarray(omega, dtype=float)
    return omega * omega * np.exp(-omega / omega_c)


def dissipation_rate_closed(omega_c: float, tau_l: float) -> float:
    """Zero-temperature dissipation rate, x^2 (3 + x^2) / (1 + x^2)^2 * omega_c^2.

    x = omega_c tau_l.  Grows as 3 x^2 omega_c^2 for x << 1 and saturates at
    omega_c^2 for x >> 1.  Units rad^2/s^2.
    """
    if omega_c <= 0:
        raise ParameterError("omega_c must be > 0")
    if tau_l < 0:
        raise ParameterError("tau_l must be >= 0")
    x = omega_c * tau_l
    x2 = x * x
    return omega_c * omega_c * x2 * (3.0 + x2) / (1.0 + x2) ** 2


def _power_gap(m, w, v):
    """w^-m - Re (w - i v)^-m for w > 0, without cancellation.

    With t = v / w and theta = atan t, (w - i v)^-m = w^-m cos^m(theta) e^(i m theta),
    so the gap is w^-m [(1 - cos^m theta) + cos^m theta (1 - cos m theta)]: two
    non-negative terms, the first an expm1 and the second a squared sine.
    """
    t = v / w
    theta = np.arctan(t)
    radial = -np.expm1(-0.5 * m * np.log1p(t * t))
    angular = np.cos(theta) ** m * 2.0 * np.sin(0.5 * m * theta) ** 2
    return w ** -m * (radial + angular)


def dissipation_rate(bath: BathSpec, tau_l: float) -> float:
    """Dissipation rate at the bath temperature, in closed form.

    Expanding coth(y) = 1 + 2 sum_{k>=1} e^(-2ky) in the spectral integral
    turns each term into the zero-temperature rate at a reduced cutoff
    omega_c,k = 1 / (1/omega_c + k hbar / kB T):

        Gamma(T) = Gamma_0(omega_c) + 2 sum_{k>=1} Gamma_0(omega_c,k).

    With theta_T = kB T / hbar, u = theta_T / omega_c and v = theta_T tau_l,
    term k is theta_T^2 [(u+k)^-2 - Re (u+k - i v)^-2], non-negative.  The
    first terms are summed directly; the rest, from k = _RATE_HEAD on, is
    psi'(w) - Re psi'(w - i v) at w = u + _RATE_HEAD, evaluated from the
    trigamma asymptotic series one power gap at a time.  O(1) cost at any
    omega_c tau_l; at T = 0 it is dissipation_rate_closed.  Units rad^2/s^2.
    """
    rate0 = dissipation_rate_closed(bath.omega_c, tau_l)
    if bath.temperature == 0.0:
        return rate0
    theta_t = K_B * bath.temperature / HBAR
    u, v = theta_t / bath.omega_c, theta_t * tau_l
    head = _power_gap(2, u + np.arange(1, _RATE_HEAD), v).sum()
    m = np.arange(1, len(_TRIGAMMA_COEFFS) + 1)
    tail = np.dot(_TRIGAMMA_COEFFS, _power_gap(m, u + _RATE_HEAD, v))
    return rate0 + 2.0 * theta_t * theta_t * float(head + tail)


def _coth_factor(omega: np.ndarray, temperature: float) -> np.ndarray:
    """2 omega coth(hbar omega / 2 kB T), with the omega -> 0 limit analytic.

    The coth divergence cancels against the omega prefactor: the small-y
    expansion coth(y) = 1/y + y/3 + O(y^3) gives
    2 omega coth -> 4 kB T / hbar + hbar omega^2 / (3 kB T).
    """
    if temperature == 0.0:
        return 2.0 * omega
    y = HBAR * omega / (2.0 * K_B * temperature)
    small = y < 1e-6
    out = np.tanh(y)
    np.divide(2.0 * omega, out, out=out, where=~small)
    # second-order small-y correction is y^2/3 relative, < 1e-12 here
    out[small] = 4.0 * K_B * temperature / HBAR + HBAR * omega[small] ** 2 / (
        3.0 * K_B * temperature
    )
    return out


def _panel_integral(f, upper: float, width: float, order: int) -> float:
    """Composite Gauss-Legendre integral of f over [0, upper] in fixed panels."""
    n_panels = max(1, int(math.ceil(upper / width)))
    if n_panels > _MAX_PANELS:
        raise QuadratureNonConvergence(f"{n_panels} quadrature panels exceed {_MAX_PANELS}")
    nodes, weights = _gauss_legendre(order)
    edges = np.linspace(0.0, upper, n_panels + 1)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    terms = f(pts.ravel()).reshape(pts.shape)
    terms *= half[:, None] * weights[None, :]
    return float(np.sum(terms))


def dissipation_rate_quadrature(bath: BathSpec, tau_l: float) -> float:
    """Dissipation rate by adaptive panel quadrature of the spectral integral.

    Integrates omega^3 exp(-omega/omega_c) coth(hbar omega / 2 kB T)
    * 2 sin^2(omega tau_l / 2) / omega^2 over omega in [0, inf).  Panels are
    kept narrower than both the cutoff scale and a quarter oscillation
    pi / (4 tau_l); the upper limit is extended until the exponential tail is
    negligible, and two quadrature orders must agree or the routine raises.
    The panel count grows as omega_c tau_l and is capped at _MAX_PANELS, so
    this is an independent check of dissipation_rate at moderate x, not a
    route the channels use.
    """
    if tau_l < 0:
        raise ParameterError("tau_l must be >= 0")
    if tau_l == 0.0:
        return 0.0
    wc = bath.omega_c
    temp = bath.temperature

    def integrand(omega):
        out = _coth_factor(omega, temp)
        out *= np.exp(-omega / wc)
        out *= np.sin(0.5 * omega * tau_l) ** 2
        return out

    # extend the window until the analytic tail bound is negligible:
    # integrand <= 2 omega coth(...) exp(-omega/wc), whose tail integral
    # beyond W*wc is < coth-at-W * 2 wc^2 e^-W (1 + W)
    upper = 35.0 * wc
    while True:
        tail_factor = 1.0
        if temp > 0:
            y = HBAR * upper / (2.0 * K_B * temp)
            tail_factor = 1.0 / math.tanh(min(y, 50.0)) if y > 1e-12 else 2.0 / y
        w_over = upper / wc
        tail_bound = tail_factor * 2.0 * wc * wc * math.exp(-w_over) * (1.0 + w_over)
        if tail_bound < 1e-13 * wc * wc or upper > 1e4 * wc:
            break
        upper *= 1.5

    width = min(0.5 * wc, math.pi / (4.0 * tau_l))
    for _ in range(4):
        coarse = _panel_integral(integrand, upper, width, order=16)
        fine = _panel_integral(integrand, upper, width, order=32)
        scale = max(abs(fine), 1e-300)
        if abs(fine - coarse) <= 1e-9 * scale:
            return fine
        width *= 0.5
    raise QuadratureNonConvergence(
        f"panel quadrature failed to stabilize for tau_l = {tau_l:g}"
    )
