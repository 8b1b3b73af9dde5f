"""Thermal phonon statistics and Ohmic-bath dissipation rates.

Two bath effects enter the fiber channel: a thermal phase spread, the mean
of a phase over the Gibbs distribution of a representative phonon mode, and
a dissipative decay rate, the integral of an Ohmic memory kernel with
exponential cutoff against the accumulated phase filter
2 sin^2(omega tau / 2) / omega^2.  Both are evaluated in closed form at any
temperature (gibbs_phase_mean, dissipation_rate).  Each keeps an independent
oracle: the direct sum over the Gibbs levels (visibility_direct), cut where
the mass left out falls below GIBBS_TAIL_TOL = 1e-18, and the panel
quadrature of the integral (dissipation_rate_quadrature).  A temperature
whose kB T underflows to 0 counts as T = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .constants import HBAR, K_B
from .errors import (
    GibbsLevelsExceeded,
    ParameterError,
    QuadratureNonConvergence,
    ZeroModeDifference,
    ZeroTemperature,
)

GIBBS_TAIL_TOL = 1e-18  # Gibbs mass left out by the oracle's level cut
GIBBS_MAX_LEVELS = 2**22  # the oracle refuses more: 32 MiB per array, ~2e4 K at 2.62e10 rad/s
_MAX_PANELS = 2**17  # quadrature refuses more: 32-node panels, 32 MiB per float64 array
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

    def _level_over_kt(self) -> float:
        """hbar Omega / kB T; +inf where kB T is 0, at T = 0 or where it underflows."""
        kt = K_B * self.temperature
        return HBAR * self.omega_phonon / kt if kt else math.inf

    def boltzmann_ratio(self) -> float:
        """exp(-hbar Omega / kB T), the Gibbs weight ratio between levels; 0 at T = 0."""
        return math.exp(-self._level_over_kt())

    def mean_occupation(self) -> float:
        """Mean occupation q / (1-q), 1 - q taken as -expm1(-hbar Omega / kB T); 0 at T = 0."""
        beta = self._level_over_kt()
        return math.exp(-beta) / -math.expm1(-beta)


def gibbs_weights(bath: BathSpec):
    """Thermal occupation probabilities p_s, truncated and renormalized.

    Returns (weights, s_max).  The zero-point energy cancels in the ratio, so
    p_s is geometric: p_s = (1-q) q^s with q = exp(-hbar Omega / kB T).  The
    cut is the smallest s_max whose left-out mass q^(s_max+1) is below
    GIBBS_TAIL_TOL; weights are rescaled to sum to one exactly.  More than
    GIBBS_MAX_LEVELS levels are refused before any array is allocated.
    """
    q = bath.boltzmann_ratio()
    s_max = 0 if q == 0.0 else max(0, math.ceil(math.log(GIBBS_TAIL_TOL) / math.log(q)) - 1)
    if s_max + 1 > GIBBS_MAX_LEVELS:
        raise GibbsLevelsExceeded(f"{s_max + 1} Gibbs levels exceed the cap of {GIBBS_MAX_LEVELS}")
    w = (1.0 - q) * q ** np.arange(s_max + 1)
    w /= w.sum()
    return w, s_max


def gibbs_phase_mean(n_bar: float, phi) -> np.ndarray:
    """sum_s p_s exp(-i phi s) over the whole Gibbs distribution, elementwise in phi.

    (1-q) / (1 - q e^(-i phi)) = 1 / (1 - n_bar expm1(-i phi)), n_bar from
    BathSpec.mean_occupation.  The denominator's real part is
    1 + n_bar (1 - cos phi) >= 1, so nothing cancels; phi = 0 or n_bar = 0
    (T = 0) gives exactly 1.
    """
    return 1.0 / (1.0 - n_bar * np.expm1(-1j * np.asarray(phi, dtype=float)))


def _modulus(z: np.ndarray, x):
    """|z| elementwise, a float where x is a scalar.

    np.hypot of the parts gives the bits of abs() on each complex scalar;
    numpy's vectorized abs of a complex array can differ in the last bit.
    """
    out = np.hypot(z.real, z.imag)
    return float(out) if np.ndim(x) == 0 else out


def visibility_direct(bath: BathSpec, x, k: int):
    """|sum_s p_s exp(-2 i x s k)| by direct summation over Gibbs weights, elementwise in x.

    The weights are built once for the whole x array, which costs one
    (x.size, s_max + 1) array; more than GIBBS_MAX_LEVELS cells are refused
    before it is allocated, as a scalar x past that many levels is.  Each
    element is the bits of its scalar call.  A scalar x returns a float.
    """
    if k == 0:
        raise ZeroModeDifference("visibility requires k != 0")
    w, s_max = gibbs_weights(bath)
    if np.size(x) * (s_max + 1) > GIBBS_MAX_LEVELS:
        raise GibbsLevelsExceeded(
            f"{np.size(x)} x values times {s_max + 1} Gibbs levels exceed the cap of "
            f"{GIBBS_MAX_LEVELS}"
        )
    s = np.arange(s_max + 1)
    xs = np.asarray(x, dtype=float)[..., None]
    return _modulus(np.sum(w * np.exp(-2j * xs * k * s), axis=-1), x)


def visibility_closed(bath: BathSpec, x, k: int):
    """|gibbs_phase_mean| at phi = 2 x k, elementwise in x; period pi/|k| in x.

    The channels' thermal mean.  A scalar x returns a float.
    """
    if k == 0:
        raise ZeroModeDifference("visibility requires k != 0")
    if bath.temperature == 0.0:
        raise ZeroTemperature("closed-form visibility is written for T > 0")
    phi = 2.0 * np.asarray(x, dtype=float) * k
    return _modulus(gibbs_phase_mean(bath.mean_occupation(), phi), x)


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
    omega_c^2 for x >> 1, within ~1/x^2.  Where these products overflow
    (from x ~ 1e72 at omega_c = 2.62e10) the ratio is taken in y = 1/x^2 as
    (1 + 3y) / (1 + y)^2, finite at every finite x.  Exactly 0 at tau_l = 0,
    even where omega_c^2 overflows.  Units rad^2/s^2.
    """
    if omega_c <= 0:
        raise ParameterError("omega_c must be > 0")
    if not tau_l >= 0:
        raise ParameterError(f"tau_l must be >= 0, got {tau_l}")
    if tau_l == 0:
        return 0.0
    omega_c, tau_l = float(omega_c), float(tau_l)  # Python floats raise, never warn
    x = omega_c * tau_l
    x2 = x * x
    try:
        rate = omega_c * omega_c * x2 * (3.0 + x2) / (1.0 + x2) ** 2
    except OverflowError:  # (1 + x^2)^2 past the float range
        rate = math.inf
    if rate < math.inf or x2 <= 1.0:
        return rate
    y = 1.0 / x2
    return omega_c * omega_c * (1.0 + 3.0 * y) / (1.0 + y) ** 2


def _power_gap(m, w, v):
    """w^-m - Re (w - i v)^-m for w > 0, without cancellation.

    With t = v / w and theta = atan t, (w - i v)^-m = w^-m cos^m(theta) e^(i m theta),
    so the gap is w^-m [(1 - cos^m theta) + cos^m theta (1 - cos m theta)]: two
    non-negative terms, the first an expm1 and the second a squared sine.
    """
    t = v / w
    theta = np.arctan(t)
    with np.errstate(over="ignore"):  # t^2 = inf past t ~ 1e154 gives the limit radial = 1
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
    """Composite Gauss-Legendre integral of f over [0, upper] in fixed panels.

    The panel count is compared with _MAX_PANELS as a float, before int()
    and before any array exists, so a width of 0 or a count past the float
    range is refused like any other count past the cap.
    """
    panels = upper / width if width > 0 else math.inf
    if not panels <= _MAX_PANELS:
        raise QuadratureNonConvergence(f"{panels:.6g} quadrature panels exceed {_MAX_PANELS}")
    n_panels = math.ceil(panels)
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
    no wider than half the cutoff scale and one period 2 pi / tau_l of
    sin^2(omega tau_l / 2), on which the 16- and 32-node rules already agree
    to ~1e-15; the upper limit is extended until the exponential tail is
    negligible, and two quadrature orders must agree (the panels are halved
    up to three times) or the routine raises.  The panel count grows as
    omega_c tau_l and is capped at _MAX_PANELS, which at T = 0 admits
    x = omega_c tau_l up to about 2.35e4; past it, and at tau_l = inf,
    QuadratureNonConvergence is raised before any array is allocated.  So
    this is an independent check of dissipation_rate at moderate x, not a
    route the channels use.
    """
    if not tau_l >= 0:
        raise ParameterError(f"tau_l must be >= 0, got {tau_l}")
    if tau_l == 0.0:
        return 0.0
    wc = bath.omega_c
    temp = bath.temperature if K_B * bath.temperature else 0.0  # kB T underflows: T = 0 route

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

    width = min(0.5 * wc, 2.0 * math.pi / tau_l)
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
