"""Phase-shifter spacing design for a protected fiber link.

Given a length, group index, bath cutoff and an acceptable entanglement
loss fraction, the spacing bound inverts the timing-fluctuation decay: with
epsilon equal to the segment transit time tau = Delta n_g / c, the dominant
coherence (|n - m| = 1) keeps a fraction 1 - delta of its weight as long as
4 tau^2 Gamma(tau_l) <= ln 1/(1-delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bath import BathSpec, dissipation_rate_closed
from .channel import ChannelParams
from .constants import C_LIGHT
from .errors import MissingSpacing, ParameterError


@dataclass
class FiberSpec:
    """Link geometry and the decay budget used for the spacing bound."""

    length: float  # m
    group_index: float  # dimensionless
    omega_c: float  # rad/s, bath cutoff
    error_budget: float  # delta, acceptable fractional loss of the leading coherence
    delta_spacing: float | None = None  # m, chosen phase-shifter spacing

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ParameterError(f"length must be finite and > 0, got {self.length}")
        if not 1 <= self.group_index < math.inf:
            raise ParameterError(f"group_index must be finite and >= 1, got {self.group_index}")
        if not 0 < self.omega_c < math.inf:
            raise ParameterError(f"omega_c must be finite and > 0, got {self.omega_c}")
        if not (0 < self.error_budget < 1):
            raise ParameterError("error_budget must be in (0, 1)")
        if self.delta_spacing is not None and not 0 < self.delta_spacing < math.inf:
            raise ParameterError(
                f"delta_spacing must be finite and > 0 when set, got {self.delta_spacing}"
            )

    @property
    def group_velocity(self) -> float:
        return C_LIGHT / self.group_index


def transit_time(fiber: FiberSpec) -> float:
    """Full-link transit time tau_l = L n_g / c."""
    return fiber.length * fiber.group_index / C_LIGHT


def max_spacing(fiber: FiberSpec, tau_l: float | None = None):
    """Largest spacing meeting the error budget, and its long-link asymptote.

    Returns (delta_max, asymptote) in meters, where

        delta_max = (v / 2) sqrt(ln(1/(1-delta)) / Gamma(tau_l)),
        asymptote = v / (2 omega_c) * sqrt(ln 1/(1-delta)),

    with Gamma the zero-temperature rate of bath.dissipation_rate_closed.
    A Gamma that is not finite and > 0 raises ParameterError: tau_l = 0, a
    tau_l so short that Gamma underflows to 0, or an omega_c tau_l whose
    square overflows.

    delta_max decreases toward the asymptote as the accumulated rate
    saturates; it shrinks with omega_c and grows with the budget delta.
    """
    if tau_l is None:
        tau_l = transit_time(fiber)
    rate = dissipation_rate_closed(fiber.omega_c, tau_l)
    if not 0 < rate < math.inf:
        raise ParameterError(
            f"dissipation rate {rate} at tau_l = {tau_l} s is not finite and > 0: "
            "no spacing bound"
        )
    v = fiber.group_velocity
    log_term = math.log(1.0 / (1.0 - fiber.error_budget))
    asymptote = v / (2.0 * fiber.omega_c) * math.sqrt(log_term)
    finite = v / 2.0 * math.sqrt(log_term / rate)
    return finite, asymptote


def segment_time(fiber: FiberSpec) -> float:
    """Transit time of one segment, tau = Delta n_g / c."""
    if fiber.delta_spacing is None:
        raise MissingSpacing("set delta_spacing before asking for the segment time")
    return fiber.delta_spacing * fiber.group_index / C_LIGHT


def bb_timescale_ratio(fiber: FiberSpec) -> float:
    """tau * omega_c: pulse spacing in units of the bath correlation time.

    The interleaved-pulse cancellation assumes this ratio is well below 1.
    """
    return segment_time(fiber) * fiber.omega_c


def silica_preset():
    """Kilometer-scale silica link at the sub-kelvin operating point.

    Returns (FiberSpec, BathSpec, ChannelParams) with omega_c = 2.62e10
    rad/s (about 0.2 K in temperature units), a 5% error budget, spacing at
    the asymptotic bound rounded to 0.8 mm, and telecom-band mode
    frequencies.  The channel tau_l is the full-link transit time and
    epsilon equals the segment transit time of the rounded spacing.
    """
    fiber = FiberSpec(
        length=1000.0,
        group_index=1.6,
        omega_c=2.62e10,
        error_budget=0.05,
        delta_spacing=0.8e-3,
    )
    bath = BathSpec(
        omega_phonon=2.62e10,
        temperature=0.2,
        omega_c=2.62e10,
    )
    params = ChannelParams(
        omega_a=1.216e15,
        omega_b=1.216e15,
        gamma_plus=0.0,
        gamma_minus=0.0,
        tau_l=transit_time(fiber),
        epsilon=segment_time(fiber),
    )
    return fiber, bath, params
