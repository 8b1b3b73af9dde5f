"""Phase-shifter spacing design for a protected fiber link.

Given a length, group index, bath cutoff and an acceptable entanglement
loss fraction, the spacing bound inverts the timing-fluctuation decay: with
epsilon equal to the segment transit time tau = Delta n_g / c, the dominant
coherence (|n - m| = 1) keeps a fraction 1 - delta of its weight as long as
4 tau^2 Gamma(tau_l) <= ln 1/(1-delta).  spacing_report assembles the
numbers `ngfiber design` prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
        if 1.0 - self.error_budget == 1.0:
            raise ParameterError(
                f"error_budget {self.error_budget} is too small: 1 - error_budget rounds to 1"
            )
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


def max_spacing(fiber: FiberSpec):
    """Largest spacing meeting the error budget, and its long-link asymptote.

    Returns (delta_max, asymptote) in meters, where

        delta_max = (v / 2) sqrt(ln(1/(1-delta)) / Gamma(tau_l)),
        asymptote = v / (2 omega_c) * sqrt(ln 1/(1-delta)),

    with tau_l the full-link transit time and Gamma the zero-temperature
    rate of bath.dissipation_rate_closed.  A Gamma that is not finite and
    > 0 raises ParameterError: a transit time so short that Gamma underflows
    to 0, or an omega_c whose square overflows.

    delta_max decreases toward the asymptote as the accumulated rate
    saturates; it shrinks with omega_c and grows with the budget delta.
    """
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


def spacing_report(fiber: FiberSpec) -> dict:
    """The link report of `ngfiber design`, in print order.

    The chosen spacing is fiber.delta_spacing when set, else the bound
    max_spacing gives; fiber is not changed.  decay_exponent_at_budget is
    4 tau^2 Gamma(tau_l) at the chosen spacing, which equals
    budget_log_term = ln 1/(1-delta) at the bound, and tau_omega_c is the
    segment time in units of the bath correlation time 1/omega_c, which the
    interleaved-pulse cancellation needs well below 1.  A spacing that
    leaves more segments than a float can count raises ParameterError.
    """
    tau_l = transit_time(fiber)
    delta_max, asymptote = max_spacing(fiber)
    chosen = fiber if fiber.delta_spacing is not None else replace(fiber, delta_spacing=delta_max)
    segments = chosen.length / chosen.delta_spacing
    if segments == math.inf:
        raise ParameterError(
            f"spacing {chosen.delta_spacing} m splits {chosen.length} m into more "
            "segments than a float can hold"
        )
    tau = segment_time(chosen)
    gamma = dissipation_rate_closed(fiber.omega_c, tau_l)
    return {
        "length_m": fiber.length,
        "group_index": fiber.group_index,
        "omega_c_rad_s": fiber.omega_c,
        "error_budget": fiber.error_budget,
        "transit_time_s": tau_l,
        "x_cutoff_times_transit": fiber.omega_c * tau_l,
        "max_spacing_m": delta_max,
        "asymptotic_spacing_m": asymptote,
        "chosen_spacing_m": chosen.delta_spacing,
        "segment_time_s": tau,
        "segment_count": math.ceil(segments),
        "decay_exponent_at_budget": 4.0 * tau * tau * gamma,
        "budget_log_term": math.log(1.0 / (1.0 - fiber.error_budget)),
        "tau_omega_c": tau * fiber.omega_c,
        "pulse_spacing_below_bath_correlation": tau * fiber.omega_c < 1.0,
    }


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
