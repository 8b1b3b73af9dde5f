"""Transmission of non-Gaussian two-mode entanglement through a protected fiber.

The package models photon-subtracted two-mode squeezed vacuum states riding
a fiber whose collective noise is tamed two ways at once: the states live on
a fixed-offset photon-number manifold that the difference coupling cannot
dephase, and periodic quarter-cycle phase shifters flip the sign of the
pair-exchange coupling so its effect cancels over successive segments.
Modules: fock (dense two-mode linear algebra), states (manifold states),
negativity (PPT entanglement measures), bath (thermal weights and Ohmic
dissipation rates), channel (dephasing and fluctuation decay), bangbang
(brute-force pulse simulation), design (spacing bounds), cli.
"""

from .bath import (
    BathSpec,
    dissipation_rate,
    dissipation_rate_closed,
    dissipation_rate_quadrature,
    gibbs_weights,
    ohmic_memory,
    visibility_closed,
    visibility_direct,
)
from .channel import (
    ChannelParams,
    evolve_dephasing,
    evolve_with_dissipation,
    fidelity,
    negativity_after_dephasing,
    negativity_dissipative,
    recovery_times,
    timing_negativities,
    visibility_unity_time,
)
from .design import FiberSpec, max_spacing, segment_time, silica_preset, transit_time
from .fock import (
    FockOperator,
    FockSpace,
    annihilation,
    expm,
    number_operator,
    partial_transpose,
    phase_shifter,
)
from .negativity import (
    negativity_analytic,
    negativity_fock,
    negativity_numeric,
)
from .states import (
    ManifoldDensityMatrix,
    NonGaussianState,
    build_state,
    build_states,
    embed,
    embed_density_matrix,
    normalization,
    wavefunction,
)

__version__ = "0.1.0"

__all__ = [
    "BathSpec",
    "ChannelParams",
    "FiberSpec",
    "FockOperator",
    "FockSpace",
    "ManifoldDensityMatrix",
    "NonGaussianState",
    "annihilation",
    "build_state",
    "build_states",
    "dissipation_rate",
    "dissipation_rate_closed",
    "dissipation_rate_quadrature",
    "embed",
    "embed_density_matrix",
    "evolve_dephasing",
    "evolve_with_dissipation",
    "expm",
    "fidelity",
    "gibbs_weights",
    "max_spacing",
    "negativity_after_dephasing",
    "negativity_analytic",
    "negativity_dissipative",
    "negativity_fock",
    "negativity_numeric",
    "normalization",
    "number_operator",
    "ohmic_memory",
    "partial_transpose",
    "phase_shifter",
    "recovery_times",
    "segment_time",
    "silica_preset",
    "timing_negativities",
    "transit_time",
    "visibility_closed",
    "visibility_direct",
    "visibility_unity_time",
    "wavefunction",
]
