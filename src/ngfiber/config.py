"""Flat key = value run-configuration files (a small TOML-like subset).

Grammar: optional [section] headers, one `key = value` pair per line,
`#` comments, blank lines ignored.  Values are integers, floats, bare
strings, or comma-separated lists of those.  Parse errors carry the line
number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, ParameterError

SWEEP_AXES = ("p", "zeta", "gamma_plus", "temperature", "epsilon", "tau_l")
OBSERVABLES = ("negativity", "negativity_dephased", "negativity_dissipative", "fidelity")

_FIXED_DEFAULTS = {
    "p": 1,
    "zeta": 0.5,
    "gamma_plus": 0.0,
    "temperature": 0.0,
    "epsilon": 0.0,
    "tau_l": 0.0,
    "omega_a": 0.0,
    "omega_b": 0.0,
    "omega_phonon": 2.62e10,
    "omega_c": 2.62e10,
    "tail_tol": 1e-12,
}


def _parse_scalar(token: str):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def parse_config(text: str) -> dict:
    """Parse config text into {section: {key: value}}; '' is the root section."""
    sections: dict = {"": {}}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"malformed section header {raw.strip()!r}", line=lineno)
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("empty key", line=lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in section [{current}]", line=lineno)
        if "," in value:
            sections[current][key] = [_parse_scalar(tok) for tok in value.split(",") if tok.strip()]
        else:
            sections[current][key] = _parse_scalar(value)
    return sections


@dataclass
class RunConfig:
    """Validated sweep description: fixed parameters, grid axes, observables."""

    fixed: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    observables: tuple = OBSERVABLES

    def __post_init__(self):
        merged = dict(_FIXED_DEFAULTS)
        for key, value in self.fixed.items():
            if key not in _FIXED_DEFAULTS:
                raise ParameterError(f"unknown fixed parameter {key!r}")
            if not isinstance(value, (int, float)):
                raise ParameterError(f"fixed parameter {key!r} must be a number")
            merged[key] = value
        self.fixed = merged

        grid = {}
        for key, values in self.grid.items():
            if key not in SWEEP_AXES:
                raise ParameterError(
                    f"unknown grid axis {key!r}; valid axes: {', '.join(SWEEP_AXES)}"
                )
            if not isinstance(values, list):
                values = [values]
            if not values:
                raise ParameterError(f"grid axis {key!r} has no values")
            if not all(isinstance(v, (int, float)) for v in values):
                raise ParameterError(f"grid axis {key!r} must list numbers")
            grid[key] = list(values)
        self.grid = grid

        obs = tuple(self.observables)
        for name in obs:
            if name not in OBSERVABLES:
                raise ParameterError(
                    f"unknown observable {name!r}; valid: {', '.join(OBSERVABLES)}"
                )
        if not obs:
            raise ParameterError("at least one observable is required")
        self.observables = obs

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        sections = parse_config(text)
        for name in sections:
            if name not in ("", "fixed", "grid", "output"):
                raise ParameterError(f"unknown config section [{name}]")
        fixed = {**sections.get("", {}), **sections.get("fixed", {})}
        grid = sections.get("grid", {})
        out = sections.get("output", {})
        observables = out.get("observables", list(OBSERVABLES))
        if isinstance(observables, str):
            observables = [observables]
        return cls(fixed=fixed, grid=grid, observables=tuple(observables))

    def axes_in_canonical_order(self):
        """Grid axes ordered by the fixed axis priority, not declaration order."""
        return [axis for axis in SWEEP_AXES if axis in self.grid]
