"""Run configuration: physical data, grid sizes, output options.

Nine keys: ``grav``, ``rho_plus``, ``rho_minus`` and ``h`` (numbers),
``n_points``, ``n_samples`` and ``precision`` (integers), ``format``
(``"csv"`` or ``"json"``) and ``out`` (a path, or None for stdout).  No
key sets a solver tolerance: every slope solve runs to rounding.

Precedence when assembling a config is built-in defaults, then a JSON
config file, then explicit CLI flags.  Defaults use g * (rho_plus -
rho_minus) = 1 so that lambda and gamma coincide numerically on the
fundamental branch, which keeps desk verification simple.
"""

from __future__ import annotations

from typing import NamedTuple

from .curve import PhysicalParams
from .errors import ConfigError, DomainError

__all__ = ["RunConfig"]

#: accepted types and their description per key; bool is an int but is refused
_NUMBER = ((int, float), "a number")
_INTEGER = (int, "an integer")
_TYPES = {
    "grav": _NUMBER,
    "rho_plus": _NUMBER,
    "rho_minus": _NUMBER,
    "h": _NUMBER,
    "n_points": _INTEGER,
    "n_samples": _INTEGER,
    "format": (str, "a string"),
    "out": ((str, type(None)), "a string or null"),
    "precision": _INTEGER,
}


class RunConfig(NamedTuple):
    grav: float = 1.0
    rho_plus: float = 1.0
    rho_minus: float = 0.0
    h: float = 2.0
    n_points: int = 50
    n_samples: int = 513
    format: str = "csv"
    out: str | None = None
    precision: int = 17

    def validate(self) -> None:
        for name, value in zip(self._fields, self):
            types, kind = _TYPES[name]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(f"{name} must be {kind}, got {value!r}")
        for name in ("n_points", "n_samples"):
            if getattr(self, name) < 2:
                raise ConfigError(f"{name} must be >= 2, got {getattr(self, name)}")
        if not 6 <= self.precision <= 17:
            raise ConfigError(f"precision must lie in [6, 17], got {self.precision}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.format!r}")
        try:
            self.physical()
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

    def physical(self) -> PhysicalParams:
        return PhysicalParams(
            grav=self.grav, rho_plus=self.rho_plus, rho_minus=self.rho_minus, h=self.h
        )

    def updated(self, **overrides) -> "RunConfig":
        """Copy with non-None overrides applied; unknown keys are rejected."""
        clean = {}
        for key, value in overrides.items():
            if key not in self._fields:
                raise ConfigError(f"unknown configuration key {key!r}")
            if value is not None:
                clean[key] = value
        return self._replace(**clean)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        import json

        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path}: expected a JSON object")
        return cls().updated(**data)
