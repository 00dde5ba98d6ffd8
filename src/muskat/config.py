"""Run configuration: physical data, numeric tolerances, output options.

Precedence when assembling a config is built-in defaults, then a JSON
config file, then explicit CLI flags.  Defaults use g * (rho_plus -
rho_minus) = 1 so that lambda and gamma coincide numerically on the
fundamental branch, which keeps desk verification simple.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .branch import PhysicalParams
from .errors import ConfigError, DomainError

__all__ = ["RunConfig"]


@dataclass
class RunConfig:
    grav: float = 1.0
    rho_plus: float = 1.0
    rho_minus: float = 0.0
    h: float = 2.0
    root_tol: float = 1e-12
    n_points: int = 50
    n_samples: int = 513
    format: str = "csv"
    out: str | None = None
    precision: int = 17

    def validate(self) -> None:
        if self.root_tol <= 0.0:
            raise ConfigError(f"root_tol must be positive, got {self.root_tol}")
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
        known = {f.name for f in dataclasses.fields(self)}
        clean = {}
        for key, value in overrides.items():
            if key not in known:
                raise ConfigError(f"unknown configuration key {key!r}")
            if value is not None:
                clean[key] = value
        return dataclasses.replace(self, **clean)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path}: expected a JSON object")
        return cls().updated(**data)
