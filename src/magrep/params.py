"""Node inputs, the integration failure type and its tolerances, in plain Python.

Kept free of numpy so that ``config`` and ``cli`` can build a run
configuration, and every CLI command can run, without loading the numerical
layers. :mod:`magrep.dynamics` re-exports every name defined here.

Units: all frequencies and rates are angular (rad/s).
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from numbers import Integral

TWO_PI = 2.0 * math.pi

# Checks on every recorded state, shared by both node integrators and by
# qcore's state validation (absolute): Hermiticity max|rho - rho^dag|, the
# floor on the smallest eigenvalue, and the trace drift, which is never
# renormalized away.
HERMITIAN_TOL = 1e-9
PSD_TOL = 1e-9
TRACE_DRIFT_LIMIT = 1e-6


class IntegrationError(RuntimeError):
    """An integrated state lost finiteness, trace, Hermiticity or positivity; never repaired."""


@dataclass(frozen=True)
class LindbladParams:
    """One cavity-magnon node: frequencies, coupling, loss rates, truncations.

    Defaults are a resonant pair at omega/2pi = 10 GHz with coupling
    g_mc/2pi = 130 MHz, cavity decay 1 MHz, magnon decay 0.5 MHz and pure
    dephasing 0.3 MHz on both modes (all /2pi).
    """

    omega_c: float = TWO_PI * 10e9
    omega_m: float = TWO_PI * 10e9
    g_mc: float = TWO_PI * 130e6
    kappa_d: float = TWO_PI * 1e6
    gamma_d: float = TWO_PI * 0.5e6
    kappa_phi: float = TWO_PI * 0.3e6
    gamma_phi: float = TWO_PI * 0.3e6
    dim_c: int = 2
    dim_m: int = 2

    def __post_init__(self) -> None:
        for name in ("omega_c", "omega_m", "g_mc", "kappa_d", "gamma_d", "kappa_phi", "gamma_phi"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        for name in ("dim_c", "dim_m"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 2:
                raise ValueError(f"mode truncations must be integers >= 2, got {name}={value!r}")

    @property
    def is_strong_coupling(self) -> bool:
        """Coupling exceeds half the summed dissipation rates."""
        return self.g_mc > (self.kappa_d + self.kappa_phi + self.gamma_d + self.gamma_phi) / 2.0

    def without_dissipation(self) -> "LindbladParams":
        return dataclasses.replace(self, kappa_d=0.0, gamma_d=0.0, kappa_phi=0.0, gamma_phi=0.0)


@dataclass(frozen=True)
class MaterialParams:
    """Physical inputs for the magnon-cavity coupling rate."""

    gyromagnetic_ratio: float  # rad/(s T)
    vacuum_permeability: float  # T m/A
    total_spin: float  # dimensionless ensemble spin
    cavity_mode_volume: float  # m^3
    omega_c: float  # rad/s

    def __post_init__(self) -> None:
        for name in ("gyromagnetic_ratio", "vacuum_permeability", "total_spin",
                     "cavity_mode_volume", "omega_c"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
