"""Neutral kaon basics: constants, the single-kaon eigenstates and their
free-propagation factors.

All times are measured in units of the K_S mean lifetime tau_S, so gamma_S = 1
by default and every other scale is a ratio.  The strangeness basis is fixed by
the convention K0 = (K_S + K_L)/sqrt(2), K0bar = (K_S - K_L)/sqrt(2), used
consistently throughout the package.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

_SQRT2 = math.sqrt(2.0)


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class SingularStateError(ValueError):
    """Raised when an operation needs a nonzero-norm state and gets none."""


def finite_number(name: str, value) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a finite
    real number (booleans and strings are not numbers)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"{name} must be a finite number, got {value!r}")


class Observable(Enum):
    STRANGENESS = "strangeness"
    LIFETIME = "lifetime"


class Outcome(Enum):
    K0 = "K0"
    K0BAR = "K0bar"
    KS = "KS"
    KL = "KL"

    @property
    def observable(self) -> Observable:
        if self in (Outcome.K0, Outcome.K0BAR):
            return Observable.STRANGENESS
        return Observable.LIFETIME


class Procedure(Enum):
    ACTIVE = "active"
    PASSIVE = "passive"


@dataclass(frozen=True)
class PhysicalConstants:
    """Widths, mass difference and branching ratios of the neutral kaon system.

    ``gamma_S`` is in units of 1/tau_S, ``delta_m`` in hbar/tau_S.  The two-pion
    and three-pion branching ratios default to the complements of the
    semileptonic ones, so each eigenstate's branching ratios sum to one.
    """

    gamma_S: float = 1.0
    gamma_L: float = 1.0 / 579.0
    delta_m: float = 0.4737
    br_sl_L: float = 0.66
    br_sl_S: float = 1.1e-3
    br_2pi_S: float | None = None
    br_3pi_L: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                finite_number(f"constants field {f.name!r}", value)
        if self.br_2pi_S is None:
            object.__setattr__(self, "br_2pi_S", 1.0 - self.br_sl_S)
        if self.br_3pi_L is None:
            object.__setattr__(self, "br_3pi_L", 1.0 - self.br_sl_L)
        if not (self.gamma_S > self.gamma_L > 0.0):
            raise ValueError("need gamma_S > gamma_L > 0")
        for name in ("br_sl_L", "br_sl_S", "br_2pi_S", "br_3pi_L"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if abs(self.br_sl_S + self.br_2pi_S - 1.0) > 1e-9:
            raise ValueError("br_sl_S + br_2pi_S must equal 1")
        if abs(self.br_sl_L + self.br_3pi_L - 1.0) > 1e-9:
            raise ValueError("br_sl_L + br_3pi_L must equal 1")

    @property
    def delta_gamma(self) -> float:
        """Gamma_L - Gamma_S (negative for kaons)."""
        return self.gamma_L - self.gamma_S

    @property
    def gamma_mean(self) -> float:
        return 0.5 * (self.gamma_S + self.gamma_L)

    def semileptonic_width_mismatch(self) -> float:
        """Relative disagreement of br_sl_L*Gamma_L vs br_sl_S*Gamma_S.

        The Delta-S = Delta-Q rule makes both products equal to the
        semileptonic partial width of either strangeness eigenstate; with the
        measured defaults they agree to about 4 percent.  Two zero widths
        agree exactly.
        """
        wl = self.br_sl_L * self.gamma_L
        ws = self.br_sl_S * self.gamma_S
        if wl == ws == 0.0:
            return 0.0
        return abs(wl - ws) / max(wl, ws)

    @classmethod
    def from_json(cls, source: str | Path | dict) -> "PhysicalConstants":
        """Build constants from a dict, JSON text (a ``str``, never read as a
        file name) or a JSON file (a ``Path``); missing fields take defaults."""
        if isinstance(source, Path):
            source = source.read_text()
        doc = json.loads(source) if isinstance(source, str) else source
        if not isinstance(doc, dict):
            raise ValueError(f"constants must be a JSON object, got {doc!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown constants field(s): {sorted(unknown)}")
        return cls(**doc)


@dataclass(frozen=True)
class SingleKaonState:
    """Amplitudes on |K_S> and |K_L>."""

    c_S: complex
    c_L: complex


_EIGENSTATES = {
    Outcome.K0: SingleKaonState(1.0 / _SQRT2, 1.0 / _SQRT2),
    Outcome.K0BAR: SingleKaonState(1.0 / _SQRT2, -1.0 / _SQRT2),
    Outcome.KS: SingleKaonState(1.0, 0.0),
    Outcome.KL: SingleKaonState(0.0, 1.0),
}


def make_state(outcome: Outcome) -> SingleKaonState:
    """The normalized eigenstate of a measurement outcome (a shared instance)."""
    try:
        return _EIGENSTATES[outcome]
    except (KeyError, TypeError):
        raise ValueError(f"unknown outcome {outcome!r}") from None


def evolution_factors(tau: float, k: PhysicalConstants) -> tuple[complex, complex]:
    """Free-propagation factors on (c_S, c_L) with the global phase dropped.

    Only the relative phase exp(-i*delta_m*tau) and the moduli
    exp(-Gamma*tau/2) are observable, so the K_S factor is kept real.
    """
    f_S = math.exp(-0.5 * k.gamma_S * tau)
    f_L = cmath.exp(-1j * k.delta_m * tau) * math.exp(-0.5 * k.gamma_L * tau)
    return f_S, f_L


def beam_norm(tau: float, k: PhysicalConstants) -> float:
    """Single-beam survivor normalization N(tau) = [exp(-G_S t)+exp(-G_L t)]/2.

    This is the survival probability of an initial strangeness eigenstate; it
    appears in every passive-measurement probability.
    """
    return 0.5 * (math.exp(-k.gamma_S * tau) + math.exp(-k.gamma_L * tau))
