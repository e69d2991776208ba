"""Neutral kaon basics: constants, single-kaon states, evolution and projections.

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
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

_SQRT2 = math.sqrt(2.0)
_NORM_TOL = 1e-12


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

    @property
    def conjugate(self) -> "Outcome":
        """The orthogonal outcome in the same basis."""
        return _CONJUGATE[self]


_CONJUGATE = {
    Outcome.K0: Outcome.K0BAR,
    Outcome.K0BAR: Outcome.K0,
    Outcome.KS: Outcome.KL,
    Outcome.KL: Outcome.KS,
}


class Procedure(Enum):
    ACTIVE = "active"
    PASSIVE = "passive"


@dataclass(frozen=True)
class PhysicalConstants:
    """Widths, mass difference and branching ratios of the neutral kaon system.

    ``gamma_S`` is in units of 1/tau_S, ``delta_m`` in hbar/tau_S.  The two-pion
    and three-pion branching ratios default to the complements of the
    semileptonic ones, so each eigenstate's branching ratios sum to one.
    ``epsilon_overlap`` records the CP-violating <K_S|K_L> overlap as data only;
    it never enters any computation.
    """

    gamma_S: float = 1.0
    gamma_L: float = 1.0 / 579.0
    delta_m: float = 0.4737
    br_sl_L: float = 0.66
    br_sl_S: float = 1.1e-3
    br_2pi_S: float | None = None
    br_3pi_L: float | None = None
    epsilon_overlap: float = 3.2e-3

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
        measured defaults they agree to about 4 percent.
        """
        wl = self.br_sl_L * self.gamma_L
        ws = self.br_sl_S * self.gamma_S
        return abs(wl - ws) / max(wl, ws)

    def delta_s_delta_q_consistent(self, tol: float = 0.10) -> bool:
        return self.semileptonic_width_mismatch() <= tol

    @classmethod
    def from_json(cls, source: str | Path | dict) -> "PhysicalConstants":
        """Build constants from a JSON document; missing fields take defaults."""
        if isinstance(source, dict):
            doc = source
        else:
            text = Path(source).read_text() if Path(str(source)).exists() else str(source)
            doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"constants must be a JSON object, got {doc!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown constants field(s): {sorted(unknown)}")
        return cls(**doc)


@dataclass(frozen=True)
class SingleKaonState:
    """Amplitudes on |K_S> and |K_L>, with a survival-normalization flag."""

    c_S: complex
    c_L: complex
    normalized: bool = False

    def norm_sq(self) -> float:
        return abs(self.c_S) ** 2 + abs(self.c_L) ** 2


def make_state(outcome: Outcome) -> SingleKaonState:
    """The normalized eigenstate associated with a measurement outcome."""
    if outcome is Outcome.K0:
        return SingleKaonState(1.0 / _SQRT2, 1.0 / _SQRT2, normalized=True)
    if outcome is Outcome.K0BAR:
        return SingleKaonState(1.0 / _SQRT2, -1.0 / _SQRT2, normalized=True)
    if outcome is Outcome.KS:
        return SingleKaonState(1.0, 0.0, normalized=True)
    if outcome is Outcome.KL:
        return SingleKaonState(0.0, 1.0, normalized=True)
    raise ValueError(f"unknown outcome {outcome!r}")


def evolution_factors(tau: float, k: PhysicalConstants) -> tuple[complex, complex]:
    """Free-propagation factors on (c_S, c_L) with the global phase dropped.

    Only the relative phase exp(-i*delta_m*tau) and the moduli
    exp(-Gamma*tau/2) are observable, so the K_S factor is kept real.
    """
    f_S = math.exp(-0.5 * k.gamma_S * tau)
    f_L = cmath.exp(-1j * k.delta_m * tau) * math.exp(-0.5 * k.gamma_L * tau)
    return f_S, f_L


def evolve(state: SingleKaonState, tau: float, k: PhysicalConstants) -> SingleKaonState:
    """Non-unitary free evolution for a proper time tau >= 0 (in tau_S)."""
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    f_S, f_L = evolution_factors(tau, k)
    return SingleKaonState(f_S * state.c_S, f_L * state.c_L, normalized=False)


def survival_probability(state: SingleKaonState, tau: float, k: PhysicalConstants) -> float:
    """Probability that a kaon prepared in `state` at the origin is undecayed at tau."""
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if not state.normalized:
        raise ValueError("survival_probability needs a normalized initial state")
    return (abs(state.c_S) ** 2 * math.exp(-k.gamma_S * tau)
            + abs(state.c_L) ** 2 * math.exp(-k.gamma_L * tau))


def normalize_to_survivors(state: SingleKaonState) -> SingleKaonState:
    """Rescale the amplitudes to unit norm (conditioning on no decay)."""
    n2 = state.norm_sq()
    if n2 <= 0.0:
        raise SingularStateError("cannot normalize a zero-norm state")
    n = math.sqrt(n2)
    return SingleKaonState(state.c_S / n, state.c_L / n, normalized=True)


def project(state: SingleKaonState, outcome: Outcome) -> float:
    """Projective probability |<outcome|state>|^2 for a normalized state."""
    if not state.normalized:
        raise ValueError("project needs a normalized state")
    bra = make_state(outcome)
    amp = bra.c_S.conjugate() * state.c_S + bra.c_L.conjugate() * state.c_L
    return abs(amp) ** 2


def beam_norm(tau: float, k: PhysicalConstants) -> float:
    """Single-beam survivor normalization N(tau) = [exp(-G_S t)+exp(-G_L t)]/2.

    This is the survival probability of an initial strangeness eigenstate; it
    appears in every passive-measurement probability.
    """
    return 0.5 * (math.exp(-k.gamma_S * tau) + math.exp(-k.gamma_L * tau))
