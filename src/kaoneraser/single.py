"""Closed-form single-kaon observables and passive-measurement reconstruction."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (Outcome, PhysicalConstants, beam_norm, evolution_factors,
                   finite_number)
from .decay import OUTCOME_CHANNEL, AmplitudeModel, DecayChannel, decay_width


@dataclass(frozen=True)
class MisidWindow:
    """Decay-time window used to tell K_S from K_L in active lifetime measurements."""

    delta_tau_w: float = 4.8

    def __post_init__(self):
        if finite_number("window", self.delta_tau_w) <= 0:
            raise ValueError("window length must be positive")


def visibility_single(tau: float, k: PhysicalConstants) -> float:
    """Visibility of the strangeness oscillations, 1/cosh(DeltaGamma tau / 2)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return 1.0 / math.cosh(0.5 * k.delta_gamma * tau)


def strangeness_probs(tau: float, k: PhysicalConstants) -> tuple[float, float]:
    """(P[K0], P[K0bar]) at proper time tau for an initial K0, survivors only."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    osc = visibility_single(tau, k) * math.cos(k.delta_m * tau)
    p_k0 = 0.5 * (1.0 + osc)
    return p_k0, 1.0 - p_k0


def lifetime_probs(tau: float, k: PhysicalConstants) -> tuple[float, float]:
    """(P[K_S], P[K_L]) at proper time tau, survivors only; no oscillation."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    x = k.delta_gamma * tau
    p_ks = 1.0 / (1.0 + math.exp(-x))
    return p_ks, 1.0 - p_ks


def misid_probs(window: MisidWindow, k: PhysicalConstants) -> tuple[float, float]:
    """(wrong-K_S, wrong-K_L) identification probabilities for the window rule.

    A K_S surviving past the window is misread as K_L with probability
    exp(-Gamma_S w); a K_L decaying inside it is misread as K_S with
    probability 1 - exp(-Gamma_L w).
    """
    w = window.delta_tau_w
    return math.exp(-k.gamma_S * w), 1.0 - math.exp(-k.gamma_L * w)


def single_decay_rate(channel: DecayChannel, tau: float, k: PhysicalConstants,
                      model: AmplitudeModel) -> float:
    """Decay rate density Gamma(f, tau) of an initial K0 into the given mode."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if channel not in DecayChannel:
        raise ValueError(f"unknown channel {channel!r}")
    f_S, f_L = evolution_factors(tau, k)
    amp = f_S * model.a_S[channel] + f_L * model.a_L[channel]
    return 0.5 * abs(amp) ** 2


def passive_single_prob(outcome: Outcome, tau: float, k: PhysicalConstants,
                        model: AmplitudeModel) -> float:
    """Detection probability reconstructed from the identifying decay rate.

    Coincides with the active closed forms from strangeness_probs and
    lifetime_probs.
    """
    channel = OUTCOME_CHANNEL[outcome]
    rate = single_decay_rate(channel, tau, k, model)
    return rate / (decay_width(channel, k, model) * beam_norm(tau, k))
