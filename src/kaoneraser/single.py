"""Closed-form single-kaon observables and passive-measurement reconstruction."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Outcome, PhysicalConstants, beam_norm, finite_number
from .decay import (AmplitudeModel, DecayChannel, channel_code, decay_width,
                    outcome_channel, pair_rate_terms)
from .pairs import pair_visibility


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
    return pair_visibility(tau, k)


def strangeness_probs(tau: float, k: PhysicalConstants) -> tuple[float, float]:
    """(P[K0], P[K0bar]) at proper time tau for an initial K0, survivors only."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    osc = pair_visibility(tau, k) * math.cos(k.delta_m * tau)
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
    """Decay rate density Gamma(f, tau) of an initial K0 into the given mode:
    the pair form at tau_r = 0 with (alpha, beta) = (a_L, -a_S)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    c = channel_code(channel)
    direct, cross = pair_rate_terms(model.a_L[c], -model.a_S[c], tau, 0.0, k)
    return 0.5 * (direct - cross)


def passive_single_prob(outcome: Outcome, tau: float, k: PhysicalConstants,
                        model: AmplitudeModel) -> float:
    """Detection probability reconstructed from the identifying decay rate.

    Coincides with the active closed forms from strangeness_probs and
    lifetime_probs.
    """
    channel = outcome_channel(outcome)
    rate = single_decay_rate(channel, tau, k, model)
    return rate / (decay_width(channel, k, model) * beam_norm(tau, k))
