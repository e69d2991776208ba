"""Single-kaon observables: the pair oracles with the partner measured at
tau = 0.  Finding it as K0bar then prepares a K0, so each single-kaon
probability or rate is twice its pair form (P[K0bar] = 1/2 for the partner).
The window rule (``misid_probs``) is the one formula of its own.  Each oracle
checks its time, a float or an array, and the pair oracle does the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Outcome, PhysicalConstants, check_times, finite_number
from .decay import (AmplitudeModel, DecayChannel, mixed_active_passive_prob,
                    mixed_decay_rate)
from .pairs import closed_form_joint

# the partner's outcome at tau = 0, bound once: a member read through its
# class costs about 100 ns a call
_PARTNER = Outcome.K0BAR


@dataclass(frozen=True)
class MisidWindow:
    """Decay-time window used to tell K_S from K_L in active lifetime measurements."""

    delta_tau_w: float = 4.8

    def __post_init__(self):
        if finite_number("window", self.delta_tau_w) <= 0:
            raise ValueError("window length must be positive")


def strangeness_probs(tau: float, k: PhysicalConstants) -> tuple[float, float]:
    """(P[K0], P[K0bar]) at proper time tau for an initial K0, survivors only:
    unlike strangeness with the partner's K0bar at 0."""
    check_times("tau", tau)
    p_k0 = 2.0 * closed_form_joint("ss_unlike", tau, k)
    return p_k0, 1.0 - p_k0


def lifetime_probs(tau: float, k: PhysicalConstants) -> tuple[float, float]:
    """(P[K_S], P[K_L]) at proper time tau, survivors only; no oscillation.
    The partner's strangeness at 0 is the left side, so delta_tau = -tau."""
    check_times("tau", tau)
    p_ks = 2.0 * closed_form_joint("s_ks", -tau, k)
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
    the mixed rate with the partner's K0bar at 0."""
    check_times("tau", tau)
    return 2.0 * mixed_decay_rate(_PARTNER, channel, 0.0, tau, k, model)


def passive_single_prob(outcome: Outcome, tau: float, k: PhysicalConstants,
                        model: AmplitudeModel) -> float:
    """Detection probability reconstructed from the identifying decay rate:
    the mixed probability with the partner's K0bar at 0.  Coincides with the
    active closed forms from strangeness_probs and lifetime_probs."""
    check_times("tau", tau)
    return 2.0 * mixed_active_passive_prob(_PARTNER, 0.0, outcome, tau,
                                           k, model)
