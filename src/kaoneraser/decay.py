"""Effective decay amplitudes and joint decay rates for kaon pairs.

Phase-space integrals over the decay products are never performed: each decay
channel carries a scalar effective amplitude <f|T|K_S,L> whose squared modulus
is the corresponding partial width.  Phases are all zero except the mandatory
minus sign between the two semileptonic couplings of K_L, which follows from
the Delta-S = Delta-Q rule and the basis convention K0 = (K_S + K_L)/sqrt(2).
The rate and probability oracles take float times or arrays of times, by the
float/array rule of ``core``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (EIGENSTATES, FloatMath, Outcome, PhysicalConstants,
                   check_times, lookup, on_arrays, pair_beam_norm)


class DecayChannel(Enum):
    TWO_PI = "2pi"
    THREE_PI = "3pi"
    SL_PLUS = "sl+"   # pi- l+ nu, tags K0
    SL_MINUS = "sl-"  # pi+ l- nubar, tags K0bar

    __hash__ = object.__hash__  # the identity hash, as for ``Outcome``


#: Channels in integer-code order (code = index, the definition order above),
#: the order of the event store's channel codes and of the amplitude tuples.
CHANNEL_BY_CODE = tuple(DecayChannel)
CHANNEL_CODES = {ch: c for c, ch in enumerate(CHANNEL_BY_CODE)}

#: Which measurement outcome each observed decay mode identifies.
CHANNEL_OUTCOME = {
    DecayChannel.TWO_PI: Outcome.KS,
    DecayChannel.THREE_PI: Outcome.KL,
    DecayChannel.SL_PLUS: Outcome.K0,
    DecayChannel.SL_MINUS: Outcome.K0BAR,
}

OUTCOME_CHANNEL = {v: k for k, v in CHANNEL_OUTCOME.items()}

# The relative sign of the two propagation terms of the mixed rate, per
# active left strangeness outcome.
_STRANGENESS_SIGN = {Outcome.K0: +1.0, Outcome.K0BAR: -1.0}


@dataclass(frozen=True)
class AmplitudeModel:
    """Effective transition amplitudes a(channel, eigenstate).

    ``a_S``/``a_L`` hold <f|T|K_S> and <f|T|K_L> as real floats, one per
    channel in channel-code order (``CHANNEL_BY_CODE``).  The moduli
    saturate the total widths exactly: sum_f |a_S(f)|^2 = Gamma_S and
    sum_f |a_L(f)|^2 = Gamma_L, which makes every decay-rate normalization
    integral close exactly.
    """

    a_S: tuple
    a_L: tuple


def build_amplitude_model(k: PhysicalConstants) -> AmplitudeModel:
    """Fix the effective amplitudes from widths and branching ratios.

    Semileptonic moduli are taken from the K_L side (the better-measured one),
    shared by K_S through the exact Delta-S = Delta-Q structure; the 2pi
    strength then saturates Gamma_S.  In the CP-conserving limit
    a(2pi, K_L) = a(3pi, K_S) = 0 exactly.
    """
    # One semileptonic sign channel carries half the semileptonic width.
    a_sl = math.sqrt(0.5 * k.br_sl_L * k.gamma_L)
    a_3pi = math.sqrt(k.br_3pi_L * k.gamma_L)
    a_2pi = math.sqrt(k.gamma_S - k.br_sl_L * k.gamma_L)
    # channel-code order: 2pi, 3pi, sl+, sl-
    return AmplitudeModel(a_S=(a_2pi, 0.0, a_sl, a_sl),
                          a_L=(0.0, a_3pi, a_sl, -a_sl))


def pair_rate_terms(alpha, beta, tau_l, tau_r, k: PhysicalConstants,
                    m=FloatMath):
    """(direct, cross) of every passive rate's form |alpha e_L(tau_l) e_S(tau_r)
    - beta e_S(tau_l) e_L(tau_r)|^2 = direct - cross, e_S(t) = e^{-G_S t/2},
    e_L(t) = e^{-i dm t - G_L t/2}; with real amplitudes the only phase is the
    cross term's cos.  Arrays pass ``ArrayMath`` as ``m``."""
    direct = (alpha * alpha * m.exp(-k.gamma_L * tau_l - k.gamma_S * tau_r)
              + beta * beta * m.exp(-k.gamma_S * tau_l - k.gamma_L * tau_r))
    cross = (2.0 * alpha * beta * m.exp(-k.gamma_mean * (tau_l + tau_r))
             * m.cos(k.delta_m * (tau_l - tau_r)))
    return direct, cross


def passive_pair_weights(k: PhysicalConstants, model: AmplitudeModel) -> np.ndarray:
    """Analytic 4x4 integrated weights of the joint decay rate per ordered
    channel pair (rows: left, cols: right), 0.5 (direct - cross) of
    ``pair_rate_terms`` integrated over tau_l, tau_r >= 0; sums to one."""
    alpha = np.outer(model.a_L, model.a_S)
    beta = np.outer(model.a_S, model.a_L)
    cross = 1.0 / (k.gamma_mean ** 2 + k.delta_m ** 2)
    return ((alpha ** 2 + beta ** 2) / (2.0 * k.gamma_S * k.gamma_L)
            - alpha * beta * cross)


def joint_decay_rate(f_l: DecayChannel, tau_l: float, f_r: DecayChannel,
                     tau_r: float, k: PhysicalConstants,
                     model: AmplitudeModel, m=None) -> float:
    """Joint decay rate density of the entangled pair into (f_l, f_r)."""
    if m is None and check_times("times", tau_l, tau_r):
        return on_arrays(joint_decay_rate, f_l, tau_l, f_r, tau_r, k, model)
    i = lookup(CHANNEL_CODES, f_l, "unknown channel {!r}")
    j = lookup(CHANNEL_CODES, f_r, "unknown channel {!r}")
    direct, cross = pair_rate_terms(model.a_L[i] * model.a_S[j],
                                    model.a_S[i] * model.a_L[j],
                                    tau_l, tau_r, k, m or FloatMath)
    return 0.5 * (direct - cross)


def mixed_decay_rate(active_out_l: Outcome, f_r: DecayChannel, tau_l: float,
                     tau_r: float, k: PhysicalConstants, model: AmplitudeModel,
                     m=None) -> float:
    """Rate density for an active left strangeness outcome at tau_l and a
    right decay (f_r, tau_r); a left K0bar flips the relative sign of the
    two propagation terms (``_STRANGENESS_SIGN``)."""
    if m is None and check_times("times", tau_l, tau_r):
        return on_arrays(mixed_decay_rate, active_out_l, f_r, tau_l, tau_r, k,
                         model)
    sign = lookup(_STRANGENESS_SIGN, active_out_l,
                  "active left outcome must be a strangeness outcome")
    j = lookup(CHANNEL_CODES, f_r, "unknown channel {!r}")
    direct, cross = pair_rate_terms(model.a_S[j], sign * model.a_L[j],
                                    tau_l, tau_r, k, m or FloatMath)
    return 0.25 * (direct - cross)


def decay_width(channel: DecayChannel, k: PhysicalConstants,
                model: AmplitudeModel) -> float:
    """Identifying width Gamma(K_f -> f) for the state tagged by the channel.

    Computed by contracting the channel amplitudes with the tagged state, e.g.
    Gamma(K0 -> pi- l+ nu) = |<f|T|K0>|^2 = 2 |a_sl|^2 = br_sl_L * Gamma_L.
    """
    c = lookup(CHANNEL_CODES, channel, "unknown channel {!r}")
    c_S, c_L = EIGENSTATES[CHANNEL_OUTCOME[channel]]
    w = abs(c_S * model.a_S[c] + c_L * model.a_L[c]) ** 2
    if w <= 0.0:
        # sl+- and 3pi widths are zero at br_sl_L = 0 and 1 respectively; the
        # 2pi width, gamma_S - br_sl_L gamma_L, exceeds gamma_S - gamma_L > 0
        raise ValueError(f"identifying width of channel {channel.value!r} is "
                         f"zero: constants field 'br_sl_L' is {k.br_sl_L!r}")
    return w


def passive_joint_prob(out_l: Outcome, tau_l: float, out_r: Outcome,
                       tau_r: float, k: PhysicalConstants,
                       model: AmplitudeModel, m=None) -> float:
    """Joint detection probability reconstructed from passive decay rates.
    Rate and survivor norm both scale by exp(-(G_S + G_L) s) when both times
    shift by s, so the quotient is taken with the earlier time at 0: the
    norm then underflows only for times some 745 K_L lifetimes apart."""
    if m is None and check_times("times", tau_l, tau_r):
        return on_arrays(passive_joint_prob, out_l, tau_l, out_r, tau_r, k,
                         model)
    m = m or FloatMath
    d = tau_l - tau_r
    tau_l, tau_r = (d > 0) * d, (d < 0) * -d
    f_l = lookup(OUTCOME_CHANNEL, out_l, "unknown outcome {!r}")
    f_r = lookup(OUTCOME_CHANNEL, out_r, "unknown outcome {!r}")
    rate = joint_decay_rate(f_l, tau_l, f_r, tau_r, k, model, m)
    denom = (decay_width(f_l, k, model) * decay_width(f_r, k, model)
             * pair_beam_norm(tau_l, tau_r, k, m))
    return rate / denom


def mixed_active_passive_prob(active_out_l: Outcome, tau_l: float,
                              out_r: Outcome, tau_r: float,
                              k: PhysicalConstants,
                              model: AmplitudeModel, m=None) -> float:
    """Joint probability: active strangeness on the left, passive on the
    right, the mixed rate over the right identifying width and the survivor
    norm, taken with the earlier time at 0 as in ``passive_joint_prob``."""
    if m is None and check_times("times", tau_l, tau_r):
        return on_arrays(mixed_active_passive_prob, active_out_l, tau_l,
                         out_r, tau_r, k, model)
    m = m or FloatMath
    d = tau_l - tau_r
    tau_l, tau_r = (d > 0) * d, (d < 0) * -d
    f_r = lookup(OUTCOME_CHANNEL, out_r, "unknown outcome {!r}")
    rate = mixed_decay_rate(active_out_l, f_r, tau_l, tau_r, k, model, m)
    denom = decay_width(f_r, k, model) * pair_beam_norm(tau_l, tau_r, k, m)
    return rate / denom


def passive_single_prob(outcome: Outcome, tau: float, k: PhysicalConstants,
                        model: AmplitudeModel) -> float:
    """Detection probability of a single kaon born as K0, reconstructed from
    the identifying decay rate: finding the partner as K0bar at tau = 0
    prepares the K0, so it is twice the mixed probability with that partner.
    Coincides with the active closed forms."""
    check_times("tau", tau)
    return 2.0 * mixed_active_passive_prob(Outcome.K0BAR, 0.0, outcome, tau,
                                           k, model)
