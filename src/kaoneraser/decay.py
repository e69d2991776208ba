"""Effective decay amplitudes and joint decay rates for kaon pairs.

Phase-space integrals over the decay products are never performed: each decay
channel carries a scalar effective amplitude <f|T|K_S,L> whose squared modulus
is the corresponding partial width.  Phases are all zero except the mandatory
minus sign between the two semileptonic couplings of K_L, which follows from
the Delta-S = Delta-Q rule and the basis convention K0 = (K_S + K_L)/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Outcome, PhysicalConstants, make_state


class DecayChannel(Enum):
    TWO_PI = "2pi"
    THREE_PI = "3pi"
    SL_PLUS = "sl+"   # pi- l+ nu, tags K0
    SL_MINUS = "sl-"  # pi+ l- nubar, tags K0bar


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


def channel_code(channel: DecayChannel) -> int:
    """The integer code of a decay channel; ValueError for anything else."""
    if (code := CHANNEL_CODES.get(channel)) is None:
        raise ValueError(f"unknown channel {channel!r}")
    return code


def outcome_channel(outcome: Outcome) -> DecayChannel:
    """The decay channel that identifies a measurement outcome; ValueError
    for anything that is not an Outcome."""
    if (channel := OUTCOME_CHANNEL.get(outcome)) is None:
        raise ValueError(f"unknown outcome {outcome!r}")
    return channel


@dataclass(frozen=True)
class AmplitudeModel:
    """Effective transition amplitudes a(channel, eigenstate).

    ``a_S``/``a_L`` hold <f|T|K_S> and <f|T|K_L> as real floats, one per
    channel in channel-code order (``CHANNEL_BY_CODE``).  The moduli
    saturate the total widths exactly: sum_f |a_S(f)|^2 = Gamma_S and
    sum_f |a_L(f)|^2 = Gamma_L, which makes every decay-rate normalization
    integral close exactly.  ``warnings`` carries a note when the input
    branching ratios violate the Delta-S = Delta-Q width consistency.
    """

    a_S: tuple
    a_L: tuple
    warnings: tuple = ()


def build_amplitude_model(k: PhysicalConstants) -> AmplitudeModel:
    """Fix the effective amplitudes from widths and branching ratios.

    Semileptonic moduli are taken from the K_L side (the better-measured one),
    shared by K_S through the exact Delta-S = Delta-Q structure; the 2pi
    strength then saturates Gamma_S.  In the CP-conserving limit
    a(2pi, K_L) = a(3pi, K_S) = 0 exactly.
    """
    warnings = ()
    if not k.semileptonic_width_mismatch() <= 0.10:
        warnings = (
            "branching ratios violate the 10% Delta-S=Delta-Q width check: "
            f"br_sl_L*gamma_L={k.br_sl_L * k.gamma_L:.4g} vs "
            f"br_sl_S*gamma_S={k.br_sl_S * k.gamma_S:.4g}",
        )
    # One semileptonic sign channel carries half the semileptonic width.
    a_sl = math.sqrt(0.5 * k.br_sl_L * k.gamma_L)
    a_3pi = math.sqrt(k.br_3pi_L * k.gamma_L)
    a_2pi = math.sqrt(k.gamma_S - k.br_sl_L * k.gamma_L)
    # channel-code order: 2pi, 3pi, sl+, sl-
    return AmplitudeModel(a_S=(a_2pi, 0.0, a_sl, a_sl),
                          a_L=(0.0, a_3pi, a_sl, -a_sl), warnings=warnings)


def pair_beam_norm(tau_l: float, tau_r: float, k: PhysicalConstants) -> float:
    """Two-beam survivor normalization N(tau_l, tau_r)."""
    return (math.exp(-k.gamma_mean * (tau_l + tau_r))
            * math.cosh(0.5 * k.delta_gamma * (tau_l - tau_r)))


def pair_rate_terms(alpha, beta, tau_l, tau_r, k: PhysicalConstants,
                    exp=math.exp, cos=math.cos):
    """(direct, cross) of every passive rate's form |alpha e_L(tau_l) e_S(tau_r)
    - beta e_S(tau_l) e_L(tau_r)|^2 = direct - cross, e_S(t) = e^{-G_S t/2},
    e_L(t) = e^{-i dm t - G_L t/2}; with real amplitudes the only phase is the
    cross term's cos.  Floats use ``math``; arrays pass ``np.exp, np.cos``."""
    direct = (alpha * alpha * exp(-k.gamma_L * tau_l - k.gamma_S * tau_r)
              + beta * beta * exp(-k.gamma_S * tau_l - k.gamma_L * tau_r))
    cross = (2.0 * alpha * beta * exp(-k.gamma_mean * (tau_l + tau_r))
             * cos(k.delta_m * (tau_l - tau_r)))
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
                     model: AmplitudeModel) -> float:
    """Joint decay rate density of the entangled pair into (f_l, f_r)."""
    if tau_l < 0 or tau_r < 0:
        raise ValueError("decay times must be nonnegative")
    i, j = channel_code(f_l), channel_code(f_r)
    direct, cross = pair_rate_terms(model.a_L[i] * model.a_S[j],
                                    model.a_S[i] * model.a_L[j],
                                    tau_l, tau_r, k)
    return 0.5 * (direct - cross)


def mixed_decay_rate(f_r: DecayChannel, tau_l: float, tau_r: float,
                     k: PhysicalConstants, model: AmplitudeModel) -> float:
    """Rate density for an active left K0 at tau_l and a right decay (f_r, tau_r)."""
    if tau_l < 0 or tau_r < 0:
        raise ValueError("times must be nonnegative")
    j = channel_code(f_r)
    direct, cross = pair_rate_terms(model.a_S[j], model.a_L[j], tau_l, tau_r, k)
    return 0.25 * (direct - cross)


def decay_width(channel: DecayChannel, k: PhysicalConstants,
                model: AmplitudeModel) -> float:
    """Identifying width Gamma(K_f -> f) for the state tagged by the channel.

    Computed by contracting the channel amplitudes with the tagged state, e.g.
    Gamma(K0 -> pi- l+ nu) = |<f|T|K0>|^2 = 2 |a_sl|^2 = br_sl_L * Gamma_L.
    """
    c = channel_code(channel)
    bra = make_state(CHANNEL_OUTCOME[channel])
    amp = bra.c_S * model.a_S[c] + bra.c_L * model.a_L[c]
    w = abs(amp) ** 2
    if w <= 0.0:
        raise ValueError(f"identifying width undefined for channel {channel}")
    return w


def passive_joint_prob(out_l: Outcome, tau_l: float, out_r: Outcome,
                       tau_r: float, k: PhysicalConstants,
                       model: AmplitudeModel) -> float:
    """Joint detection probability reconstructed from passive decay rates."""
    f_l = outcome_channel(out_l)
    f_r = outcome_channel(out_r)
    rate = joint_decay_rate(f_l, tau_l, f_r, tau_r, k, model)
    denom = (decay_width(f_l, k, model) * decay_width(f_r, k, model)
             * pair_beam_norm(tau_l, tau_r, k))
    return rate / denom


def mixed_active_passive_prob(active_out_l: Outcome, tau_l: float,
                              out_r: Outcome, tau_r: float,
                              k: PhysicalConstants,
                              model: AmplitudeModel) -> float:
    """Joint probability: active strangeness on the left, passive on the right.

    The left K0bar variant follows from the same amplitude structure with the
    opposite relative sign between the two propagation terms.
    """
    if active_out_l not in (Outcome.K0, Outcome.K0BAR):
        raise ValueError("active left outcome must be a strangeness outcome")
    if tau_l < 0 or tau_r < 0:
        raise ValueError("times must be nonnegative")
    sign = +1.0 if active_out_l is Outcome.K0 else -1.0
    f_r = outcome_channel(out_r)
    j = CHANNEL_CODES[f_r]
    direct, cross = pair_rate_terms(model.a_S[j], sign * model.a_L[j],
                                    tau_l, tau_r, k)
    rate = 0.25 * (direct - cross)
    denom = decay_width(f_r, k, model) * pair_beam_norm(tau_l, tau_r, k)
    return rate / denom
