"""Entangled two-kaon states: construction, evolution, joint probabilities and
the ordering-independence of delayed-choice measurements.

Amplitudes live on the product lifetime basis |K_i>_l |K_j>_r.  The physical
pair created in a phi decay or p-pbar annihilation is antisymmetric, so under
free evolution only the LS and SL components are ever populated; the SS and LL
slots exist so that one-sided collapsed states fit in the same type.

A state is an immutable ``NamedTuple`` and each operation works on ``c_LS,
c_SL, c_SS, c_LL`` directly: ``verify`` runs these scalar oracles thousands of
times, and per-label dicts and loops cost more than the physics.  Sums keep
the term order of a loop over the labels (S before L; LS, SL, SS, LL for a
full contraction), so every probability and norm is the same to the last bit;
``tests/test_oracle_digest.py`` pins them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import (Outcome, PhysicalConstants, SingularStateError, beam_norm,
                   evolution_factors, make_state)

_SQRT2 = math.sqrt(2.0)


class TwoKaonState(NamedTuple):
    c_LS: complex
    c_SL: complex
    c_SS: complex = 0.0
    c_LL: complex = 0.0
    normalized: bool = False

    def norm_sq(self) -> float:
        return (abs(self.c_LS) ** 2 + abs(self.c_SL) ** 2
                + abs(self.c_SS) ** 2 + abs(self.c_LL) ** 2)


@dataclass(frozen=True)
class JointProjector:
    left: Outcome
    right: Outcome


def initial_pair() -> TwoKaonState:
    """The antisymmetric maximally entangled pair at production time."""
    return TwoKaonState(c_LS=1.0 / _SQRT2, c_SL=-1.0 / _SQRT2, normalized=True)


def evolve_pair(state: TwoKaonState, tau_l: float, tau_r: float,
                k: PhysicalConstants) -> TwoKaonState:
    """Two-time non-unitary evolution; output is not survivor-normalized."""
    if tau_l < 0 or tau_r < 0:
        raise ValueError("evolution times must be nonnegative")
    s_l, l_l = evolution_factors(tau_l, k)
    s_r, l_r = evolution_factors(tau_r, k)
    c_LS, c_SL, c_SS, c_LL, _ = state
    return TwoKaonState(l_l * s_r * c_LS, s_l * l_r * c_SL, s_l * s_r * c_SS,
                        l_l * l_r * c_LL, False)


def normalize_pair(state: TwoKaonState) -> TwoKaonState:
    n2 = state.norm_sq()
    if n2 <= 0.0:
        raise SingularStateError("cannot normalize a zero-norm pair state")
    n = math.sqrt(n2)
    return TwoKaonState(state.c_LS / n, state.c_SL / n, state.c_SS / n,
                        state.c_LL / n, normalized=True)


def normalized_pair(delta_tau: float, k: PhysicalConstants) -> TwoKaonState:
    """The pair state normalized to both members surviving, as a function of
    delta_tau = tau_l - tau_r only."""
    x = k.delta_gamma * delta_tau
    pref = 1.0 / math.sqrt(1.0 + math.exp(x))
    phase = cmath.exp(1j * k.delta_m * delta_tau)
    return TwoKaonState(
        c_LS=pref,
        c_SL=-pref * phase * math.exp(0.5 * x),
        normalized=True,
    )


def joint_projective_prob(state: TwoKaonState, p: JointProjector) -> float:
    """|<out_l, out_r | state>|^2 for a normalized two-kaon state."""
    if not state.normalized:
        raise ValueError("joint_projective_prob needs a normalized state")
    bl = make_state(p.left)
    br = make_state(p.right)
    ls, ll = bl.c_S.conjugate(), bl.c_L.conjugate()
    rs, rl = br.c_S.conjugate(), br.c_L.conjugate()
    c_LS, c_SL, c_SS, c_LL, _ = state
    amp = ll * rs * c_LS + ls * rl * c_SL + ls * rs * c_SS + ll * rl * c_LL
    return abs(amp) ** 2


def closed_form_joint(kind: str, delta_tau: float, k: PhysicalConstants) -> float:
    """Closed-form joint probabilities per ordered (left, right) outcome pair.

    kind: 'ss_like'   -- equal strangeness on both sides
          'ss_unlike' -- opposite strangeness
          's_ks'      -- strangeness on the left, K_S on the right
          's_kl'      -- strangeness on the left, K_L on the right
    """
    x = k.delta_gamma * delta_tau
    if kind in ("ss_like", "ss_unlike"):
        osc = math.cos(k.delta_m * delta_tau) / math.cosh(0.5 * x)
        sign = -1.0 if kind == "ss_like" else 1.0
        return 0.25 * (1.0 + sign * osc)
    if kind == "s_ks":
        return 1.0 / (2.0 * (1.0 + math.exp(x)))
    if kind == "s_kl":
        return 1.0 / (2.0 * (1.0 + math.exp(-x)))
    raise ValueError(f"unknown closed-form kind {kind!r}")


def pair_visibility(delta_tau: float, k: PhysicalConstants) -> float:
    return 1.0 / math.cosh(0.5 * k.delta_gamma * delta_tau)


def project_side(state: TwoKaonState, side: str, outcome: Outcome) -> TwoKaonState:
    """Apply the one-sided projector |outcome><outcome| without renormalizing."""
    b = make_state(outcome)
    b_S, b_L = b.c_S, b.c_L
    bra_S, bra_L = b_S.conjugate(), b_L.conjugate()
    c_LS, c_SL, c_SS, c_LL, _ = state
    # contract <outcome| with the chosen side per label of the other side,
    # then put |outcome> back on the chosen side
    if side == "left":
        in_S = bra_S * c_SS + bra_L * c_LS
        in_L = bra_S * c_SL + bra_L * c_LL
        return TwoKaonState(b_L * in_S, b_S * in_L, b_S * in_S, b_L * in_L,
                            False)
    if side == "right":
        in_S = bra_S * c_SS + bra_L * c_SL
        in_L = bra_S * c_LS + bra_L * c_LL
        return TwoKaonState(b_S * in_L, b_L * in_S, b_S * in_S, b_L * in_L,
                            False)
    raise ValueError("side must be 'left' or 'right'")


def survivor_unitary_side(state: TwoKaonState, side: str, dt: float,
                          k: PhysicalConstants) -> TwoKaonState:
    """One-sided evolution renormalized to single-beam survivors.

    dt may be negative (backward reordering).  On states whose affected side
    carries even K_S/K_L weight -- such as the partner left over after
    projecting one side of an equal-time pair -- this preserves the norm,
    which is what makes measurement reordering possible."""
    f_S, f_L = evolution_factors(dt, k)
    scale = 1.0 / math.sqrt(beam_norm(dt, k))
    f_S, f_L = f_S * scale, f_L * scale
    c_LS, c_SL, c_SS, c_LL, normalized = state
    if side == "left":
        return TwoKaonState(f_L * c_LS, f_S * c_SL, f_S * c_SS, f_L * c_LL,
                            normalized)
    if side == "right":
        return TwoKaonState(f_S * c_LS, f_L * c_SL, f_S * c_SS, f_L * c_LL,
                            normalized)
    raise ValueError("side must be 'left' or 'right'")


def delayed_choice_norms(tau_l: float, tau_r0: float, p: JointProjector,
                         k: PhysicalConstants) -> tuple[float, float, float]:
    """Squared norms of the projected pair state under three operator orderings:
    both projections on the fully evolved state, meter-first (normal mode) and
    object-first (delayed-choice mode).  All three agree identically."""
    if tau_l < 0 or tau_r0 < 0:
        raise ValueError("times must be nonnegative")

    # direct: project the survivor-normalized state at (tau_l, tau_r0)
    phi = normalize_pair(evolve_pair(initial_pair(), tau_l, tau_r0, k))
    direct = project_side(project_side(phi, "right", p.right), "left", p.left).norm_sq()

    # normal ordering: right projection at tau_r0, then left evolution to tau_l
    phi0 = normalize_pair(evolve_pair(initial_pair(), tau_r0, tau_r0, k))
    s = project_side(phi0, "right", p.right)
    s = survivor_unitary_side(s, "left", tau_l - tau_r0, k)
    normal = project_side(s, "left", p.left).norm_sq()

    # delayed ordering: left projection at tau_l, then right evolution to tau_r0
    phi0 = normalize_pair(evolve_pair(initial_pair(), tau_l, tau_l, k))
    s = project_side(phi0, "left", p.left)
    s = survivor_unitary_side(s, "right", tau_r0 - tau_l, k)
    delayed = project_side(s, "right", p.right).norm_sq()

    return direct, normal, delayed
