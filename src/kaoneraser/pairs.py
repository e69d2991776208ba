"""Entangled two-kaon states: joint probabilities and the ordering-independence
of delayed-choice measurements.

Amplitudes live on the product lifetime basis |K_i>_l |K_j>_r.  The pair
created in a phi decay or p-pbar annihilation is the antisymmetric singlet,
so free evolution populates only LS and SL, the two amplitudes of
``TwoKaonState``.  Conditioned on both kaons surviving, the pair depends on
delta_tau = tau_l - tau_r only, and at equal times it is the singlet up to a
global phase.  So every state here is built from the singlet and the
survivor moduli of ``_survivor_moduli``, which no finite time overflows or
underflows to a zero norm.  A one-sided projection populates all four
labels, so ``delayed_choice_norms`` runs its orderings on private functions
of plain (LS, SL, SS, LL) tuples and of the real eigenstates of
``core.EIGENSTATES``, looked up once per call.
The entries are floats, or numpy arrays when a whole batch of times runs in
one call; the oracles take either, by the float/array rule of ``core``.
Sums keep the term order of a loop over the labels (S before L), so every
float probability and norm is the same to the last bit;
``tests/test_oracle_digest.py`` pins them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (EIGENSTATES, FloatMath, Outcome, PhysicalConstants,
                   check_time_difference, check_times, lookup, on_arrays)

_SQRT2 = math.sqrt(2.0)
JOINT_KINDS = ("ss_like", "ss_unlike", "s_ks", "s_kl")


class TwoKaonState(NamedTuple):
    c_LS: complex
    c_SL: complex
    normalized: bool = False


@dataclass(frozen=True)
class JointProjector:
    """One outcome per side, each checked when it is built."""

    left: Outcome
    right: Outcome

    def __post_init__(self):
        lookup(EIGENSTATES, self.left, "unknown outcome {!r}")
        lookup(EIGENSTATES, self.right, "unknown outcome {!r}")


_INITIAL = (1.0 / _SQRT2, -1.0 / _SQRT2, 0.0, 0.0)


def _norm_sq(c) -> float:
    return abs(c[0]) ** 2 + abs(c[1]) ** 2 + abs(c[2]) ** 2 + abs(c[3]) ** 2


def _survivor_moduli(x, m) -> tuple:
    """(s, l) = (1/sqrt(1 + e^-x), 1/sqrt(1 + e^x)), with s^2 + l^2 = 1: the
    K_S and K_L moduli of a side that evolved over dt, x = DeltaGamma dt,
    relative to its partner, conditioned on survival.  No exponential of a
    positive argument, so that no finite x overflows; (x > 0) * x is
    max(x, 0) for floats and arrays."""
    r = 1.0 / m.sqrt(1.0 + m.exp(-abs(x)))
    up = (x > 0) * x
    return m.exp(0.5 * (x - up)) * r, m.exp(-0.5 * up) * r


def normalized_pair(delta_tau: float, k: PhysicalConstants,
                    m=None) -> TwoKaonState:
    """The pair state normalized to both members surviving, as a function of
    delta_tau = tau_l - tau_r only: (l, -e^{i delta_m delta_tau} s) with the
    moduli of ``_survivor_moduli``; c_LS is real."""
    if m is None and check_time_difference("delta_tau", delta_tau):
        return on_arrays(normalized_pair, delta_tau, k)
    m = m or FloatMath
    s, l = _survivor_moduli(k.delta_gamma * delta_tau, m)
    return TwoKaonState(
        c_LS=l,
        c_SL=-m.cexp(1j * k.delta_m * delta_tau) * s,
        normalized=True,
    )


# EIGENSTATES as one array, a row per outcome, and the row of each outcome
_KET_ROWS = np.array(list(EIGENSTATES.values()))
_KET_ROW = {o: i for i, o in enumerate(EIGENSTATES)}


def _kets(outcomes: list) -> tuple:
    """The eigenstate of each outcome, as two arrays."""
    return tuple(_KET_ROWS.take([_KET_ROW[o] for o in outcomes], axis=0).T)


def joint_projective_prob(state: TwoKaonState, p: JointProjector) -> float:
    """|<out_l, out_r | state>|^2 for a normalized two-kaon state."""
    if not state.normalized:
        raise ValueError("joint_projective_prob needs a normalized state")
    if not isinstance(p, JointProjector):
        raise ValueError(f"p must be a JointProjector, got {p!r:.80}")
    ls, ll = EIGENSTATES[p.left]
    rs, rl = EIGENSTATES[p.right]
    c_LS, c_SL, _ = state
    amp = ll * rs * c_LS + ls * rl * c_SL
    return abs(amp) ** 2


def closed_form_joint(kind: str, delta_tau: float, k: PhysicalConstants,
                      m=None) -> float:
    """Closed-form joint probabilities per ordered (left, right) outcome pair.

    kind: 'ss_like'   -- equal strangeness on both sides
          'ss_unlike' -- opposite strangeness
          's_ks'      -- strangeness on the left, K_S on the right
          's_kl'      -- strangeness on the left, K_L on the right
    """
    if m is None and check_time_difference("delta_tau", delta_tau):
        return on_arrays(closed_form_joint, kind, delta_tau, k)
    m = m or FloatMath
    if kind in ("ss_like", "ss_unlike"):
        osc = pair_visibility(delta_tau, k, m) * m.cos(k.delta_m * delta_tau)
        sign = -1.0 if kind == "ss_like" else 1.0
        return 0.25 * (1.0 + sign * osc)
    x = k.delta_gamma * delta_tau
    if kind == "s_kl":
        x = -x
    elif kind != "s_ks":
        raise ValueError(f"unknown closed-form kind {kind!r}")
    # 1/2 / (1 + e^x) with no exponential of a positive argument, so that no
    # finite x overflows; (x > 0) * x is max(x, 0) for floats and arrays
    return 0.5 * m.exp(-((x > 0) * x)) / (1.0 + m.exp(-abs(x)))


def strangeness_probs(tau: float, k: PhysicalConstants) -> tuple[float, float]:
    """(P[K0], P[K0bar]) at proper time tau for a single kaon born as K0,
    survivors only: finding the partner as K0bar at tau = 0 prepares the
    K0, so P[K0] is twice the unlike-strangeness pair form."""
    check_times("tau", tau)
    p_k0 = 2.0 * closed_form_joint("ss_unlike", tau, k)
    return p_k0, 1.0 - p_k0


def pair_visibility(delta_tau: float, k: PhysicalConstants, m=None) -> float:
    """Visibility of the strangeness fringes, 1/cosh(DeltaGamma delta_tau / 2),
    evaluated as 2e/(1 + e^2) with e = exp(-|DeltaGamma delta_tau / 2|): no
    finite delta_tau overflows it, and far out it falls to 0."""
    if m is None and check_time_difference("delta_tau", delta_tau):
        return on_arrays(pair_visibility, delta_tau, k)
    e = (m or FloatMath).exp(-abs(0.5 * k.delta_gamma * delta_tau))
    return 2.0 * e / (1.0 + e * e)


# one-sided projectors |b><b|: contract the (real) bra with the chosen side
# per label of the other side, then put the ket back on the chosen side

def _project_left(c, b) -> tuple:
    b_S, b_L = b
    in_S = b_S * c[2] + b_L * c[0]
    in_L = b_S * c[1] + b_L * c[3]
    return b_L * in_S, b_S * in_L, b_S * in_S, b_L * in_L


def _project_right(c, b) -> tuple:
    b_S, b_L = b
    in_S = b_S * c[2] + b_L * c[1]
    in_L = b_S * c[0] + b_L * c[3]
    return b_S * in_L, b_L * in_S, b_S * in_S, b_L * in_L


def _survivor_factors(dt: float, k: PhysicalConstants, m=FloatMath) -> tuple:
    """One side's propagators (f_S, f_L) over dt, relative to its partner and
    conditioned on survival: sqrt(2) times the moduli of
    ``_survivor_moduli``, with the relative phase e^{-i delta_m dt}.  They
    keep the norm of a state whose propagated side carries even K_S/K_L
    weight, such as the singlet with its partner projected."""
    s, l = _survivor_moduli(k.delta_gamma * dt, m)
    return _SQRT2 * s, _SQRT2 * m.cexp(-1j * k.delta_m * dt) * l


def _propagate_left(c, f) -> tuple:
    f_S, f_L = f
    return f_L * c[0], f_S * c[1], f_S * c[2], f_L * c[3]


def _propagate_right(c, f) -> tuple:
    f_S, f_L = f
    return f_S * c[0], f_L * c[1], f_S * c[2], f_L * c[3]


def delayed_choice_norms(tau_l: float, tau_r0: float, p: JointProjector,
                         k: PhysicalConstants,
                         m=None) -> tuple[float, float, float]:
    """Squared norms of the projected pair state under three operator orderings:
    both projections on the survivor-normalized pair (direct), meter-first
    (normal mode) and object-first (delayed-choice mode).  All three agree
    identically.  The reorderings project one side of the singlet, the
    survivor-conditioned state at equal times, and carry the other side
    over tau_l - tau_r0 with ``_survivor_factors``; direct projects
    ``normalized_pair`` and shares only the two eigenstates with them.

    Given arrays of times and a list or tuple of projectors, one per pair,
    or one projector for every pair, the same steps run on numpy arrays and
    the three norms are arrays."""
    if m is None and (check_times("evolution times", tau_l, tau_r0)
                      or not isinstance(p, JointProjector)):
        return on_arrays(delayed_choice_norms, np.asarray(tau_l, float),
                         np.asarray(tau_r0, float), p, k)
    m = m or FloatMath
    if isinstance(p, JointProjector):
        b_l, b_r = EIGENSTATES[p.left], EIGENSTATES[p.right]
    elif (isinstance(p, (list, tuple))
          and all(isinstance(q, JointProjector) for q in p)):
        b_l, b_r = _kets([q.left for q in p]), _kets([q.right for q in p])
    else:
        raise ValueError("p must be a JointProjector or a list or tuple of "
                         f"them, got {p!r:.80}")

    # direct: project the survivor-normalized pair at tau_l - tau_r0
    c_LS, c_SL, _ = normalized_pair(tau_l - tau_r0, k, m)
    direct = _norm_sq(_project_left(_project_right((c_LS, c_SL, 0.0, 0.0),
                                                   b_r), b_l))

    # normal ordering: right projection at tau_r0, then left evolution to tau_l
    s = _project_right(_INITIAL, b_r)
    s = _propagate_left(s, _survivor_factors(tau_l - tau_r0, k, m))
    normal = _norm_sq(_project_left(s, b_l))

    # delayed ordering: left projection at tau_l, then right evolution to tau_r0
    s = _project_left(_INITIAL, b_l)
    s = _propagate_right(s, _survivor_factors(tau_r0 - tau_l, k, m))
    delayed = _norm_sq(_project_right(s, b_r))

    return direct, normal, delayed
