"""Entangled two-kaon states: joint probabilities and the ordering-independence
of delayed-choice measurements.

Amplitudes live on the product lifetime basis |K_i>_l |K_j>_r.  The pair
created in a phi decay or p-pbar annihilation is antisymmetric, so free
evolution populates only LS and SL, the two amplitudes of ``TwoKaonState``.
A one-sided projection populates all four labels, so ``delayed_choice_norms``
runs its orderings on private functions of plain (LS, SL, SS, LL) tuples and
of propagators and eigenstates evaluated once per call.  The entries are
floats, or numpy arrays when a whole batch of times runs in one call; the
oracles take either, by the float/array rule of ``core``.  Sums keep the
term order of a loop over the labels (S before L), so every float
probability and norm is the same to the last bit;
``tests/test_oracle_digest.py`` pins them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (FloatMath, Outcome, PhysicalConstants, SingularStateError,
                   check_time_difference, check_times, evolution_factors,
                   make_state, on_arrays, pair_beam_norm)

_SQRT2 = math.sqrt(2.0)
JOINT_KINDS = ("ss_like", "ss_unlike", "s_ks", "s_kl")


class TwoKaonState(NamedTuple):
    c_LS: complex
    c_SL: complex
    normalized: bool = False


@dataclass(frozen=True)
class JointProjector:
    left: Outcome
    right: Outcome


_INITIAL = (1.0 / _SQRT2, -1.0 / _SQRT2, 0.0, 0.0)


def _norm_sq(c) -> float:
    return abs(c[0]) ** 2 + abs(c[1]) ** 2 + abs(c[2]) ** 2 + abs(c[3]) ** 2


def _evolve(c, f_l, f_r) -> tuple:
    """Both sides propagated by their ``evolution_factors`` (f_S, f_L)."""
    s_l, l_l = f_l
    s_r, l_r = f_r
    return (l_l * s_r * c[0], s_l * l_r * c[1], s_l * s_r * c[2],
            l_l * l_r * c[3])


def _normalize(c, m=FloatMath) -> tuple:
    try:
        n = m.sqrt(_norm_sq(c))
        return c[0] / n, c[1] / n, c[2] / n, c[3] / n
    except (ZeroDivisionError, FloatingPointError):  # floats, arrays
        raise SingularStateError(
            "cannot normalize a zero-norm pair state") from None


def normalized_pair(delta_tau: float, k: PhysicalConstants,
                    m=None) -> TwoKaonState:
    """The pair state normalized to both members surviving, as a function of
    delta_tau = tau_l - tau_r only."""
    if m is None and check_time_difference("delta_tau", delta_tau):
        return on_arrays(normalized_pair, delta_tau, k)
    m = m or FloatMath
    x = k.delta_gamma * delta_tau
    pref = 1.0 / m.sqrt(1.0 + m.exp(x))
    phase = m.cexp(1j * k.delta_m * delta_tau)
    return TwoKaonState(
        c_LS=pref,
        c_SL=-pref * phase * m.exp(0.5 * x),
        normalized=True,
    )


# (b_S, b_L, b_S*, b_L*) per outcome: its eigenstate and that state's bra
_KETS = {o: (b.c_S, b.c_L, b.c_S.conjugate(), b.c_L.conjugate())
         for o, b in ((o, make_state(o)) for o in Outcome)}


def _ket(outcome: Outcome) -> tuple:
    try:
        return _KETS[outcome]
    except (KeyError, TypeError):
        raise ValueError(f"unknown outcome {outcome!r}") from None


# _KETS as one array, a row per outcome, and the row of each outcome
_KET_ROWS = np.array(list(_KETS.values()))
_KET_ROW = {o: i for i, o in enumerate(_KETS)}


def _kets(outcomes: list) -> tuple:
    """``_ket`` of each outcome, as four arrays."""
    try:
        rows = [_KET_ROW[o] for o in outcomes]
    except (KeyError, TypeError):
        for o in outcomes:
            _ket(o)  # the ValueError naming the first unknown outcome
        raise
    return tuple(_KET_ROWS.take(rows, axis=0).T)


def joint_projective_prob(state: TwoKaonState, p: JointProjector) -> float:
    """|<out_l, out_r | state>|^2 for a normalized two-kaon state."""
    if not state.normalized:
        raise ValueError("joint_projective_prob needs a normalized state")
    _, _, ls, ll = _ket(p.left)
    _, _, rs, rl = _ket(p.right)
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


def pair_visibility(delta_tau: float, k: PhysicalConstants, m=None) -> float:
    """Visibility of the strangeness fringes, 1/cosh(DeltaGamma delta_tau / 2),
    evaluated as 2e/(1 + e^2) with e = exp(-|DeltaGamma delta_tau / 2|): no
    finite delta_tau overflows it, and far out it falls to 0."""
    if m is None and check_time_difference("delta_tau", delta_tau):
        return on_arrays(pair_visibility, delta_tau, k)
    e = (m or FloatMath).exp(-abs(0.5 * k.delta_gamma * delta_tau))
    return 2.0 * e / (1.0 + e * e)


# one-sided projectors |b><b|: contract the bra with the chosen side per
# label of the other side, then put the ket back on the chosen side

def _project_left(c, b) -> tuple:
    b_S, b_L, bra_S, bra_L = b
    in_S = bra_S * c[2] + bra_L * c[0]
    in_L = bra_S * c[1] + bra_L * c[3]
    return b_L * in_S, b_S * in_L, b_S * in_S, b_L * in_L


def _project_right(c, b) -> tuple:
    b_S, b_L, bra_S, bra_L = b
    in_S = bra_S * c[2] + bra_L * c[1]
    in_L = bra_S * c[0] + bra_L * c[3]
    return b_S * in_L, b_L * in_S, b_S * in_S, b_L * in_L


def _survivor_factors(dt: float, k: PhysicalConstants, m=FloatMath) -> tuple:
    """``evolution_factors`` over dt rescaled to single-beam survivors."""
    f_S, f_L = evolution_factors(dt, k, m)
    scale = 1.0 / m.sqrt(pair_beam_norm(dt, 0.0, k, m))
    return f_S * scale, f_L * scale


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
    both projections on the fully evolved state, meter-first (normal mode) and
    object-first (delayed-choice mode).  All three agree identically.  Each
    ordering normalizes, projects and rescales survivors on its own; they
    share only the propagators at tau_l and tau_r0 and the two eigenstates.

    Given arrays of times and a sequence of projectors, one per pair, or one
    projector for every pair, the same steps run on numpy arrays and the
    three norms are arrays."""
    if m is None and (check_times("evolution times", tau_l, tau_r0)
                      or not isinstance(p, JointProjector)):
        return on_arrays(delayed_choice_norms, np.asarray(tau_l, float),
                         np.asarray(tau_r0, float), p, k)
    m = m or FloatMath
    if isinstance(p, JointProjector):
        b_l, b_r = _ket(p.left), _ket(p.right)
    else:
        b_l, b_r = _kets([q.left for q in p]), _kets([q.right for q in p])
    e_l = evolution_factors(tau_l, k, m)
    e_r = evolution_factors(tau_r0, k, m)

    # direct: project the survivor-normalized state at (tau_l, tau_r0)
    phi = _normalize(_evolve(_INITIAL, e_l, e_r), m)
    direct = _norm_sq(_project_left(_project_right(phi, b_r), b_l))

    # normal ordering: right projection at tau_r0, then left evolution to tau_l
    s = _project_right(_normalize(_evolve(_INITIAL, e_r, e_r), m), b_r)
    s = _propagate_left(s, _survivor_factors(tau_l - tau_r0, k, m))
    normal = _norm_sq(_project_left(s, b_l))

    # delayed ordering: left projection at tau_l, then right evolution to tau_r0
    s = _project_left(_normalize(_evolve(_INITIAL, e_l, e_l), m), b_l)
    s = _propagate_right(s, _survivor_factors(tau_r0 - tau_l, k, m))
    delayed = _norm_sq(_project_right(s, b_r))

    return direct, normal, delayed
