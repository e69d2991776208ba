"""Entangled two-kaon states: joint probabilities and the ordering-independence
of delayed-choice measurements.

Amplitudes live on the product lifetime basis |K_i>_l |K_j>_r.  The pair
created in a phi decay or p-pbar annihilation is antisymmetric, so free
evolution populates only LS and SL, the two amplitudes of ``TwoKaonState``.
A one-sided projection populates all four labels, so ``delayed_choice_norms``
runs its orderings on private functions of plain (LS, SL, SS, LL) tuples and
of propagators and eigenstates evaluated once per call.  Sums keep the term
order of a loop over the labels (S before L), so every probability and norm
is the same to the last bit; ``tests/test_oracle_digest.py`` pins them.
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
    normalized: bool = False


@dataclass(frozen=True)
class JointProjector:
    left: Outcome
    right: Outcome


_INITIAL = (1.0 / _SQRT2, -1.0 / _SQRT2, 0.0, 0.0)


def _norm_sq(c) -> float:
    return abs(c[0]) ** 2 + abs(c[1]) ** 2 + abs(c[2]) ** 2 + abs(c[3]) ** 2


def _check_times(tau_l: float, tau_r: float) -> None:
    if not (0.0 <= tau_l < math.inf and 0.0 <= tau_r < math.inf):
        raise ValueError("evolution times must be finite and nonnegative, "
                         f"got {tau_l!r} and {tau_r!r}")


def _evolve(c, f_l, f_r) -> tuple:
    """Both sides propagated by their ``evolution_factors`` (f_S, f_L)."""
    s_l, l_l = f_l
    s_r, l_r = f_r
    return (l_l * s_r * c[0], s_l * l_r * c[1], s_l * s_r * c[2],
            l_l * l_r * c[3])


def _normalize(c) -> tuple:
    n2 = _norm_sq(c)
    if n2 <= 0.0:
        raise SingularStateError("cannot normalize a zero-norm pair state")
    n = math.sqrt(n2)
    return c[0] / n, c[1] / n, c[2] / n, c[3] / n


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


# (b_S, b_L, b_S*, b_L*) per outcome: its eigenstate and that state's bra
_KETS = {o: (b.c_S, b.c_L, b.c_S.conjugate(), b.c_L.conjugate())
         for o, b in ((o, make_state(o)) for o in Outcome)}


def _ket(outcome: Outcome) -> tuple:
    try:
        return _KETS[outcome]
    except (KeyError, TypeError):
        raise ValueError(f"unknown outcome {outcome!r}") from None


def joint_projective_prob(state: TwoKaonState, p: JointProjector) -> float:
    """|<out_l, out_r | state>|^2 for a normalized two-kaon state."""
    if not state.normalized:
        raise ValueError("joint_projective_prob needs a normalized state")
    _, _, ls, ll = _ket(p.left)
    _, _, rs, rl = _ket(p.right)
    c_LS, c_SL, _ = state
    amp = ll * rs * c_LS + ls * rl * c_SL
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


def _survivor_factors(dt: float, k: PhysicalConstants) -> tuple:
    """``evolution_factors`` over dt rescaled to single-beam survivors."""
    f_S, f_L = evolution_factors(dt, k)
    scale = 1.0 / math.sqrt(beam_norm(dt, k))
    return f_S * scale, f_L * scale


def _propagate_left(c, f) -> tuple:
    f_S, f_L = f
    return f_L * c[0], f_S * c[1], f_S * c[2], f_L * c[3]


def _propagate_right(c, f) -> tuple:
    f_S, f_L = f
    return f_S * c[0], f_L * c[1], f_S * c[2], f_L * c[3]


def delayed_choice_norms(tau_l: float, tau_r0: float, p: JointProjector,
                         k: PhysicalConstants) -> tuple[float, float, float]:
    """Squared norms of the projected pair state under three operator orderings:
    both projections on the fully evolved state, meter-first (normal mode) and
    object-first (delayed-choice mode).  All three agree identically.  Each
    ordering normalizes, projects and rescales survivors on its own; they
    share only the propagators at tau_l and tau_r0 and the two eigenstates."""
    _check_times(tau_l, tau_r0)
    e_l = evolution_factors(tau_l, k)
    e_r = evolution_factors(tau_r0, k)
    b_l = _ket(p.left)
    b_r = _ket(p.right)

    # direct: project the survivor-normalized state at (tau_l, tau_r0)
    phi = _normalize(_evolve(_INITIAL, e_l, e_r))
    direct = _norm_sq(_project_left(_project_right(phi, b_r), b_l))

    # normal ordering: right projection at tau_r0, then left evolution to tau_l
    s = _project_right(_normalize(_evolve(_INITIAL, e_r, e_r)), b_r)
    s = _propagate_left(s, _survivor_factors(tau_l - tau_r0, k))
    normal = _norm_sq(_project_left(s, b_l))

    # delayed ordering: left projection at tau_l, then right evolution to tau_r0
    s = _project_left(_normalize(_evolve(_INITIAL, e_l, e_l)), b_l)
    s = _propagate_right(s, _survivor_factors(tau_r0 - tau_l, k))
    delayed = _norm_sq(_project_right(s, b_r))

    return direct, normal, delayed
