"""Self-contained verification suite: oracle equivalences, normalization
integrals, the channel-pair weights experiment D draws from (cell by cell),
the delayed-choice ordering identity and the misidentification window, each
reported with its worst-case deviation.  The oracles run on whole grids of
times in one array call per outcome pair or channel."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ArrayMath, Outcome, PhysicalConstants, pair_beam_norm
from .decay import (AmplitudeModel, DecayChannel, build_amplitude_model,
                    mixed_active_passive_prob, mixed_decay_rate,
                    pair_rate_terms, passive_joint_prob, passive_pair_weights)
from .pairs import (JOINT_KINDS, JointProjector, closed_form_joint,
                    delayed_choice_norms, joint_projective_prob,
                    normalized_pair)
from .single import (MisidWindow, lifetime_probs, misid_probs,
                     passive_single_prob, single_decay_rate, strangeness_probs)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""
    warning: bool = False


def _worst(got, want) -> float:
    """The largest deviation of ``got`` from ``want``, taken elementwise:
    relative, or absolute where both are below 1e-12 in size."""
    diff = abs(got - want)
    scale = np.maximum(abs(got), abs(want))
    return float((diff / np.where(scale < 1e-12, 1.0, scale)).max(initial=0.0))


# the 8 ordered outcome pairs with their closed-form kind
_PAIRS = [
    (Outcome.K0, Outcome.K0, "ss_like"),
    (Outcome.K0BAR, Outcome.K0BAR, "ss_like"),
    (Outcome.K0, Outcome.K0BAR, "ss_unlike"),
    (Outcome.K0BAR, Outcome.K0, "ss_unlike"),
    (Outcome.K0, Outcome.KS, "s_ks"),
    (Outcome.K0BAR, Outcome.KS, "s_ks"),
    (Outcome.K0, Outcome.KL, "s_kl"),
    (Outcome.K0BAR, Outcome.KL, "s_kl"),
]


def _closed_forms(delta_tau: np.ndarray, k: PhysicalConstants) -> dict:
    """``closed_form_joint`` of each kind on an array of time differences."""
    return {kind: closed_form_joint(kind, delta_tau, k) for kind in JOINT_KINDS}


def check_oracle_grid(k: PhysicalConstants) -> CheckResult:
    """Projector computation on the normalized pair state vs closed forms,
    for all 8 outcome pairs over a dense time-difference grid."""
    dt = np.arange(-12.0, 12.0 + 1e-9, 0.25)
    state = normalized_pair(dt, k)
    closed = _closed_forms(dt, k)
    worst = max(_worst(joint_projective_prob(state, JointProjector(l, r)),
                       closed[kind]) for l, r, kind in _PAIRS)
    return CheckResult("oracle-equivalence-grid", worst < 1e-10, worst, 1e-10)


def check_active_passive(k: PhysicalConstants,
                         model: AmplitudeModel) -> CheckResult:
    """Passive and mixed joint probabilities vs the active closed forms on the
    (tau_l, tau_r) product grid {0,1,2,4,8}^2, plus the single-kaon case."""
    grid = np.array((0.0, 1.0, 2.0, 4.0, 8.0))
    tl, tr = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
    closed = _closed_forms(tl - tr, k)
    worst = max(_worst(oracle(left, tl, right, tr, k, model), closed[kind])
                for left, right, kind in _PAIRS
                for oracle in (passive_joint_prob, mixed_active_passive_prob))
    tau = np.arange(0.0, 12.0 + 1e-9, 0.5)
    p_k0, p_k0b = strangeness_probs(tau, k)
    p_ks, p_kl = lifetime_probs(tau, k)
    for outcome, want in ((Outcome.K0, p_k0), (Outcome.K0BAR, p_k0b),
                          (Outcome.KS, p_ks), (Outcome.KL, p_kl)):
        worst = max(worst, _worst(passive_single_prob(outcome, tau, k, model),
                                  want))
    return CheckResult("active-passive-coincidence", worst < 1e-10, worst,
                       1e-10)


def decay_time_nodes(k: PhysicalConstants) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, inf) for exp(-G_S t), exp(-G_L t) and
    exp(-Gbar t) cos(dm t + phase) terms: Gauss-Legendre on [0, T = 32/Gbar],
    its node count growing with the phase r T of the fastest term, r = max(G_S,
    |Gbar + i dm|); past T, Gauss-Laguerre in G_L for the exp(-G_L t) left."""
    edge = 32.0 / k.gamma_mean
    rate = max(k.gamma_S, math.hypot(k.gamma_mean, k.delta_m))
    n = min(16 + math.ceil(0.3 * rate * edge), 1024)  # dm up to about 100 Gbar
    x, w = np.polynomial.legendre.leggauss(n)
    x_tail, w_tail = np.polynomial.laguerre.laggauss(8)
    return (np.concatenate((0.5 * edge * (x + 1.0), edge + x_tail / k.gamma_L)),
            np.concatenate((0.5 * edge * w, w_tail * np.exp(x_tail) / k.gamma_L)))


def integrated_pair_weights(k: PhysicalConstants, model: AmplitudeModel,
                            nodes) -> np.ndarray:
    """The joint rate 0.5 (direct - cross) of ``pair_rate_terms`` for all 16
    channel pairs, integrated on the nodes' grid in chunks of 2^20 values."""
    t, w = nodes
    alpha = np.outer(model.a_L, model.a_S).reshape(16, 1, 1)
    beta = np.outer(model.a_S, model.a_L).reshape(16, 1, 1)
    cells = np.zeros(16)
    step = max(1, 2 ** 16 // len(t))
    for s in range(0, len(t), step):
        direct, cross = pair_rate_terms(alpha, beta, t[s:s + step, None], t, k,
                                        ArrayMath)
        cells += 0.5 * (direct - cross) @ w @ w[s:s + step]
    return cells.reshape(4, 4)


def check_normalizations(k: PhysicalConstants, model: AmplitudeModel) -> list[CheckResult]:
    """Rate integrals vs survivor norms, and D's channel-pair weights cell by
    cell: sums miss the cross term, zero over the cells (sum_f a_S a_L = 0)."""
    nodes = t, w = decay_time_nodes(k)
    single = abs(float(sum(single_decay_rate(f, t, k, model) @ w
                           for f in DecayChannel)) - 1.0)
    cells = integrated_pair_weights(k, model, nodes)
    joint = abs(float(cells.sum()) - 1.0)
    weights = _worst(cells, passive_pair_weights(k, model))
    # the mixed rate summed over right channels integrates to N(tau_l, 0)/2,
    # here for three tau_l at once, a row each
    taus = (0.0, 1.0, 4.0)
    rates = sum(mixed_decay_rate(Outcome.K0, f, np.array(taus)[:, None], t, k,
                                 model) @ w
                for f in DecayChannel)
    mixed = float(np.max(np.abs(
        rates - [0.5 * pair_beam_norm(tau_l, 0.0, k) for tau_l in taus])))
    return [CheckResult("single-rate-normalization", single < 1e-6, single, 1e-6),
            CheckResult("joint-rate-normalization", joint < 1e-5, joint, 1e-5),
            CheckResult("passive-pair-weights", weights < 1e-10, weights, 1e-10,
                        detail=f"{len(nodes[0])} nodes per decay-time axis"),
            CheckResult("mixed-rate-normalization", mixed < 1e-5, mixed, 1e-5)]


def _delayed_choice_triples(n_triples: int, seed: int) -> tuple:
    """The (tau_l, tau_r0, projector) triples as three columns: both times
    uniform on [0, 8), each side's outcome uniform over the four, drawn as
    one array of each."""
    rng = np.random.default_rng(seed)
    tau_l, tau_r0 = rng.uniform(0.0, 8.0, (n_triples, 2)).T
    sides = rng.integers(4, size=(n_triples, 2)).tolist()
    table = [[JointProjector(left, right) for right in Outcome]
             for left in Outcome]
    return tau_l, tau_r0, [table[i][j] for i, j in sides]


def check_delayed_choice(k: PhysicalConstants, n_triples: int = 1000,
                         seed: int = 20240824) -> CheckResult:
    """Squared norms of the three operator orderings agree for randomized
    (tau_l, tau_r0, projector) triples, all evaluated in one array call."""
    norms = delayed_choice_norms(*_delayed_choice_triples(n_triples, seed), k)
    worst = float(np.ptp(norms, axis=0).max(initial=0.0))
    return CheckResult("delayed-choice-identity", worst < 1e-12, worst, 1e-12)


def check_misid_window(k: PhysicalConstants) -> list[CheckResult]:
    out = []
    p_ks, p_kl = misid_probs(MisidWindow(4.8), k)
    out.append(CheckResult("misid-window-4.8", abs(p_ks - p_kl) < 1e-4,
                           abs(p_ks - p_kl), 1e-4,
                           detail=f"wrong_KS={p_ks:.6f} wrong_KL={p_kl:.6f}"))
    # f(x) = P(K_S decays after x) - P(K_L decays before x) is 1 at x = 0 and
    # decreasing: double the upper end until f < 0, then bisect down to
    # adjacent doubles, keeping f(lo) >= 0
    def f(x):
        wrong_ks, wrong_kl = misid_probs(MisidWindow(x), k)
        return wrong_ks - wrong_kl

    lo, hi = 0.0, 1.0
    while f(hi) >= 0.0:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if f(mid) >= 0.0 else (lo, mid)
    x_eq = lo
    p_ks, p_kl = misid_probs(MisidWindow(x_eq), k)
    out.append(CheckResult("misid-equal-window", abs(p_ks - p_kl) < 1e-10,
                           abs(p_ks - p_kl), 1e-10,
                           detail=f"equal-misid window at {x_eq:.4f} tau_S"))
    return out


def check_branching_consistency(k: PhysicalConstants) -> CheckResult:
    mismatch = k.semileptonic_width_mismatch()
    ok = mismatch <= 0.10
    return CheckResult("delta-s-delta-q-consistency", True, mismatch, 0.10,
                       detail="" if ok else
                       "branching ratios violate the Delta-S=Delta-Q width check",
                       warning=not ok)


def run_all(k: PhysicalConstants | None = None) -> list[CheckResult]:
    k = k or PhysicalConstants()
    model = build_amplitude_model(k)
    results = [check_oracle_grid(k), check_active_passive(k, model)]
    results.extend(check_normalizations(k, model))
    results.append(check_delayed_choice(k))
    results.extend(check_misid_window(k))
    results.append(check_branching_consistency(k))
    return results
