"""Self-contained verification suite: oracle equivalences, normalization
integrals, the channel-pair weights experiment D draws from (cell by cell),
the delayed-choice ordering identity and the misidentification window, each
reported with its worst-case deviation.  The oracles run on whole grids of
times in one array call per outcome pair or channel."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ArrayMath, Outcome, PhysicalConstants, on_arrays,
                   pair_beam_norm)
from .decay import (OUTCOME_CHANNEL, AmplitudeModel, DecayChannel,
                    build_amplitude_model, decay_width, joint_decay_rate,
                    mixed_active_passive_prob, mixed_decay_rate,
                    pair_rate_terms, passive_joint_prob, passive_pair_weights,
                    passive_single_prob)
from .pairs import (JOINT_KINDS, JointProjector, closed_form_joint,
                    delayed_choice_norms, joint_projective_prob,
                    normalized_pair, strangeness_probs)
from .sim import SimConfig, misid_probs


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
    relative, or absolute where both are below 1e-12 in size.  A check
    takes it once over all its values, so that a NaN anywhere makes it NaN
    (Python's max would keep an earlier number over a later NaN)."""
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
    worst = _worst(np.array([joint_projective_prob(state, JointProjector(l, r))
                             for l, r, _ in _PAIRS]),
                   np.array([closed[kind] for _, _, kind in _PAIRS]))
    return CheckResult("oracle-equivalence-grid", worst < 1e-10, worst, 1e-10)


def _rate_quotients(left: Outcome, right: Outcome, tau_l, tau_r,
                    k: PhysicalConstants, model: AmplitudeModel, m) -> tuple:
    """The paper's passive and mixed probabilities of (left, right): the joint
    and the mixed decay rate over the identifying widths and the survivor
    norm.  Rates and norm all scale by exp(-(G_S + G_L) s) when both times
    shift by s, so they are taken with the earlier time at 0."""
    d = tau_l - tau_r
    tau_l, tau_r = (d > 0) * d, (d < 0) * -d
    f_l, f_r = OUTCOME_CHANNEL[left], OUTCOME_CHANNEL[right]
    w_l, w_r = decay_width(f_l, k, model), decay_width(f_r, k, model)
    norm = pair_beam_norm(tau_l, tau_r, k, m)
    return (joint_decay_rate(f_l, tau_l, f_r, tau_r, k, model, m)
            / (w_l * w_r * norm),
            mixed_decay_rate(left, f_r, tau_l, tau_r, k, model, m) / (w_r * norm))


def check_active_passive(k: PhysicalConstants,
                         model: AmplitudeModel) -> CheckResult:
    """Passive and mixed joint probabilities vs the active closed forms on the
    (tau_l, tau_r) product grid {0,1,2,4,8}^2, by the rate quotients (on
    arrays, under ``on_arrays``' error state) and by the projection oracles;
    plus the single-kaon case."""
    grid = np.array((0.0, 1.0, 2.0, 4.0, 8.0))
    tl, tr = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
    closed = _closed_forms(tl - tr, k)
    # the quotients first: at a zero identifying width decay_width names the
    # constants field, where the oracles' bras name only the channel
    got = [p for left, right, _ in _PAIRS
           for p in on_arrays(_rate_quotients, left, right, tl, tr, k, model)]
    got += [oracle(left, tl, right, tr, k, model) for left, right, _ in _PAIRS
            for oracle in (passive_joint_prob, mixed_active_passive_prob)]
    want = [closed[kind] for _, _, kind in _PAIRS for _ in range(2)] * 2
    tau = np.arange(0.0, 12.0 + 1e-9, 0.5)
    p_k0, p_k0b = strangeness_probs(tau, k)
    # P[K_S] of a kaon born as K0: the partner's K0bar at 0 is the left side
    p_ks = 2.0 * closed_form_joint("s_ks", -tau, k)
    for outcome, p in ((Outcome.K0, p_k0), (Outcome.K0BAR, p_k0b),
                       (Outcome.KS, p_ks), (Outcome.KL, 1.0 - p_ks)):
        got.append(passive_single_prob(outcome, tau, k, model))
        want.append(p)
    worst = _worst(np.concatenate(got), np.concatenate(want))
    return CheckResult("active-passive-coincidence", worst < 1e-10, worst,
                       1e-10)


def _gauss_rule(diagonal: np.ndarray, off_diagonal: np.ndarray,
                mu0: float) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss rule of the weight of total mass ``mu0`` whose orthonormal
    polynomials obey b_{k+1} p_{k+1} = (x - a_k) p_k - b_k p_{k-1}: the nodes
    are the eigenvalues of its Jacobi matrix (a on the diagonal, b beside it),
    the weights the Christoffel numbers mu0 / sum_k p_k(x)^2, the recurrence
    started at p_0 = 1 (so p_k is sqrt(mu0) times the orthonormal one) and
    run over all nodes at once."""
    x = np.linalg.eigvalsh(np.diag(diagonal) + np.diag(off_diagonal, -1))
    prev, p, total = np.zeros_like(x), np.ones_like(x), np.ones_like(x)
    b = off_diagonal.tolist()
    for a_k, b_k, b_next in zip(diagonal.tolist(), [0.0, *b], b):
        prev, p = p, ((x - a_k) * p - b_k * prev) / b_next
        total += p * p
    return x, mu0 / total


def decay_time_nodes(k: PhysicalConstants) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, inf) for exp(-G_S t), exp(-G_L t) and
    exp(-Gbar t) cos(dm t + phase) terms: Gauss-Legendre on [0, T = 32/Gbar],
    its node count growing with the phase r T of the fastest term, r = max(G_S,
    |Gbar + i dm|); past T, 8-point Gauss-Laguerre in G_L for the exp(-G_L t)
    left."""
    edge = 32.0 / k.gamma_mean
    rate = max(k.gamma_S, math.hypot(k.gamma_mean, k.delta_m))
    n = min(16 + math.ceil(0.3 * rate * edge), 1024)  # dm up to about 100 Gbar
    # Legendre on [-1, 1]: a_j = 0, b_j = j / sqrt(4 j^2 - 1), mu0 = 2
    j = np.arange(1.0, n)
    x, w = _gauss_rule(np.zeros(n), j / np.sqrt(4.0 * j * j - 1.0), 2.0)
    # Laguerre, weight exp(-x) on [0, inf): a_j = 2 j + 1, b_j = j, mu0 = 1
    j = np.arange(8.0)
    x_tail, w_tail = _gauss_rule(2.0 * j + 1.0, j[1:], 1.0)
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
    # the rates of a single kaon born as K0: its partner's K0bar at 0
    rates = (2.0 * mixed_decay_rate(Outcome.K0BAR, f, 0.0, t, k, model)
             for f in DecayChannel)
    single = abs(float(sum(r @ w for r in rates)) - 1.0)
    cells = integrated_pair_weights(k, model, nodes)
    joint = abs(float(cells.sum()) - 1.0)
    weights = _worst(cells, passive_pair_weights(k, model))
    # the mixed rate summed over right channels integrates to N(tau_l, 0)/2,
    # here for three tau_l at once, a row each
    taus = np.array((0.0, 1.0, 4.0))
    rates = sum(mixed_decay_rate(Outcome.K0, f, taus[:, None], t, k, model) @ w
                for f in DecayChannel)
    mixed = float(np.max(np.abs(rates - 0.5 * pair_beam_norm(taus, 0.0, k))))
    return [CheckResult("single-rate-normalization", single < 1e-6, single, 1e-6),
            CheckResult("joint-rate-normalization", joint < 1e-5, joint, 1e-5),
            CheckResult("passive-pair-weights", weights < 1e-10, weights, 1e-10,
                        detail=f"{len(nodes[0])} nodes per decay-time axis"),
            CheckResult("mixed-rate-normalization", mixed < 1e-5, mixed, 1e-5)]


def _delayed_choice_triples() -> tuple:
    """The 1000 (tau_l, tau_r0, projector) triples as three columns: both
    times uniform on [0, 8), each side's outcome uniform over the four, drawn
    as one array of each from a fixed seed."""
    rng = np.random.default_rng(20240824)
    tau_l, tau_r0 = rng.uniform(0.0, 8.0, (1000, 2)).T
    sides = rng.integers(4, size=(1000, 2)).tolist()
    table = [[JointProjector(left, right) for right in Outcome]
             for left in Outcome]
    return tau_l, tau_r0, [table[i][j] for i, j in sides]


def check_delayed_choice(k: PhysicalConstants) -> CheckResult:
    """Squared norms of the three operator orderings agree for randomized
    (tau_l, tau_r0, projector) triples, all evaluated in one array call."""
    norms = delayed_choice_norms(*_delayed_choice_triples(), k)
    worst = float(np.ptp(norms, axis=0).max(initial=0.0))
    return CheckResult("delayed-choice-identity", worst < 1e-12, worst, 1e-12)


def check_misid_window(k: PhysicalConstants) -> list[CheckResult]:
    out = []
    w = SimConfig.window  # the window simulated runs use
    p_ks, p_kl = misid_probs(w, k)
    out.append(CheckResult(f"misid-window-{w}", abs(p_ks - p_kl) < 1e-4,
                           abs(p_ks - p_kl), 1e-4,
                           detail=f"wrong_KS={p_ks:.6f} wrong_KL={p_kl:.6f}"))
    # f(x) = P(K_S decays after x) - P(K_L decays before x) is 1 at x = 0 and
    # decreasing: double the upper end until f < 0, then bisect down to
    # adjacent doubles, keeping f(lo) >= 0
    def f(x):
        wrong_ks, wrong_kl = misid_probs(x, k)
        return wrong_ks - wrong_kl

    lo, hi = 0.0, 1.0
    while f(hi) >= 0.0:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if f(mid) >= 0.0 else (lo, mid)
    x_eq = lo
    p_ks, p_kl = misid_probs(x_eq, k)
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
