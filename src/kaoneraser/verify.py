"""Self-contained verification suite: oracle equivalences, normalization
integrals, the delayed-choice ordering identity and the misidentification
window, each reported with its worst-case deviation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .core import Outcome, PhysicalConstants, beam_norm
from .decay import (CHANNEL_BY_CODE, AmplitudeModel, DecayChannel,
                    build_amplitude_model, mixed_decay_rate,
                    mixed_active_passive_prob, passive_joint_prob)
from .pairs import (JointProjector, closed_form_joint, delayed_choice_norms,
                    joint_projective_prob, normalized_pair)
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


def _deviation(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) if scale < 1e-12 else abs(a - b) / scale


_SS_PAIRS = [
    (Outcome.K0, Outcome.K0, "ss_like"),
    (Outcome.K0BAR, Outcome.K0BAR, "ss_like"),
    (Outcome.K0, Outcome.K0BAR, "ss_unlike"),
    (Outcome.K0BAR, Outcome.K0, "ss_unlike"),
]
_SL_PAIRS = [
    (Outcome.K0, Outcome.KS, "s_ks"),
    (Outcome.K0BAR, Outcome.KS, "s_ks"),
    (Outcome.K0, Outcome.KL, "s_kl"),
    (Outcome.K0BAR, Outcome.KL, "s_kl"),
]


def check_oracle_grid(k: PhysicalConstants, tol: float = 1e-10) -> CheckResult:
    """Projector computation on the normalized pair state vs closed forms,
    for all 8 outcome pairs over a dense time-difference grid."""
    worst = 0.0
    for dt in np.arange(-12.0, 12.0 + 1e-9, 0.25):
        state = normalized_pair(float(dt), k)
        for left, right, kind in _SS_PAIRS + _SL_PAIRS:
            got = joint_projective_prob(state, JointProjector(left, right))
            want = closed_form_joint(kind, float(dt), k)
            worst = max(worst, _deviation(got, want))
    return CheckResult("oracle-equivalence-grid", worst < tol, worst, tol)


def check_active_passive(k: PhysicalConstants, model: AmplitudeModel,
                         tol: float = 1e-10) -> CheckResult:
    """Passive and mixed joint probabilities vs the active closed forms on the
    (tau_l, tau_r) product grid {0,1,2,4,8}^2, plus the single-kaon case."""
    worst = 0.0
    grid = (0.0, 1.0, 2.0, 4.0, 8.0)
    for tl in grid:
        for tr in grid:
            dt = tl - tr
            for left, right, kind in _SS_PAIRS + _SL_PAIRS:
                want = closed_form_joint(kind, dt, k)
                got = passive_joint_prob(left, tl, right, tr, k, model)
                worst = max(worst, _deviation(got, want))
                got = mixed_active_passive_prob(left, tl, right, tr, k, model)
                worst = max(worst, _deviation(got, want))
    for tau in np.arange(0.0, 12.0 + 1e-9, 0.5):
        p_k0, p_k0b = strangeness_probs(float(tau), k)
        p_ks, p_kl = lifetime_probs(float(tau), k)
        for outcome, want in ((Outcome.K0, p_k0), (Outcome.K0BAR, p_k0b),
                              (Outcome.KS, p_ks), (Outcome.KL, p_kl)):
            got = passive_single_prob(outcome, float(tau), k, model)
            worst = max(worst, _deviation(got, want))
    return CheckResult("active-passive-coincidence", worst < tol, worst, tol)


def single_rate_normalization(k: PhysicalConstants, model: AmplitudeModel,
                              cutoff: float = 40.0) -> float:
    """Numerically integrate the four single-kaon decay rates; the closed-form
    exponential tail beyond the cutoff is added exactly."""
    total = 0.0
    lam = k.gamma_mean + 1j * k.delta_m
    for f, a_s, a_l in zip(CHANNEL_BY_CODE, model.a_S, model.a_L):
        part, _ = quad(lambda t: single_decay_rate(f, t, k, model),
                       0.0, cutoff, limit=200)
        tail = (0.5 * (abs(a_s) ** 2 * math.exp(-k.gamma_S * cutoff) / k.gamma_S
                       + abs(a_l) ** 2 * math.exp(-k.gamma_L * cutoff) / k.gamma_L)
                + (a_s * a_l) * (np.exp(-lam * cutoff) / lam).real)
        total += part + tail
    return total


def joint_rate_normalization(k: PhysicalConstants, model: AmplitudeModel) -> float:
    """Integrate the joint decay rate over all 16 channel pairs using the
    separable structure of each term (1D quadratures on [0, inf))."""
    i_l, _ = quad(lambda t: math.exp(-k.gamma_L * t), 0.0, np.inf, limit=200)
    i_s, _ = quad(lambda t: math.exp(-k.gamma_S * t), 0.0, np.inf, limit=200)
    i_c, _ = quad(lambda t: math.exp(-k.gamma_mean * t) * math.cos(k.delta_m * t),
                  0.0, np.inf, limit=200)
    i_n, _ = quad(lambda t: math.exp(-k.gamma_mean * t) * math.sin(k.delta_m * t),
                  0.0, np.inf, limit=200)
    total = 0.0
    for aS_l, aL_l in zip(model.a_S, model.a_L):
        for aS_r, aL_r in zip(model.a_S, model.a_L):
            alpha = aL_l * aS_r
            beta = aS_l * aL_r
            total += (0.5 * (alpha ** 2 + beta ** 2) * i_l * i_s
                      - alpha * beta * (i_c ** 2 + i_n ** 2))
    return total


def mixed_rate_normalization(tau_l: float, k: PhysicalConstants,
                             model: AmplitudeModel) -> tuple[float, float]:
    """(numeric integral, expected N(tau_l, 0)/2) for the mixed-measurement
    rate summed over right channels."""
    def integrand(t):
        return sum(mixed_decay_rate(f, tau_l, t, k, model) for f in DecayChannel)

    got, _ = quad(integrand, 0.0, np.inf, limit=400)
    want = 0.5 * beam_norm(tau_l, k)
    return got, want


def check_normalizations(k: PhysicalConstants, model: AmplitudeModel) -> list[CheckResult]:
    out = []
    single = single_rate_normalization(k, model)
    out.append(CheckResult("single-rate-normalization",
                           abs(single - 1.0) < 1e-6, abs(single - 1.0), 1e-6))
    joint = joint_rate_normalization(k, model)
    out.append(CheckResult("joint-rate-normalization",
                           abs(joint - 1.0) < 1e-5, abs(joint - 1.0), 1e-5))
    worst = 0.0
    for tau_l in (0.0, 1.0, 4.0):
        got, want = mixed_rate_normalization(tau_l, k, model)
        worst = max(worst, abs(got - want))
    out.append(CheckResult("mixed-rate-normalization", worst < 1e-5, worst, 1e-5))
    return out


def check_delayed_choice(k: PhysicalConstants, n_triples: int = 1000,
                         seed: int = 20240824, tol: float = 1e-12) -> CheckResult:
    """Squared norms of the three operator orderings agree for randomized
    (tau_l, tau_r0, projector) triples."""
    rng = np.random.default_rng(seed)
    outcomes = list(Outcome)
    worst = 0.0
    for _ in range(n_triples):
        tau_l = float(rng.uniform(0.0, 8.0))
        tau_r0 = float(rng.uniform(0.0, 8.0))
        p = JointProjector(outcomes[rng.integers(4)], outcomes[rng.integers(4)])
        norms = delayed_choice_norms(tau_l, tau_r0, p, k)
        worst = max(worst, max(norms) - min(norms))
    return CheckResult("delayed-choice-identity", worst < tol, worst, tol)


def check_misid_window(k: PhysicalConstants) -> list[CheckResult]:
    out = []
    p_ks, p_kl = misid_probs(MisidWindow(4.8), k)
    out.append(CheckResult("misid-window-4.8", abs(p_ks - p_kl) < 1e-4,
                           abs(p_ks - p_kl), 1e-4,
                           detail=f"wrong_KS={p_ks:.6f} wrong_KL={p_kl:.6f}"))
    x_eq = brentq(lambda x: math.exp(-k.gamma_S * x)
                  - (1.0 - math.exp(-k.gamma_L * x)), 0.5, 20.0)
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
