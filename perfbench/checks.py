"""Output checks that hold for any workload seed.

Each check is one family of comparisons.  When the program is correct a check
raises a false alarm with probability at most ``ALPHA``: every comparison in
the family is tested at level ``ALPHA / m`` (Bonferroni over its ``m``
comparisons), and never with a band narrower than the acceptance suite's
4 sigma.  Per-bin frequencies use exact two-sided binomial tails, so bins with
few events need no normal approximation.
"""

from __future__ import annotations

import numpy as np
from scipy.special import bdtr, bdtrc, ndtri

from kaoneraser import (OUTCOME_CHANNEL, Binning, Outcome, closed_form_joint,
                        decay_width, pair_visibility, passive_joint_prob)

ALPHA = 1e-6
SIGMAS = 4.0

_OUTCOMES = tuple(Outcome)                      # code order K0, K0bar, KS, KL
_PAIRS = [(a, b) for a in _OUTCOMES for b in _OUTCOMES]
_STRANGENESS = (Outcome.K0, Outcome.K0BAR)


def binomial_pvalues(counts, n, p) -> np.ndarray:
    """Two-sided exact binomial p-values, 2 min(P[X <= k], P[X >= k]) capped at 1."""
    counts = np.asarray(counts, dtype=float)
    n = np.broadcast_to(np.asarray(n, dtype=float), counts.shape)
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    lower = bdtr(counts, n, p)
    upper = np.where(counts > 0, bdtrc(counts - 1, n, p), 1.0)
    return np.minimum(1.0, 2.0 * np.minimum(lower, upper))


def a1_pair_probs(k):
    """Conditional ordered-pair probabilities of experiment A1 at time
    difference dt: active strangeness on both sides, closed forms."""
    def probs(dt):
        like = closed_form_joint("ss_like", dt, k)
        unlike = closed_form_joint("ss_unlike", dt, k)
        return [(like if a is b else unlike)
                if a in _STRANGENESS and b in _STRANGENESS else 0.0
                for a, b in _PAIRS]
    return probs


def d_pair_probs(k, model):
    """Conditional ordered-pair probabilities of experiment D at time
    difference dt.  The joint decay rate summed over all channel pairs is
    Gamma_S Gamma_L N(tau_l, tau_r), so the share of the pair (a, b) is the
    passive joint probability weighted by both identifying widths."""
    width = {o: decay_width(OUTCOME_CHANNEL[o], k, model) for o in _OUTCOMES}
    scale = k.gamma_S * k.gamma_L

    def probs(dt):
        tau_l, tau_r = max(dt, 0.0), max(-dt, 0.0)
        return [passive_joint_prob(a, tau_l, b, tau_r, k, model)
                * width[a] * width[b] / scale for a, b in _PAIRS]
    return probs


class BinnedCheck:
    """Per-bin ``estimate_probs`` output against an oracle of the conditional
    pair probabilities at each time difference.

    The expected frequency of a pair in a bin is the oracle averaged over the
    bin's classified events.  With ``quantum`` set, time differences are
    grouped into sub-bins of that width and the oracle is taken at their
    centres (for continuous decay times); otherwise at each distinct value.
    Oracle values are cached across calls.
    """

    def __init__(self, name, probs, quantum=None):
        self.name = name
        self.probs = probs
        self.quantum = quantum
        self._cache: dict[float, list[float]] = {}

    def _oracle(self, values) -> np.ndarray:
        for v in values:
            if v not in self._cache:
                self._cache[v] = self.probs(v)
        return np.array([self._cache[v] for v in values])

    def __call__(self, events, estimates) -> tuple[bool, str]:
        b = Binning()             # the binning estimate_probs uses by default
        nbins = int(round((b.hi - b.lo) / b.width))
        mask = events.classified
        dt = events.l_time[mask] - events.r_time[mask]
        ib = np.floor((dt - b.lo) / b.width).astype(int)
        inside = (ib >= 0) & (ib < nbins)
        dt, ib = dt[inside], ib[inside]
        if self.quantum:
            dt = b.lo + self.quantum * (np.floor((dt - b.lo) / self.quantum) + 0.5)
        values, inverse = np.unique(dt, return_inverse=True)
        table = self._oracle(values.tolist())
        norm = np.abs(table.sum(axis=1) - 1.0).max(initial=0.0)
        if norm > 1e-9:
            return False, f"{self.name}: oracle probabilities sum to 1 +/- {norm:.1e}"
        combos, weight = np.unique(ib * len(values) + inverse, return_counts=True)
        expected = np.zeros((nbins, len(_PAIRS)))
        np.add.at(expected, combos // len(values),
                  weight[:, None] * table[combos % len(values)])
        events_per_bin = np.bincount(ib, minlength=nbins)

        observed = np.zeros((nbins, len(_PAIRS)))
        n_est = np.zeros(nbins, dtype=int)
        code = {(a.value, b_.value): i for i, (a, b_) in enumerate(_PAIRS)}
        for e in estimates:
            i = int(round((e.bin - b.lo) / b.width - 0.5))
            n_est[i] = e.n
            observed[i, code[e.pair]] = round(e.p_hat * e.n)
        if not np.array_equal(n_est, events_per_bin):
            return False, f"{self.name}: per-bin counts disagree with the events"
        used = events_per_bin > 0
        n = events_per_bin[used][:, None]
        pvals = binomial_pvalues(observed[used], n, expected[used] / n)
        level = ALPHA / pvals.size
        worst = float(pvals.min(initial=1.0))
        return (worst >= level,
                f"{self.name}: {pvals.size} bin-pair cells, smallest p-value "
                f"{worst:.2e} (level {level:.1e})")


def check_fit(name, rows, k) -> tuple[bool, str]:
    """``fit_visibility`` rows that are not excluded against 1/cosh, in units
    of each row's standard error, as in the acceptance suite."""
    checked = [r for r in rows if not r.excluded]
    if not checked:
        return False, f"{name}: no usable strangeness-strangeness bins"
    z = max(SIGMAS, float(ndtri(1.0 - ALPHA / (2.0 * len(checked)))))
    pulls = [abs(r.v_hat - pair_visibility(r.delta_tau, k)) / r.stderr
             for r in checked]
    worst = max(pulls)
    return (worst <= z, f"{name}: {len(checked)} bins, largest pull "
            f"{worst:.2f} sigma (limit {z:.2f})")


def max_relative_deviation(got, want) -> float:
    """Largest deviation, relative where the scale allows (as in ``verify``)."""
    worst = 0.0
    for a, b in zip(got, want):
        scale = max(abs(a), abs(b))
        worst = max(worst, abs(a - b) if scale < 1e-12 else abs(a - b) / scale)
    return worst
