"""Acceptance gate: eight end-to-end criteria, one printed pass/fail line each.

Analytic identities are checked at machine-precision tolerances; Monte Carlo
comparisons use 4-sigma bands at n = 10^6 with pinned seeds.  Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from kaoneraser import (JointProjector, MisidWindow, Outcome, SimConfig,
                        closed_form_joint, estimate_probs, fit_visibility,
                        joint_projective_prob, misid_probs, normalized_pair,
                        pair_visibility, run_experiment)
from kaoneraser.verify import (check_active_passive, check_delayed_choice,
                               check_normalizations, check_oracle_grid)

N_MC = 1_000_000


def _report(name, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_epr_anticorrelation(k, model):
    t0 = time.time()
    analytic = closed_form_joint("ss_like", 0.0, k)
    state = normalized_pair(0.0, k)
    projected = max(
        joint_projective_prob(state, JointProjector(out, out))
        for out in (Outcome.K0, Outcome.K0BAR))
    cfg = SimConfig(n_pairs=N_MC, tau_l_grid=(4.8,), seed=20260824)
    ev = run_experiment("A1", cfg, k, model)
    keep = ev.classified
    n = int(keep.sum())
    # record codes 1 and 2 are active K0 and K0bar, the only records A1 keeps
    assert np.isin(ev.l_rec[keep], (1, 2)).all()
    assert np.isin(ev.r_rec[keep], (1, 2)).all()
    n_like = int(np.sum(ev.l_rec[keep] == ev.r_rec[keep]))
    freq = n_like / n
    # 4-sigma upper bound on the like-pair frequency must be consistent with 0:
    # with zero expected signal the bound is 4*sqrt(freq(1-freq)/n) around freq
    bound = freq - 4.0 * math.sqrt(freq * (1.0 - freq) / n)
    elapsed = time.time() - t0
    ok = (analytic == 0.0 and projected < 1e-12 and bound <= 0.0
          and elapsed < 60.0)
    _report("criterion 1: EPR anticorrelation at equal times", ok,
            f"closed form {analytic}, projector {projected:.2e}, "
            f"MC like fraction {n_like}/{n}, runtime {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence(k):
    t0 = time.time()
    r = check_oracle_grid(k)
    elapsed = time.time() - t0
    ok = r.passed and elapsed < 1.0
    _report("criterion 2: closed forms vs projector computation", ok,
            f"max relative deviation {r.worst:.2e} (tol 1e-10), "
            f"runtime {elapsed:.2f}s")


def test_criterion_3_active_passive_coincidence(k, model):
    t0 = time.time()
    r = check_active_passive(k, model)
    elapsed = time.time() - t0
    ok = r.passed and elapsed < 1.0
    _report("criterion 3: active/passive coincidence", ok,
            f"max deviation {r.worst:.2e} (tol 1e-10), runtime {elapsed:.2f}s")


def test_criterion_4_delayed_choice(k):
    t0 = time.time()
    r = check_delayed_choice(k)
    elapsed = time.time() - t0
    ok = r.passed and elapsed < 1.0
    _report("criterion 4: delayed-choice ordering identity", ok,
            f"max spread {r.worst:.2e} over 1000 triples (tol 1e-12), "
            f"runtime {elapsed:.2f}s")


def test_criterion_5_misid_window(k):
    wrong_ks, wrong_kl = misid_probs(MisidWindow(4.8), k)
    analytic_ok = abs(wrong_ks - wrong_kl) < 1e-4
    rng = np.random.default_rng(501)
    # K_S sample surviving past the window is misread as K_L, and vice versa
    mc_ks = np.mean(rng.exponential(1.0 / k.gamma_S, N_MC) > 4.8)
    mc_kl = np.mean(rng.exponential(1.0 / k.gamma_L, N_MC) <= 4.8)
    band_ks = 4.0 * math.sqrt(wrong_ks * (1 - wrong_ks) / N_MC)
    band_kl = 4.0 * math.sqrt(wrong_kl * (1 - wrong_kl) / N_MC)
    mc_ok = abs(mc_ks - wrong_ks) < band_ks and abs(mc_kl - wrong_kl) < band_kl
    _report("criterion 5: misidentification window", analytic_ok and mc_ok,
            f"analytic {wrong_ks:.6f}/{wrong_kl:.6f} "
            f"(residual {abs(wrong_ks - wrong_kl):.1e} < 1e-4), "
            f"MC {mc_ks:.6f}/{mc_kl:.6f} within 4 sigma")


def test_criterion_6_experiment_b_half_split(k, model):
    cfg = SimConfig(n_pairs=N_MC, seed=606)
    ev = run_experiment("B", cfg, k, model)
    # record codes 3 and 4 are active KS and KL: lifetime measurements
    frac = float(np.mean(np.isin(ev.r_rec, (3, 4))))
    band = 4.0 * math.sqrt(0.25 / N_MC)
    ok = abs(frac - 0.5) < band
    _report("criterion 6: pre-detector decay fraction", ok,
            f"{frac:.4f} vs 0.50 within {band:.4f}")


def test_criterion_7_normalization_integrals(k, model):
    results = check_normalizations(k, model)
    ok = all(r.passed for r in results)
    detail = ", ".join(f"{r.name} dev {r.worst:.1e} (tol {r.tolerance:.0e})"
                       for r in results)
    _report("criterion 7: normalization integrals", ok, detail)


def test_criterion_8_visibility_reconstruction(k, model):
    cfg = SimConfig(n_pairs=N_MC, seed=808)
    ev = run_experiment("D", cfg, k, model)
    rows = fit_visibility(estimate_probs(ev), k)
    checked = [r for r in rows if not r.excluded]
    assert checked, "no usable strangeness-strangeness bins"
    bad = [r for r in checked
           if abs(r.v_hat - pair_visibility(r.delta_tau, k)) > 4.0 * r.stderr]
    central = min(checked, key=lambda r: abs(r.delta_tau))
    central_ok = abs(central.v_hat - 1.0) <= 4.0 * central.stderr
    ok = not bad and central_ok and abs(central.delta_tau) <= 0.5
    _report("criterion 8: visibility reconstruction", ok,
            f"{len(checked)} bins within 4 sigma of 1/cosh "
            f"({len(bad)} outliers), central bin at {central.delta_tau:+.2f}: "
            f"v_hat {central.v_hat:.3f} +/- {central.stderr:.3f}")
