"""verify's checks fail when what they check is broken, and pass on the real
algebra for constants far from the measured ones.

The mutation tests plant one defect each and assert that the check built to
catch it reports a failure, so a check that has gone blind (for example one
that compares an oracle with itself) does not pass silently.  That the checks
pass with the default constants is acceptance criteria 2, 4 and 7
(tests/test_acceptance.py)."""

import math

import numpy as np
import pytest

from kaoneraser import (PhysicalConstants, TwoKaonState, beam_norm,
                        joint_decay_rate, pairs)
from kaoneraser.decay import CHANNEL_BY_CODE, pair_rate_terms
from kaoneraser.verify import (check_delayed_choice, check_normalizations,
                               check_oracle_grid, run_all)

RATE_CHECKS = ("single-rate-normalization", "joint-rate-normalization",
               "passive-pair-weights", "mixed-rate-normalization")


def test_delayed_choice_catches_missing_survivor_rescaling(k, monkeypatch):
    rescaled = pairs.survivor_unitary_side

    def unscaled(state, side, dt, k):
        s = rescaled(state, side, dt, k)
        r = math.sqrt(beam_norm(dt, k))
        return TwoKaonState(s.c_LS * r, s.c_SL * r, s.c_SS * r, s.c_LL * r,
                            s.normalized)

    monkeypatch.setattr(pairs, "survivor_unitary_side", unscaled)
    result = check_delayed_choice(k, n_triples=50)
    assert not result.passed
    assert result.worst > 1e-3


def test_oracle_grid_catches_a_wrong_sign(k, monkeypatch):
    projective = pairs.joint_projective_prob

    def wrong_sign(state, p):
        # c_SL enters one term of the contraction; negating it flips that term
        return projective(state._replace(c_SL=-state.c_SL), p)

    monkeypatch.setattr("kaoneraser.verify.joint_projective_prob", wrong_sign)
    result = check_oracle_grid(k)
    assert not result.passed
    assert result.worst > 1e-3


def test_pair_weights_catch_a_flipped_cross_term(k, model, monkeypatch):
    """Flipping the cross term moves each sl+-/sl+- cell by 0.73%; the rate
    sums stay at 1 because the cross terms add up to zero over the cells."""
    def flipped(k, model):
        alpha = np.outer(model.a_L, model.a_S)
        beta = np.outer(model.a_S, model.a_L)
        return ((alpha ** 2 + beta ** 2) / (2.0 * k.gamma_S * k.gamma_L)
                + alpha * beta / (k.gamma_mean ** 2 + k.delta_m ** 2))

    monkeypatch.setattr("kaoneraser.verify.passive_pair_weights", flipped)
    results = {r.name: r for r in check_normalizations(k, model)}
    assert not results["passive-pair-weights"].passed
    assert results["passive-pair-weights"].worst > 7e-3
    assert results["joint-rate-normalization"].passed


@pytest.mark.parametrize("constants", [
    {}, {"delta_m": 20.0}, {"gamma_S": 10.0, "gamma_L": 0.01},
    {"gamma_L": 0.9}],
    ids=["default", "delta_m=20", "gamma_S=10,gamma_L=0.01", "gamma_L=0.9"])
def test_rate_checks_pass_for_far_constants(constants):
    """The node rule follows dm and the widths; misid-window-4.8 is tuned to
    the measured widths and is not asserted here."""
    results = run_all(PhysicalConstants(**constants))
    assert all(type(r.passed) is bool for r in results)
    failed = [(r.name, r.worst) for r in results
              if r.name in RATE_CHECKS and not r.passed]
    assert not failed
    assert {r.name for r in results} >= set(RATE_CHECKS)


def test_pair_rate_terms_on_arrays_match_joint_decay_rate(k, model):
    rng = np.random.default_rng(7)
    n = 2000
    cl, cr = rng.integers(4, size=n), rng.integers(4, size=n)
    tau_l, tau_r = rng.exponential(3.0, n), rng.exponential(3.0, n)
    a_s, a_l = np.asarray(model.a_S), np.asarray(model.a_L)
    direct, cross = pair_rate_terms(a_l[cl] * a_s[cr], a_s[cl] * a_l[cr],
                                    tau_l, tau_r, k, np.exp, np.cos)
    want = [joint_decay_rate(CHANNEL_BY_CODE[i], tl, CHANNEL_BY_CODE[j], tr,
                             k, model)
            for i, j, tl, tr in zip(cl.tolist(), cr.tolist(),
                                    tau_l.tolist(), tau_r.tolist())]
    assert np.all(np.abs(0.5 * (direct - cross) - want) <= 1e-14 * direct)
