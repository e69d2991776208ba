"""verify's checks fail when what they check is broken, and pass on the real
algebra for constants far from the measured ones.

The mutation tests plant one defect each and assert that the check built to
catch it reports a failure, so a check that has gone blind (for example one
that compares an oracle with itself) does not pass silently.  That the checks
pass with the default constants is acceptance criteria 2, 4 and 7
(tests/test_acceptance.py)."""

import inspect
import math
import textwrap

import numpy as np
import pytest

from conftest import free_propagation
from kaoneraser import (Outcome, PhysicalConstants, closed_form_joint, decay,
                        joint_decay_rate, pairs, verify)
from kaoneraser.core import ArrayMath, on_arrays
from kaoneraser.decay import CHANNEL_BY_CODE, pair_rate_terms
from kaoneraser.verify import (_delayed_choice_triples, check_active_passive,
                               check_delayed_choice, check_normalizations,
                               check_oracle_grid, decay_time_nodes, run_all)

RATE_CHECKS = ("single-rate-normalization", "joint-rate-normalization",
               "passive-pair-weights", "mixed-rate-normalization")


def _mutated(func, old, new):
    """``func`` recompiled from its source with the one occurrence of ``old``
    replaced by ``new``, resolving names in its own module."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{old!r} not found once in {func.__name__}"
    namespace = dict(vars(inspect.getmodule(func)))
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[func.__name__]


def test_delayed_choice_catches_missing_survivor_rescaling(k, monkeypatch):
    # both reorderings take their one-sided propagator from _survivor_factors
    monkeypatch.setattr(pairs, "_survivor_factors", free_propagation)
    result = check_delayed_choice(k)
    assert not result.passed
    assert result.worst > 1e-3


def test_delayed_choice_catches_a_slightly_scaled_rescaling(k, monkeypatch):
    """Direct projects ``normalized_pair`` and never calls
    ``_survivor_factors``, so a rescaling off by a part in 10^6 moves only
    the two reorderings, and the check sees it."""
    survivor_factors = pairs._survivor_factors

    def scaled(dt, k, m):
        f_S, f_L = survivor_factors(dt, k, m)
        return f_S * (1.0 + 1e-6), f_L * (1.0 + 1e-6)
    monkeypatch.setattr(pairs, "_survivor_factors", scaled)
    result = check_delayed_choice(k)
    assert not result.passed
    assert result.worst > 1e-7


def test_oracle_grid_catches_swapped_survivor_moduli(k, monkeypatch):
    """The moduli (s, l) swapped in the one helper every ordering shares:
    the three orderings still agree with each other, but the pair state no
    longer matches the closed forms."""
    moduli = pairs._survivor_moduli
    monkeypatch.setattr(pairs, "_survivor_moduli",
                        lambda x, m: moduli(x, m)[::-1])
    result = check_oracle_grid(k)
    assert not result.passed
    assert result.worst > 1e-3


def test_delayed_choice_catches_a_wrong_side_in_the_delayed_ordering(k, monkeypatch):
    wrong_side = _mutated(pairs.delayed_choice_norms,
                          "delayed = _norm_sq(_project_right(s, b_r))",
                          "delayed = _norm_sq(_project_left(s, b_r))")
    monkeypatch.setattr("kaoneraser.verify.delayed_choice_norms", wrong_side)
    result = check_delayed_choice(k)
    assert not result.passed
    assert result.worst > 1e-3


def test_delayed_choice_draw_covers_the_identity(k):
    """The draw meets all 16 projectors and both orderings of the two times
    (tau_l < tau_r0 is delayed-choice mode), and repeats."""
    tau_l, tau_r0, projectors = _delayed_choice_triples()
    assert len(tau_l) == len(tau_r0) == len(projectors) == 1000
    assert len({(p.left, p.right) for p in projectors}) == 16
    assert np.any(tau_l < tau_r0)
    assert np.any(tau_l > tau_r0)
    assert check_delayed_choice(k).worst == check_delayed_choice(k).worst


def test_batched_norms_match_the_float_calls(k):
    """One array call gives each triple's float-call norms, to a few units
    in the last place (numpy's exp may round otherwise than math.exp and
    cmath.exp); the norms are at most 1, so the bound is absolute.  A batch
    of one triple gives arrays of one norm."""
    tau_l, tau_r0, projectors = _delayed_choice_triples()
    batched = np.array(pairs.delayed_choice_norms(tau_l, tau_r0, projectors, k))
    each = np.array([pairs.delayed_choice_norms(tl, tr, p, k) for tl, tr, p
                     in zip(tau_l.tolist(), tau_r0.tolist(), projectors)])
    assert batched.shape == (3, 1000)
    assert np.max(np.abs(batched.T - each)) <= 4 * 2.0 ** -52
    one = np.array(pairs.delayed_choice_norms(tau_l[:1], tau_r0[:1],
                                              projectors[:1], k))
    np.testing.assert_array_equal(one, batched[:, :1])
    result = check_delayed_choice(k)
    assert result.passed and type(result.worst) is float


def test_delayed_choice_check_rescales_in_one_batch(k, monkeypatch):
    """A batch calls the survivor rescaling once per reordering, however
    many triples it holds, and so does the check."""
    calls, survivor_factors = [], pairs._survivor_factors
    tau_l, tau_r0, projectors = _delayed_choice_triples()

    def counted(*args):
        calls.append(1)
        return survivor_factors(*args)
    monkeypatch.setattr(pairs, "_survivor_factors", counted)
    for n in (1, 50, 1000):
        calls.clear()
        pairs.delayed_choice_norms(tau_l[:n], tau_r0[:n], projectors[:n], k)
        assert len(calls) == 2, n
    calls.clear()
    assert check_delayed_choice(k).passed
    assert len(calls) == 2


def test_oracle_grid_catches_a_wrong_sign(k, monkeypatch):
    projective = pairs.joint_projective_prob

    def wrong_sign(state, p):
        # c_SL enters one term of the contraction; negating it flips that term
        return projective(state._replace(c_SL=-state.c_SL), p)

    monkeypatch.setattr("kaoneraser.verify.joint_projective_prob", wrong_sign)
    result = check_oracle_grid(k)
    assert not result.passed
    assert result.worst > 1e-3


def test_active_passive_catches_a_swapped_strangeness_sign(k, model, monkeypatch):
    """The shared mixed rate with K0 and K0bar's signs swapped."""
    swapped = {out: -sign for out, sign in decay._STRANGENESS_SIGN.items()}
    monkeypatch.setattr(decay, "_STRANGENESS_SIGN", swapped)
    result = check_active_passive(k, model)
    assert not result.passed
    assert result.worst > 1e-3


@pytest.mark.parametrize("name", ["passive_joint_prob",
                                  "mixed_active_passive_prob"])
def test_active_passive_catches_a_shift_of_one_time(k, model, monkeypatch,
                                                     name):
    """The rate quotients, the reference for the oracle ``name`` and its
    partner, are taken with both times shifted by the earlier one; a shift
    of tau_l alone moves the quotient of ``name`` where both times are
    positive, and the check fails."""
    left_only = _mutated(verify._rate_quotients,
                         "tau_l, tau_r = (d > 0) * d, (d < 0) * -d",
                         "tau_l, tau_r = (d > 0) * d, tau_r")
    tl, tr = np.array([2.0, 1.0]), np.array([1.0, 2.0])
    quotients = on_arrays(left_only, Outcome.K0, Outcome.K0BAR, tl, tr, k,
                          model)
    quotient = quotients[["passive_joint_prob",
                          "mixed_active_passive_prob"].index(name)]
    want = closed_form_joint("ss_unlike", tl - tr, k)
    assert np.all(np.abs(quotient - want) > 1e-3)
    monkeypatch.setattr(verify, "_rate_quotients", left_only)
    result = check_active_passive(k, model)
    assert not result.passed
    assert result.worst > 1e-3


def test_active_passive_catches_swapped_bra_components(k, model, monkeypatch):
    """Decay bras built as (b_L, b_S): the K_S and K_L decays trade bras
    (the sl+- bras only change sign), so the projection oracles miss the
    closed forms while the rate quotients still meet them."""
    swapped = _mutated(decay.AmplitudeModel.bras.func,
                       "bras[o] = a_S / root, a_L / root",
                       "bras[o] = a_L / root, a_S / root")
    monkeypatch.setattr(decay.AmplitudeModel, "bras", property(swapped.func))
    assert model.bras[Outcome.KS] == (0.0, 1.0)
    result = check_active_passive(k, model)
    assert not result.passed
    assert result.worst > 1e-3


# each oracle a check calls, with the check and the outcome pair of a call
NAN_ORACLES = {
    "joint_projective_prob": (lambda k, model: check_oracle_grid(k),
                              lambda state, p: (p.left, p.right)),
    "passive_joint_prob": (check_active_passive, lambda l, tl, r, *_: (l, r)),
    "mixed_active_passive_prob": (check_active_passive,
                                  lambda l, tl, r, *_: (l, r)),
}


@pytest.mark.parametrize("name", NAN_ORACLES)
def test_a_nan_fails_its_check_wherever_it_falls(k, model, monkeypatch, name):
    """An oracle that returns NaN for the last outcome pair, (K0bar, K_L),
    after every other pair has passed: Python's max would keep the earlier
    deviation and pass; the check reports NaN and fails."""
    check, pair = NAN_ORACLES[name]
    oracle = getattr(verify, name)

    def nan_for_the_last_pair(*args):
        got = oracle(*args)
        if pair(*args) == (Outcome.K0BAR, Outcome.KL):
            return np.full_like(got, np.nan)
        return got
    monkeypatch.setattr(verify, name, nan_for_the_last_pair)
    result = check(k, model)
    assert not result.passed
    assert math.isnan(result.worst)


def test_single_rate_checks_catch_a_wrong_single_rate(k, model, monkeypatch):
    """The single-kaon rate is the mixed rate with the partner at 0, and the
    mixed rate is the reference of the mixed probability.  A flipped cross
    term there moves the rate quotients, so the active-passive check fails;
    the channel sum misses the cross term (sum_f a_S a_L = 0), so the
    normalization passes.  Swapped widths (alpha, beta) = (a_L, +-a_S) fail
    the normalization."""
    rate = decay.mixed_decay_rate
    flipped = _mutated(rate, "0.25 * (direct - cross)", "0.25 * (direct + cross)")
    monkeypatch.setattr(verify, "mixed_decay_rate", flipped)
    result = check_active_passive(k, model)
    assert not result.passed and result.worst > 1e-3
    results = {r.name: r for r in check_normalizations(k, model)}
    assert results["single-rate-normalization"].passed

    swapped = _mutated(rate, "model.a_S[j], sign * model.a_L[j]",
                       "model.a_L[j], sign * model.a_S[j]")
    monkeypatch.setattr(verify, "mixed_decay_rate", swapped)
    results = {r.name: r for r in check_normalizations(k, model)}
    assert not results["single-rate-normalization"].passed
    assert results["single-rate-normalization"].worst > 1.0


def _counting(monkeypatch, name):
    """Replace ``verify``'s ``name`` by a wrapper; returns its call list."""
    calls, func = [], getattr(verify, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)
    monkeypatch.setattr(verify, name, counted)
    return calls


def test_oracle_grid_builds_one_array_state(k, monkeypatch):
    """One state over all 97 time differences, not one per difference."""
    states = _counting(monkeypatch, "normalized_pair")
    assert check_oracle_grid(k).passed
    assert len(states) == 1


def test_active_passive_calls_each_oracle_once_per_outcome_pair(k, model,
                                                                monkeypatch):
    """One passive and one mixed call per outcome pair over the 25
    (tau_l, tau_r) points, not one per pair and point."""
    passive = _counting(monkeypatch, "passive_joint_prob")
    mixed = _counting(monkeypatch, "mixed_active_passive_prob")
    assert check_active_passive(k, model).passed
    assert len(passive) == len(mixed) == 8


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
    {"gamma_L": 0.9}, {"delta_m": 50.0}],
    ids=["default", "delta_m=20", "gamma_S=10,gamma_L=0.01", "gamma_L=0.9",
         "delta_m=50"])
def test_rate_checks_pass_for_far_constants(constants):
    """The node rule follows dm and the widths; misid-window-4.8 is tuned to
    the measured widths and is not asserted here."""
    results = run_all(PhysicalConstants(**constants))
    assert all(type(r.passed) is bool for r in results)
    failed = [(r.name, r.worst) for r in results
              if r.name in RATE_CHECKS and not r.passed]
    assert not failed
    assert {r.name for r in results} >= set(RATE_CHECKS)


@pytest.mark.parametrize("constants,n,weight_tol", [
    ({}, 36, 1e-12), ({"delta_m": 50.0}, 975, 1e-8)],
    ids=["default", "delta_m=50"])
def test_decay_time_nodes_match_numpys_gauss_rules(constants, n, weight_tol):
    """The rules built from their Jacobi matrices against numpy.polynomial's
    leggauss(n) on [0, T = 32/Gbar] and laggauss(8) past T.  Tolerances:
    Legendre nodes within 2e-15 T, Laguerre nodes within 4e-15 relative,
    Laguerre weights within 4e-14 relative, Legendre weights within 1e-12
    relative at 36 nodes and 1e-8 at 975.  The last is numpy's own error:
    against a 40-digit reference its weights are off by up to 4e-13 at 36
    nodes and 4e-9 at 975, the Jacobi rule's by 9e-15 and 3e-11."""
    k = PhysicalConstants(**constants)
    t, w = decay_time_nodes(k)
    assert len(t) == len(w) == n + 8
    edge = 32.0 / k.gamma_mean
    x, w_x = np.polynomial.legendre.leggauss(n)
    assert np.all(np.abs(t[:n] - 0.5 * edge * (x + 1.0)) <= 2e-15 * edge)
    assert np.all(np.abs(w[:n] / (0.5 * edge * w_x) - 1.0) <= weight_tol)
    x, w_x = np.polynomial.laguerre.laggauss(8)
    assert np.all(np.abs(t[n:] / (edge + x / k.gamma_L) - 1.0) <= 4e-15)
    assert np.all(np.abs(w[n:] / (w_x * np.exp(x) / k.gamma_L) - 1.0) <= 4e-14)


def test_pair_rate_terms_on_arrays_match_joint_decay_rate(k, model):
    rng = np.random.default_rng(7)
    n = 2000
    cl, cr = rng.integers(4, size=n), rng.integers(4, size=n)
    tau_l, tau_r = rng.exponential(3.0, n), rng.exponential(3.0, n)
    a_s, a_l = np.asarray(model.a_S), np.asarray(model.a_L)
    direct, cross = pair_rate_terms(a_l[cl] * a_s[cr], a_s[cl] * a_l[cr],
                                    tau_l, tau_r, k, ArrayMath)
    want = [joint_decay_rate(CHANNEL_BY_CODE[i], tl, CHANNEL_BY_CODE[j], tr,
                             k, model)
            for i, j, tl, tr in zip(cl.tolist(), cr.tolist(),
                                    tau_l.tolist(), tau_r.tolist())]
    assert np.all(np.abs(0.5 * (direct - cross) - want) <= 1e-14 * direct)
