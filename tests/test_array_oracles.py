"""The oracles on arrays of times: one array call gives the per-element float
calls' values, and fails where one of them fails.

An array runs the same formula on numpy, whose exp and cos may round
otherwise than those of ``math``/``cmath`` in the last place.  So probabilities
(at most 1) must agree to 4 * 2^-52 absolutely and rates to 4 * 2^-52
relatively, on verify's grids: the time differences -12..12 (both signs),
the (tau_l, tau_r) grid {0,1,2,4,8}^2, the single-kaon times 0..12 and the
decay-time nodes.  That the float calls keep their bits is
tests/test_oracle_digest.py.
"""

import itertools
import math

import numpy as np
import pytest

from kaoneraser import (DecayChannel, JointProjector, Outcome,
                        closed_form_joint, delayed_choice_norms,
                        joint_decay_rate, joint_projective_prob, lifetime_probs,
                        mixed_active_passive_prob, mixed_decay_rate,
                        normalized_pair, pair_beam_norm, pair_visibility,
                        passive_joint_prob, passive_single_prob,
                        single_decay_rate, strangeness_probs)
from kaoneraser.verify import decay_time_nodes

ULPS = 4 * 2.0 ** -52
DTS = np.arange(-12.0, 12.0 + 1e-9, 0.25)
GRID = np.array((0.0, 1.0, 2.0, 4.0, 8.0))
TL, TR = np.repeat(GRID, len(GRID)), np.tile(GRID, len(GRID))
TAUS = np.arange(0.0, 12.0 + 1e-9, 0.5)
KINDS = ("ss_like", "ss_unlike", "s_ks", "s_kl")
STRANGENESS = (Outcome.K0, Outcome.K0BAR)


def _each(oracle, *times):
    """``oracle`` called on each element's float times, as an array whose
    last axis runs over the elements."""
    values = [oracle(*map(float, t)) for t in zip(*times)]
    return np.moveaxis(np.array(values), 0, -1)


def _one_time(k, model):
    """(name, oracle of one time, times, bound) for each one-time oracle."""
    nodes = decay_time_nodes(k)[0]
    yield "normalized_pair", lambda dt: normalized_pair(dt, k)[:2], DTS, "abs"
    yield "pair_visibility", lambda dt: pair_visibility(dt, k), DTS, "abs"
    for kind in KINDS:
        yield (f"closed_form_joint[{kind}]",
               lambda dt, kind=kind: closed_form_joint(kind, dt, k), DTS, "abs")
    yield "strangeness_probs", lambda t: strangeness_probs(t, k), TAUS, "abs"
    yield "lifetime_probs", lambda t: lifetime_probs(t, k), TAUS, "abs"
    for o in Outcome:
        yield (f"passive_single_prob[{o.value}]",
               lambda t, o=o: passive_single_prob(o, t, k, model), TAUS, "abs")
    for f, times in itertools.product(DecayChannel, (TAUS, nodes)):
        yield (f"single_decay_rate[{f.value}]",
               lambda t, f=f: single_decay_rate(f, t, k, model), times, "rel")


def _two_times(k, model):
    """(name, oracle of (tau_l, tau_r), bound) for each two-time oracle."""
    yield "pair_beam_norm", lambda tl, tr: pair_beam_norm(tl, tr, k), "abs"
    for f_l, f_r in itertools.product(DecayChannel, repeat=2):
        yield (f"joint_decay_rate[{f_l.value},{f_r.value}]",
               lambda tl, tr, f_l=f_l, f_r=f_r: joint_decay_rate(
                   f_l, tl, f_r, tr, k, model), "rel")
    for f in DecayChannel:
        yield (f"mixed_decay_rate[{f.value}]",
               lambda tl, tr, f=f: mixed_decay_rate(Outcome.K0, f, tl, tr, k,
                                                    model), "rel")
    for left, right in itertools.product(STRANGENESS, Outcome):
        yield (f"passive_joint_prob[{left.value},{right.value}]",
               lambda tl, tr, l=left, r=right: passive_joint_prob(
                   l, tl, r, tr, k, model), "abs")
        yield (f"mixed_active_passive_prob[{left.value},{right.value}]",
               lambda tl, tr, l=left, r=right: mixed_active_passive_prob(
                   l, tl, r, tr, k, model), "abs")


def _assert_close(got, want, bound, name):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, name
    scale = 1.0 if bound == "abs" else np.abs(want)
    assert np.all(np.abs(got - want) <= ULPS * scale), name


def test_one_time_oracles_on_arrays_match_the_float_calls(k, model):
    for name, oracle, times, bound in _one_time(k, model):
        _assert_close(oracle(times), _each(oracle, times), bound, name)


def test_two_time_oracles_on_arrays_match_the_float_calls(k, model):
    for name, oracle, bound in _two_times(k, model):
        _assert_close(oracle(TL, TR), _each(oracle, TL, TR), bound, name)


def test_mixed_rate_on_the_nodes_matches_the_float_calls(k, model):
    """verify integrates the mixed rate over the decay-time nodes at three
    tau_l at once: a column of tau_l against a row of nodes."""
    nodes = decay_time_nodes(k)[0]
    taus = (0.0, 1.0, 4.0)
    for f in DecayChannel:
        want = [[mixed_decay_rate(Outcome.K0, f, tl, t, k, model)
                 for t in nodes.tolist()] for tl in taus]
        got = mixed_decay_rate(Outcome.K0, f, np.array(taus)[:, None], nodes,
                               k, model)
        _assert_close(got, want, "rel", f)


def test_an_array_state_gives_the_float_projections(k):
    state = normalized_pair(DTS, k)
    for left, right in itertools.product(Outcome, repeat=2):
        p = JointProjector(left, right)
        want = [joint_projective_prob(normalized_pair(dt, k), p)
                for dt in DTS.tolist()]
        _assert_close(joint_projective_prob(state, p), want, "abs", p)


def _failing(k, model):
    """(oracle of one time, a time at which its float call fails, the float
    call's error): exp overflow, or a survivor norm that underflows to zero
    under a zero rate."""
    yield lambda t: normalized_pair(t, k), -2000.0, OverflowError
    yield (lambda t: passive_single_prob(Outcome.K0, t, k, model), 5e5,
           ZeroDivisionError)
    yield (lambda t: passive_joint_prob(Outcome.K0, t, Outcome.KS, t, k, model),
           800.0, ZeroDivisionError)
    yield (lambda t: mixed_active_passive_prob(Outcome.K0, t, Outcome.KS, t,
                                               k, model),
           800.0, ZeroDivisionError)


def test_arrays_fail_where_floats_fail(k, model):
    """One bad element makes the array call raise an ArithmeticError (numpy's
    FloatingPointError) where the float call raises; never an inf, NaN or 0
    with a warning."""
    for oracle, bad, error in _failing(k, model):
        with pytest.raises(error):
            oracle(bad)
        with pytest.raises(FloatingPointError):
            oracle(np.array([1.0, bad]))


def _finite_far_out(k):
    """(oracle of one time, a time far out, the value there): V and the
    logistic forms, and the single-kaon probabilities made of them, go
    through exp(-|x|) only, so they reach their limits instead of
    overflowing."""
    yield lambda t: pair_visibility(t, k), 2000.0, 0.0
    yield lambda t: closed_form_joint("ss_like", t, k), 2000.0, 0.25
    yield lambda t: closed_form_joint("s_ks", t, k), -2000.0, 0.0
    yield lambda t: strangeness_probs(t, k), 2000.0, (0.5, 0.5)
    yield lambda t: lifetime_probs(t, k), 800.0, (0.0, 1.0)


def test_survivor_forms_are_finite_far_out(k):
    """The float call and the array call give the limit, with no error and
    no warning."""
    for oracle, far, limit in _finite_far_out(k):
        assert oracle(far) == limit
        got = np.asarray(oracle(np.array([1.0, far])))[..., 1]
        assert got.tolist() == np.asarray(limit).tolist()


def test_survivor_norm_is_finite_far_out(k):
    """N(tau, 0) is a sum of two exponentials, with no cosh to overflow: at
    2000 tau_S the K_S term underflows to 0 and the K_L term is left."""
    want = 0.5 * math.exp(-2000.0 * k.gamma_L)
    assert pair_beam_norm(2000.0, 0.0, k) == want
    assert pair_beam_norm(np.array([2000.0]), 0.0, k).tolist() == [want]


def test_a_bad_time_in_an_array_is_named(k, model):
    """The float call's message, with the times at the first bad index."""
    times = np.array([1.0, 2.0, math.nan, -1.0])
    with pytest.raises(ValueError, match=r"^tau must be finite and "
                       r"nonnegative, got nan at index 2$"):
        strangeness_probs(times, k)
    with pytest.raises(ValueError, match=r"^times must be finite and "
                       r"nonnegative, got nan and 1.0 at index 2$"):
        passive_joint_prob(Outcome.K0, times, Outcome.KS, 1.0, k, model)


def test_one_projector_applies_to_every_pair(k):
    """Arrays of times with one JointProjector: the call with that projector
    repeated once per pair, to the bit."""
    p = JointProjector(Outcome.K0, Outcome.KL)
    got = delayed_choice_norms(TL, TR, p, k)
    want = delayed_choice_norms(TL, TR, [p] * len(TL), k)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_delayed_choice_norms_overflow_in_both_forms(k):
    """At (720, 0) the delayed ordering's survivor rescaling over -720 tau_S
    overflows exp: both forms raise, the array form does not return 0."""
    p = JointProjector(Outcome.K0, Outcome.K0BAR)
    with pytest.raises(OverflowError):
        delayed_choice_norms(720.0, 0.0, p, k)
    with pytest.raises(ArithmeticError):
        delayed_choice_norms(np.array([720.0]), np.array([0.0]), [p], k)
