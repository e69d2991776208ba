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
                        PhysicalConstants, closed_form_joint,
                        delayed_choice_norms,
                        joint_decay_rate, joint_projective_prob,
                        mixed_active_passive_prob, mixed_decay_rate,
                        normalized_pair, pair_beam_norm, pair_visibility,
                        passive_joint_prob, passive_single_prob,
                        strangeness_probs)
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
    # a single kaon's K_S share and decay rates: the pair forms with the
    # partner's K0bar at 0, as analytic and verify evaluate them
    yield ("single K_S share",
           lambda t: 2.0 * closed_form_joint("s_ks", -t, k), TAUS, "abs")
    for o in Outcome:
        yield (f"passive_single_prob[{o.value}]",
               lambda t, o=o: passive_single_prob(o, t, k, model), TAUS, "abs")
    for f, times in itertools.product(DecayChannel, (TAUS, nodes)):
        yield (f"single-kaon rate[{f.value}]",
               lambda t, f=f: 2.0 * mixed_decay_rate(Outcome.K0BAR, f, 0.0, t,
                                                     k, model), times, "rel")


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
    call's error): a cosine of a phase delta_m delta_tau beyond the float
    range, which ``math.cos`` refuses with a ValueError."""
    huge_dm = PhysicalConstants(delta_m=1e308)
    yield (lambda t: closed_form_joint("ss_like", t, huge_dm), 2.0, ValueError)


def test_arrays_fail_where_floats_fail(k, model):
    """One bad element makes the array call raise an ArithmeticError (numpy's
    FloatingPointError) where the float call raises; never an inf, NaN or 0
    with a warning."""
    for oracle, bad, error in _failing(k, model):
        with pytest.raises(error):
            oracle(bad)
        with pytest.raises(FloatingPointError):
            oracle(np.array([1.0, bad]))


# K0 with K_S at equal times: 1/4, or 1 ulp below it where the K0 side is
# the active eigenstate, whose 1/sqrt(2) rounds down so that its square is
# below 1/2; the sl+ decay's bra, 1/(2 (1/sqrt(2))), rounds up, and the
# product of the two is 1/2
EQUAL_TIMES_K0_KS = {passive_joint_prob: 0.25,
                     mixed_active_passive_prob: 0.2499999999999999}


@pytest.mark.parametrize("oracle", [passive_joint_prob,
                                    mixed_active_passive_prob])
def test_passive_pair_probabilities_evaluate_far_out(k, model, oracle):
    """The pair conditioned on survival depends on tau_l - tau_r only, so at
    800 tau_S, where the survival of both kaons underflows, a pair
    probability is the one at the earlier time 0, float and array."""
    quarter = EQUAL_TIMES_K0_KS[oracle]
    assert oracle(Outcome.K0, 800.0, Outcome.KS, 800.0, k, model) == quarter
    far = np.array([1.0, 800.0])
    assert oracle(Outcome.K0, far, Outcome.KS, far, k, model)[1] == quarter
    near = (0.0, 1.0, 3.0)
    for (a, b), (left, right) in itertools.product(
            itertools.product(near, repeat=2),
            itertools.product(STRANGENESS, Outcome)):
        want = oracle(left, a, right, b, k, model)
        assert oracle(left, 800.0 + a, right, 800.0 + b, k, model) == want
        got = oracle(left, np.array([800.0 + a]), right, np.array([800.0 + b]),
                     k, model)
        assert abs(got[0] - want) <= ULPS


def _finite_far_out(k):
    """(oracle of one time, a time far out, the value there): V, the
    logistic forms and the pair's survivor moduli, and the single-kaon
    probabilities made of them, go through exp(-|x|) only, so they reach
    their limits instead of overflowing."""
    yield lambda t: pair_visibility(t, k), 2000.0, 0.0
    yield lambda t: normalized_pair(t, k).c_LS, -2000.0, 0.0
    yield lambda t: normalized_pair(t, k).c_LS, 2000.0, 1.0
    yield lambda t: normalized_pair(t, k).c_SL, 2000.0, 0.0
    yield lambda t: closed_form_joint("ss_like", t, k), 2000.0, 0.25
    yield lambda t: closed_form_joint("s_ks", t, k), -2000.0, 0.0
    yield lambda t: strangeness_probs(t, k), 2000.0, (0.5, 0.5)
    yield lambda t: 2.0 * closed_form_joint("s_ks", -t, k), 800.0, 0.0


def test_survivor_forms_are_finite_far_out(k):
    """The float call and the array call give the limit, with no error and
    no warning."""
    for oracle, far, limit in _finite_far_out(k):
        assert oracle(far) == limit
        got = np.asarray(oracle(np.array([1.0, far])))[..., 1]
        assert got.tolist() == np.asarray(limit).tolist()


def test_passive_single_prob_evaluates_far_out(k, model):
    """At 5e5 tau_S, G_L tau > 745 and the survivor norm underflows to 0;
    the projection on the survivor-conditioned pair gives P[K_S] = 0.0, as a
    float and in an array."""
    got = passive_single_prob(Outcome.KS, 5e5, k, model)
    assert type(got) is float and got == 0.0
    got = passive_single_prob(Outcome.KS, np.array([1.0, 5e5]), k, model)
    assert got.dtype == float and got[1] == 0.0


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


# (tau_l, tau_r0) where absolute survival underflows or a side's survivor
# rescaling would overflow: far apart either way, late and close, late and
# equal
FAR_TIMES = [(720.0, 0.0), (760.0, 0.0), (0.0, 760.0), (2000.0, 1990.0),
             (760.0, 760.0), (1e5, 0.0)]


def test_delayed_choice_norms_are_finite_far_out(k):
    """Each ordering, float and array, gives the projection of the
    normalized pair at tau_l - tau_r0 for all 16 projectors, with no error
    and no warning: 1/4 for K0 K0bar at (760, 0)."""
    projectors = [JointProjector(l, r)
                  for l, r in itertools.product(Outcome, repeat=2)]
    tau_l, tau_r0 = np.repeat(np.array(FAR_TIMES).T, 16, axis=1)
    batched = delayed_choice_norms(tau_l, tau_r0, projectors * len(FAR_TIMES),
                                   k)
    for i, ((tl, tr), p) in enumerate(
            itertools.product(FAR_TIMES, projectors)):
        want = joint_projective_prob(normalized_pair(tl - tr, k), p)
        for got in (*delayed_choice_norms(tl, tr, p, k),
                    *(norms[i] for norms in batched)):
            assert abs(got - want) <= 1e-12, (tl, tr, p)
    quarter = delayed_choice_norms(
        760.0, 0.0, JointProjector(Outcome.K0, Outcome.K0BAR), k)
    assert quarter == pytest.approx((0.25,) * 3, rel=1e-14)
