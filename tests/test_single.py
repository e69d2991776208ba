"""Single-kaon observables against frozen reference values, and the
equivalence of active and passive detection probabilities.

A single kaon born as K0 is one of a pair whose partner was found as K0bar
at tau = 0, so each of its probabilities and rates is twice the pair form
with that partner: ``strangeness_probs`` and ``passive_single_prob`` wrap
theirs, and the K_S share and the decay rate are the pair forms that
``analytic`` and ``verify`` call (``p_ks`` and ``single_rate`` below)."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kaoneraser import (Outcome, DecayChannel, PhysicalConstants, SimConfig,
                        build_amplitude_model, closed_form_joint,
                        joint_decay_rate, misid_probs,
                        mixed_active_passive_prob, mixed_decay_rate,
                        pair_beam_norm, pair_visibility, passive_single_prob,
                        strangeness_probs)
from kaoneraser.core import ArrayMath, FloatMath
from kaoneraser.decay import CHANNEL_CODES, CHANNEL_OUTCOME, decay_width

times = st.floats(min_value=0.0, max_value=25.0, allow_nan=False)


def p_ks(tau, k):
    """P[K_S] at tau: the partner's K0bar at 0 is the left side, so
    delta_tau = -tau (P[K_L] is 1 - P[K_S])."""
    return 2.0 * closed_form_joint("s_ks", -tau, k)


def single_rate(channel, tau, k, model):
    """Decay rate density Gamma(f, tau): the mixed rate with the partner's
    K0bar at 0."""
    return 2.0 * mixed_decay_rate(Outcome.K0BAR, channel, 0.0, tau, k, model)

# reference values computed independently at 30-digit precision
ORACLE = {
    1.0: (0.8947414611189859, 0.26928112841071132, 0.88717259266180067),
    4.8: (0.44159358120361274, 0.0082299621787124605, 0.18069012038569705),
    10.0: (0.50016724135521061, 4.6188715977722387e-05, 0.01359214222707204),
}


@pytest.mark.parametrize("tau", sorted(ORACLE))
def test_frozen_reference_values(tau, k):
    p_k0_ref, p_ks_ref, v_ref = ORACLE[tau]
    assert strangeness_probs(tau, k)[0] == pytest.approx(p_k0_ref, abs=1e-14)
    assert p_ks(tau, k) == pytest.approx(p_ks_ref, abs=1e-14)
    assert pair_visibility(tau, k) == pytest.approx(v_ref, abs=1e-14)


def test_initial_conditions(k):
    assert strangeness_probs(0.0, k) == (1.0, 0.0)
    assert p_ks(0.0, k) == 0.5
    assert pair_visibility(0.0, k) == 1.0


@given(tau=times)
def test_probabilities_well_formed(k, tau):
    p0, p0b = strangeness_probs(tau, k)
    assert 0.0 <= p0 <= 1.0 and p0 + p0b == pytest.approx(1.0)
    assert 0.0 <= p_ks(tau, k) <= 0.5
    assert 0.0 < pair_visibility(tau, k) <= 1.0


@given(tau=st.floats(min_value=0.1, max_value=25.0))
def test_oscillation_bounded_by_visibility(k, tau):
    p0, _ = strangeness_probs(tau, k)
    assert abs(2.0 * p0 - 1.0) <= pair_visibility(tau, k) + 1e-12


def test_ks_share_below_the_normal_range_stays_positive(k):
    """At 711 tau_S, P[K_S] = 1/(1 + e^{-DeltaGamma tau}) is a subnormal
    double.  Halved in the pair form and doubled back, it stays positive on
    floats and arrays: the pair form's denominator 2(1 + e^x) would
    overflow there, so it is not formed."""
    ks = p_ks(711.0, k)
    assert 0.0 < ks < sys.float_info.min and 1.0 - ks == 1.0
    got = p_ks(np.array([711.0]), k)
    assert got.tolist() == [pytest.approx(ks, rel=1e-12)]


def test_negative_time_rejected(k, model):
    with pytest.raises(ValueError, match="tau must be finite and nonnegative"):
        strangeness_probs(-1.0, k)
    with pytest.raises(ValueError, match="tau must be finite and nonnegative"):
        passive_single_prob(Outcome.KS, -1.0, k, model)


# Valid constants, with every Gamma tau below at most 500, so that no
# exponential overflows at either sign of tau.
constants = st.builds(
    lambda g_s, ratio, dm, br: PhysicalConstants(
        gamma_S=g_s, gamma_L=g_s * ratio, delta_m=dm, br_sl_L=br),
    st.floats(0.1, 10.0), st.floats(1e-4, 0.99), st.floats(0.0, 20.0),
    st.floats(0.01, 0.99))
time_lists = st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@given(consts=constants, taus=time_lists)
def test_single_kaon_oracles_are_the_pair_oracles_at_zero(consts, taus):
    """Finding the partner as K0bar at tau = 0 prepares a K0: each
    single-kaon oracle is twice its pair form, to the bit, on floats and on
    an array of the same times; the K_S share is the partner's K_L share,
    and the rate normalized by the survivor norm and width of its channel
    is the passive probability."""
    model = build_amplitude_model(consts)
    for tau in (*taus, np.array(taus)):
        p_k0 = 2.0 * closed_form_joint("ss_unlike", tau, consts)
        assert _bits(strangeness_probs(tau, consts)) == _bits((p_k0, 1.0 - p_k0))
        assert _bits(p_ks(tau, consts)) == _bits(
            2.0 * closed_form_joint("s_kl", tau, consts))
        for f in DecayChannel:
            o = CHANNEL_OUTCOME[f]
            want = passive_single_prob(o, tau, consts, model)
            got = single_rate(f, tau, consts, model) / (
                decay_width(f, consts, model) * pair_beam_norm(tau, 0.0, consts))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        for o in Outcome:
            assert _bits(passive_single_prob(o, tau, consts, model)) == _bits(
                2.0 * mixed_active_passive_prob(Outcome.K0BAR, 0.0, o, tau,
                                                consts, model))


@given(consts=constants, taus=time_lists)
def test_survivor_norm_at_zero_is_the_single_beam_norm(consts, taus):
    """N(tau, 0) = [exp(-G_S tau) + exp(-G_L tau)]/2 to the bit, on floats
    and arrays, and at negative tau too, where the survivor rescaling of
    ``delayed_choice_norms`` evaluates it (with ``m`` given)."""
    g_s, g_l = consts.gamma_S, consts.gamma_L
    for tau in taus:
        for t in (tau, -tau):
            assert pair_beam_norm(t, 0.0, consts, FloatMath) == 0.5 * (
                math.exp(-g_s * t) + math.exp(-g_l * t))
        assert pair_beam_norm(tau, 0.0, consts) == pair_beam_norm(
            tau, 0.0, consts, FloatMath)
    tau = np.array(taus)
    assert _bits(pair_beam_norm(tau, 0.0, consts)) == _bits(
        0.5 * (np.exp(-g_s * tau) + np.exp(-g_l * tau)))
    assert _bits(pair_beam_norm(-tau, 0.0, consts, ArrayMath)) == _bits(
        0.5 * (np.exp(g_s * tau) + np.exp(g_l * tau)))


SL, TWO_PI, K0 = DecayChannel.SL_PLUS, DecayChannel.TWO_PI, Outcome.K0
# each scalar oracle with its time argument t; the two-time rates take t on
# either side.  The K_S share takes -t as a time difference, of either sign.
ORACLES = {
    "strangeness_probs": lambda t, k, m: strangeness_probs(t, k),
    "lifetime_probs": lambda t, k, m: p_ks(t, k),
    "single_decay_rate": lambda t, k, m: single_rate(SL, t, k, m),
    "passive_single_prob": lambda t, k, m: passive_single_prob(K0, t, k, m),
    "joint_decay_rate_left": lambda t, k, m: joint_decay_rate(SL, t, TWO_PI, 1.0, k, m),
    "joint_decay_rate_right": lambda t, k, m: joint_decay_rate(SL, 1.0, TWO_PI, t, k, m),
    "mixed_decay_rate_left": lambda t, k, m: mixed_decay_rate(K0, SL, t, 1.0, k, m),
    "mixed_decay_rate_right": lambda t, k, m: mixed_decay_rate(K0, SL, 1.0, t, k, m),
    "mixed_active_passive_prob_left":
        lambda t, k, m: mixed_active_passive_prob(K0, t, Outcome.KS, 1.0, k, m),
    "mixed_active_passive_prob_right":
        lambda t, k, m: mixed_active_passive_prob(K0, 1.0, Outcome.KS, t, k, m),
    "pair_beam_norm_left": lambda t, k, m: pair_beam_norm(t, 1.0, k),
    "pair_beam_norm_right": lambda t, k, m: pair_beam_norm(1.0, t, k),
}


@pytest.mark.parametrize("t", [math.nan, math.inf])
@pytest.mark.parametrize("name", ORACLES)
def test_nan_or_infinite_time_rejected(k, model, name, t):
    """A NaN time would come back as NaN and an infinite one as a limit
    value or a math domain error; each is rejected instead."""
    rule = "finite" if name == "lifetime_probs" else "finite and nonnegative"
    with pytest.raises(ValueError, match=f"must be {rule}, got"):
        ORACLES[name](t, k, model)


class TestMisidWindow:
    def test_default_window(self, k):
        wrong_ks, wrong_kl = misid_probs(SimConfig(n_pairs=1).window, k)
        assert wrong_ks == pytest.approx(0.0082297470490200288, abs=1e-15)
        assert wrong_kl == pytest.approx(0.008255886864460263, abs=1e-15)
        # both are ~0.8% and nearly equal; exact equality is impossible for
        # finite gamma_L, the residual is a few 1e-5
        assert abs(wrong_ks - wrong_kl) < 1e-4

    def test_window_validation(self, k):
        for bad in (0.0, -2.0):
            with pytest.raises(ValueError, match="^window length must be positive$"):
                SimConfig(n_pairs=1, window=bad)
            with pytest.raises(ValueError, match="^window length must be positive$"):
                misid_probs(bad, k)
        for bad in (float("nan"), float("inf"), "w"):
            with pytest.raises(ValueError, match="window must be a finite number"):
                SimConfig(n_pairs=1, window=bad)
            with pytest.raises(ValueError, match="window must be a finite number"):
                misid_probs(bad, k)
        assert SimConfig(n_pairs=1, window=2).window == 2

    def test_window_tradeoff(self, k):
        """Longer windows misread fewer K_S and more K_L."""
        short = misid_probs(2.0, k)
        long = misid_probs(8.0, k)
        assert long[0] < short[0]
        assert long[1] > short[1]


class TestPassiveSingle:
    def test_rate_reference_values(self, k, model):
        got = single_rate(DecayChannel.TWO_PI, 1.3, k, model)
        assert got == pytest.approx(0.13611056751579521, abs=1e-15)
        got = single_rate(DecayChannel.SL_PLUS, 2.0, k, model)
        assert got == pytest.approx(0.0004447530518799608, abs=1e-15)

    def test_forbidden_components(self, k, model):
        """2pi never comes from K_L, 3pi never from K_S (CP limit)."""
        r_2pi = single_rate(DecayChannel.TWO_PI, 3.0, k, model)
        assert r_2pi == pytest.approx(
            0.5 * abs(model.a_S[CHANNEL_CODES[DecayChannel.TWO_PI]]) ** 2
            * math.exp(-3.0),
            rel=1e-12)
        r_3pi = single_rate(DecayChannel.THREE_PI, 3.0, k, model)
        assert r_3pi == pytest.approx(
            0.5 * abs(model.a_L[CHANNEL_CODES[DecayChannel.THREE_PI]]) ** 2
            * math.exp(-3.0 * k.gamma_L), rel=1e-12)

    @given(tau=times)
    def test_matches_active_probabilities(self, k, model, tau):
        p0, p0b = strangeness_probs(tau, k)
        ps = p_ks(tau, k)
        expected = {Outcome.K0: p0, Outcome.K0BAR: p0b,
                    Outcome.KS: ps, Outcome.KL: 1.0 - ps}
        for outcome, want in expected.items():
            got = passive_single_prob(outcome, tau, k, model)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
