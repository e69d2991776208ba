"""Single-kaon closed forms against frozen reference values, and the
equivalence of active and passive detection probabilities."""

import math

import pytest
from hypothesis import given, strategies as st

from kaoneraser import (Outcome, DecayChannel, MisidWindow, lifetime_probs,
                        misid_probs, passive_single_prob, single_decay_rate,
                        strangeness_probs, visibility_single)
from kaoneraser.decay import CHANNEL_CODES

times = st.floats(min_value=0.0, max_value=25.0, allow_nan=False)

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
    assert lifetime_probs(tau, k)[0] == pytest.approx(p_ks_ref, abs=1e-14)
    assert visibility_single(tau, k) == pytest.approx(v_ref, abs=1e-14)


def test_initial_conditions(k):
    assert strangeness_probs(0.0, k) == (1.0, 0.0)
    assert lifetime_probs(0.0, k) == (0.5, 0.5)
    assert visibility_single(0.0, k) == 1.0


@given(tau=times)
def test_probabilities_well_formed(k, tau):
    p0, p0b = strangeness_probs(tau, k)
    ps, pl = lifetime_probs(tau, k)
    assert 0.0 <= p0 <= 1.0 and p0 + p0b == pytest.approx(1.0)
    assert 0.0 <= ps <= 0.5 and ps + pl == pytest.approx(1.0)
    assert 0.0 < visibility_single(tau, k) <= 1.0


@given(tau=st.floats(min_value=0.1, max_value=25.0))
def test_oscillation_bounded_by_visibility(k, tau):
    p0, _ = strangeness_probs(tau, k)
    assert abs(2.0 * p0 - 1.0) <= visibility_single(tau, k) + 1e-12


def test_negative_time_rejected(k):
    for fn in (strangeness_probs, lifetime_probs, visibility_single):
        with pytest.raises(ValueError):
            fn(-1.0, k)


class TestMisidWindow:
    def test_default_window(self, k):
        wrong_ks, wrong_kl = misid_probs(MisidWindow(), k)
        assert wrong_ks == pytest.approx(0.0082297470490200288, abs=1e-15)
        assert wrong_kl == pytest.approx(0.008255886864460263, abs=1e-15)
        # both are ~0.8% and nearly equal; exact equality is impossible for
        # finite gamma_L, the residual is a few 1e-5
        assert abs(wrong_ks - wrong_kl) < 1e-4

    def test_window_validation(self):
        with pytest.raises(ValueError):
            MisidWindow(0.0)
        with pytest.raises(ValueError):
            MisidWindow(-2.0)
        for bad in (float("nan"), float("inf"), "w"):
            with pytest.raises(ValueError, match="window must be a finite number"):
                MisidWindow(bad)

    def test_window_tradeoff(self, k):
        """Longer windows misread fewer K_S and more K_L."""
        short = misid_probs(MisidWindow(2.0), k)
        long = misid_probs(MisidWindow(8.0), k)
        assert long[0] < short[0]
        assert long[1] > short[1]


class TestPassiveSingle:
    def test_rate_reference_values(self, k, model):
        got = single_decay_rate(DecayChannel.TWO_PI, 1.3, k, model)
        assert got == pytest.approx(0.13611056751579521, abs=1e-15)
        got = single_decay_rate(DecayChannel.SL_PLUS, 2.0, k, model)
        assert got == pytest.approx(0.0004447530518799608, abs=1e-15)

    def test_forbidden_components(self, k, model):
        """2pi never comes from K_L, 3pi never from K_S (CP limit)."""
        r_2pi = single_decay_rate(DecayChannel.TWO_PI, 3.0, k, model)
        assert r_2pi == pytest.approx(
            0.5 * abs(model.a_S[CHANNEL_CODES[DecayChannel.TWO_PI]]) ** 2
            * math.exp(-3.0),
            rel=1e-12)
        r_3pi = single_decay_rate(DecayChannel.THREE_PI, 3.0, k, model)
        assert r_3pi == pytest.approx(
            0.5 * abs(model.a_L[CHANNEL_CODES[DecayChannel.THREE_PI]]) ** 2
            * math.exp(-3.0 * k.gamma_L), rel=1e-12)

    @given(tau=times)
    def test_matches_active_probabilities(self, k, model, tau):
        p0, p0b = strangeness_probs(tau, k)
        ps, pl = lifetime_probs(tau, k)
        expected = {Outcome.K0: p0, Outcome.K0BAR: p0b,
                    Outcome.KS: ps, Outcome.KL: pl}
        for outcome, want in expected.items():
            got = passive_single_prob(outcome, tau, k, model)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
