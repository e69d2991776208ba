"""Effective decay amplitudes, joint rates and the active/passive equivalence."""

import copy
import inspect
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kaoneraser import (EIGENSTATES, DecayChannel, Outcome, PhysicalConstants,
                        build_amplitude_model, closed_form_joint, decay_width,
                        joint_decay_rate, mixed_active_passive_prob,
                        mixed_decay_rate, pair_beam_norm, passive_joint_prob,
                        passive_single_prob)
from kaoneraser.decay import (CHANNEL_BY_CODE, CHANNEL_CODES, CHANNEL_OUTCOME,
                              OUTCOME_CHANNEL)
from kaoneraser.pairs import _KET_ROW
from kaoneraser.verify import check_branching_consistency

times = st.floats(min_value=0.0, max_value=12.0, allow_nan=False)

SS_OUTCOMES = [Outcome.K0, Outcome.K0BAR]
ALL_OUTCOMES = list(Outcome)
# channel codes: the index of each channel's amplitude in a_S and a_L
TWO_PI, THREE_PI, SL_PLUS, SL_MINUS = range(4)


def _kind(out_l, out_r):
    if out_r is Outcome.KS:
        return "s_ks"
    if out_r is Outcome.KL:
        return "s_kl"
    return "ss_like" if out_l is out_r else "ss_unlike"


class TestAmplitudeModel:
    def test_code_order(self, model):
        """Channel codes follow the enum's definition order, and the model
        holds one Python float per channel in that order."""
        assert CHANNEL_BY_CODE == tuple(DecayChannel) == (
            DecayChannel.TWO_PI, DecayChannel.THREE_PI, DecayChannel.SL_PLUS,
            DecayChannel.SL_MINUS)
        assert {ch: CHANNEL_CODES[ch] for ch in DecayChannel} == {
            ch: c for c, ch in enumerate(CHANNEL_BY_CODE)}
        for amps in (model.a_S, model.a_L):
            assert type(amps) is tuple and len(amps) == 4
            assert all(type(a) is float for a in amps)

    def test_moduli(self, model):
        assert model.a_S[SL_PLUS] == pytest.approx(
            0.023873587634214038, abs=1e-15)
        assert model.a_L[THREE_PI] == pytest.approx(
            0.024232609097990824, abs=1e-15)
        assert model.a_S[TWO_PI] == pytest.approx(
            0.99942988930036658, abs=1e-15)

    def test_cp_limit_zeros(self, model):
        assert model.a_L[TWO_PI] == 0.0
        assert model.a_S[THREE_PI] == 0.0

    def test_semileptonic_sign(self, model):
        """The lepton-charge tag forces opposite K_L couplings."""
        assert model.a_L[SL_MINUS] == -model.a_L[SL_PLUS]
        assert model.a_S[SL_MINUS] == +model.a_S[SL_PLUS]

    def test_width_saturation(self, k, model):
        """Summed squared moduli reproduce the total widths exactly."""
        tot_s = sum(abs(a) ** 2 for a in model.a_S)
        tot_l = sum(abs(a) ** 2 for a in model.a_L)
        assert tot_s == pytest.approx(k.gamma_S, rel=1e-15)
        assert tot_l == pytest.approx(k.gamma_L, rel=1e-15)

    def test_saturation_for_arbitrary_constants(self):
        k = PhysicalConstants(gamma_L=0.05, br_sl_L=0.3, br_sl_S=0.02)
        m = build_amplitude_model(k)
        assert sum(abs(a) ** 2 for a in m.a_S) == pytest.approx(k.gamma_S)
        assert sum(abs(a) ** 2 for a in m.a_L) == pytest.approx(k.gamma_L)

    def test_warning_on_inconsistent_branching(self):
        k = PhysicalConstants(br_sl_L=0.9)
        build_amplitude_model(k)
        check = check_branching_consistency(k)
        assert check.passed and check.warning
        assert "Delta-S=Delta-Q" in check.detail

    def test_no_warning_by_default(self, k):
        assert not check_branching_consistency(k).warning


class TestDecayWidths:
    def test_identifying_widths(self, k, model):
        # semileptonic tags carry the full semileptonic width of the tagged state
        assert decay_width(DecayChannel.SL_PLUS, k, model) == pytest.approx(
            k.br_sl_L * k.gamma_L, rel=1e-12)
        assert decay_width(DecayChannel.SL_MINUS, k, model) == pytest.approx(
            k.br_sl_L * k.gamma_L, rel=1e-12)
        assert decay_width(DecayChannel.TWO_PI, k, model) == pytest.approx(
            k.gamma_S - k.br_sl_L * k.gamma_L, rel=1e-12)
        assert decay_width(DecayChannel.THREE_PI, k, model) == pytest.approx(
            k.br_3pi_L * k.gamma_L, rel=1e-12)

    def test_two_pi_width_close_to_branching(self, k, model):
        """The saturated 2pi width differs from (1 - br_sl_S) * Gamma_S only
        through the small semileptonic-width mismatch of the inputs."""
        assert decay_width(DecayChannel.TWO_PI, k, model) == pytest.approx(
            (1.0 - k.br_sl_S) * k.gamma_S, rel=1e-4)


# each rate or width with a bad channel in its channel slot
CHANNEL_TAKERS = {
    # a single kaon's rate: the mixed rate with the partner's K0bar at 0
    "single_decay_rate": lambda ch, k, m: mixed_decay_rate(
        Outcome.K0BAR, ch, 0.0, 1.0, k, m),
    "joint_decay_rate": lambda ch, k, m: joint_decay_rate(
        DecayChannel.SL_PLUS, 1.0, ch, 2.0, k, m),
    "mixed_decay_rate": lambda ch, k, m: mixed_decay_rate(
        Outcome.K0, ch, 1.0, 2.0, k, m),
    "decay_width": lambda ch, k, m: decay_width(ch, k, m),
}


@pytest.mark.parametrize("call", CHANNEL_TAKERS.values(), ids=CHANNEL_TAKERS)
@pytest.mark.parametrize("bad", ["2pi", 5, None, [DecayChannel.SL_PLUS]])
def test_unknown_channel_is_a_value_error(k, model, call, bad):
    """A channel value, int, None or unhashable list is refused by name,
    with no KeyError, TypeError or DeprecationWarning on the way."""
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'unknown channel {bad!r}')}$"):
        call(bad, k, model)


# each passive or mixed probability with a bad outcome in its passive slot
OUTCOME_TAKERS = {
    "passive_joint_prob": lambda out, k, m: passive_joint_prob(
        out, 1.0, Outcome.K0, 2.0, k, m),
    "mixed_active_passive_prob": lambda out, k, m: mixed_active_passive_prob(
        Outcome.K0, 1.0, out, 2.0, k, m),
    "passive_single_prob": lambda out, k, m: passive_single_prob(out, 1.0, k, m),
}


@pytest.mark.parametrize("call", OUTCOME_TAKERS.values(), ids=OUTCOME_TAKERS)
@pytest.mark.parametrize("bad", ["K0", None, 5, [Outcome.K0]])
def test_unknown_outcome_is_a_value_error(k, model, call, bad):
    """An outcome value, None, int or unhashable list is refused by name, as
    a pair projector is, with no KeyError or TypeError on the way."""
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'unknown outcome {bad!r}')}$"):
        call(bad, k, model)


# each mixed rate or probability with a bad outcome in its active left slot
ACTIVE_TAKERS = {
    "mixed_decay_rate": lambda out, t, k, m: mixed_decay_rate(
        out, DecayChannel.SL_PLUS, t, 2.0, k, m),
    "mixed_active_passive_prob": lambda out, t, k, m: mixed_active_passive_prob(
        out, t, Outcome.KS, 2.0, k, m),
}


@pytest.mark.parametrize("call", ACTIVE_TAKERS.values(), ids=ACTIVE_TAKERS)
@pytest.mark.parametrize("bad", [Outcome.KS, Outcome.KL, "K0", None,
                                 [Outcome.K0]])
def test_active_left_outcome_must_be_a_strangeness_outcome(k, model, call, bad):
    """The mixed rate owns the sign of K0 and K0bar and refuses the rest,
    on floats and arrays."""
    for tau in (1.0, np.array([1.0, 2.0])):
        with pytest.raises(ValueError, match="^active left outcome must be "
                           "a strangeness outcome$"):
            call(bad, tau, k, model)


# every module table keyed by an enum member, per member type
ENUM_TABLES = {Outcome: (EIGENSTATES, _KET_ROW, OUTCOME_CHANNEL),
               DecayChannel: (CHANNEL_CODES, CHANNEL_OUTCOME)}


@pytest.mark.parametrize("member", [*Outcome, *DecayChannel], ids=str)
@pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)),
                                   copy.deepcopy], ids=["pickle", "deepcopy"])
def test_enum_lookups_survive_copies(member, clone):
    """The members hash by identity in C; a pickled or deep-copied member is
    the same singleton, so every table still finds it."""
    assert not inspect.isfunction(type(member).__hash__)
    twin = clone(member)
    for table in ENUM_TABLES[type(member)]:
        assert table[twin] is table[member]


class TestJointRates:
    def test_negative_times_rejected(self, k, model):
        with pytest.raises(ValueError):
            joint_decay_rate(DecayChannel.TWO_PI, -1.0, DecayChannel.TWO_PI,
                             0.0, k, model)

    def test_pair_beam_norm_rejects_a_negative_time(self, k):
        """Not a survivor norm above 1: N(-1, 0) would be 1.86."""
        with pytest.raises(ValueError, match="times must be finite and "
                           "nonnegative, got -1.0 and 0.0"):
            pair_beam_norm(-1.0, 0.0, k)

    def test_same_channel_same_time_vanishes(self, k, model):
        """Antisymmetry forbids identical simultaneous decays."""
        for f in DecayChannel:
            assert joint_decay_rate(f, 2.0, f, 2.0, k, model) == pytest.approx(
                0.0, abs=1e-30)

    def test_pair_beam_norm_value(self, k):
        assert pair_beam_norm(1.5, 3.25, k) == pytest.approx(
            0.13027754874167131, abs=1e-15)

    @given(tl=times, tr=times)
    def test_pair_beam_norm_symmetric(self, k, tl, tr):
        assert pair_beam_norm(tl, tr, k) == pytest.approx(
            pair_beam_norm(tr, tl, k), rel=1e-12)


class TestActivePassiveCoincidence:
    @pytest.mark.parametrize("tl", [0.0, 1.0, 2.0, 4.0, 8.0])
    @pytest.mark.parametrize("tr", [0.0, 1.0, 2.0, 4.0, 8.0])
    def test_passive_equals_active_on_grid(self, k, model, tl, tr):
        for out_l in SS_OUTCOMES:
            for out_r in ALL_OUTCOMES:
                want = closed_form_joint(_kind(out_l, out_r), tl - tr, k)
                assert passive_joint_prob(out_l, tl, out_r, tr, k, model) == \
                    pytest.approx(want, rel=1e-10, abs=1e-12)
                assert mixed_active_passive_prob(out_l, tl, out_r, tr, k, model) == \
                    pytest.approx(want, rel=1e-10, abs=1e-12)

    @given(tl=times, tr=times)
    def test_passive_equals_active_everywhere(self, k, model, tl, tr):
        for out_l, out_r in ((Outcome.K0, Outcome.K0BAR), (Outcome.K0BAR, Outcome.KS)):
            want = closed_form_joint(_kind(out_l, out_r), tl - tr, k)
            got = passive_joint_prob(out_l, tl, out_r, tr, k, model)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_coincidence_survives_odd_constants(self):
        """The equivalence is structural, not tied to the measured values."""
        k = PhysicalConstants(gamma_L=0.2, delta_m=1.3, br_sl_L=0.4, br_sl_S=0.3)
        model = build_amplitude_model(k)
        for out_l in SS_OUTCOMES:
            for out_r in ALL_OUTCOMES:
                want = closed_form_joint(_kind(out_l, out_r), 1.0 - 2.5, k)
                got = passive_joint_prob(out_l, 1.0, out_r, 2.5, k, model)
                assert got == pytest.approx(want, rel=1e-10)

    def test_mixed_requires_strangeness_left(self, k, model):
        with pytest.raises(ValueError):
            mixed_active_passive_prob(Outcome.KS, 1.0, Outcome.K0, 1.0, k, model)
