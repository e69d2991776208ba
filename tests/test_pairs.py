"""Entangled pair states: joint probabilities, EPR anticorrelation and the
ordering-independence of delayed-choice measurements."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kaoneraser import (JointProjector, Outcome, SingularStateError,
                        closed_form_joint, delayed_choice_norms, evolve_pair,
                        initial_pair, joint_projective_prob, normalize_pair,
                        normalized_pair, pair_visibility, project_side,
                        survivor_unitary_side)

dts = st.floats(min_value=-12.0, max_value=12.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)

# frozen joint probabilities at 30-digit precision: dt -> (like, unlike, s_ks)
JOINT_ORACLE = {
    0.0: (0.0, 0.5, 0.25),
    1.0: (0.052629269440507051, 0.44737073055949295, 0.36535943579464434),
    -3.7: (0.26392063772302126, 0.23607936227697874, 0.012138969766900604),
    6.2: (0.272127557805758, 0.227872442194242, 0.49897646017283293),
}


def _prob(state, out_l, out_r):
    return joint_projective_prob(state, JointProjector(out_l, out_r))


class TestClosedForms:
    @pytest.mark.parametrize("dt", sorted(JOINT_ORACLE))
    def test_frozen_reference_values(self, k, dt):
        like, unlike, s_ks = JOINT_ORACLE[dt]
        assert closed_form_joint("ss_like", dt, k) == pytest.approx(like, abs=1e-14)
        assert closed_form_joint("ss_unlike", dt, k) == pytest.approx(unlike, abs=1e-14)
        assert closed_form_joint("s_ks", dt, k) == pytest.approx(s_ks, abs=1e-14)
        assert closed_form_joint("s_kl", dt, k) == pytest.approx(0.5 - s_ks, abs=1e-14)

    def test_unknown_kind(self, k):
        with pytest.raises(ValueError):
            closed_form_joint("nope", 0.0, k)

    @given(dt=dts)
    def test_total_probability(self, k, dt):
        total_ss = 2 * (closed_form_joint("ss_like", dt, k)
                        + closed_form_joint("ss_unlike", dt, k))
        total_sl = 2 * (closed_form_joint("s_ks", dt, k)
                        + closed_form_joint("s_kl", dt, k))
        assert total_ss == pytest.approx(1.0, rel=1e-12)
        assert total_sl == pytest.approx(1.0, rel=1e-12)


class TestEPRAnticorrelation:
    def test_like_strangeness_vanishes_at_equal_times(self, k):
        assert closed_form_joint("ss_like", 0.0, k) == 0.0
        state = normalized_pair(0.0, k)
        for out in (Outcome.K0, Outcome.K0BAR):
            assert _prob(state, out, out) <= 1e-12
        for out in (Outcome.KS, Outcome.KL):
            # perfect anticorrelation holds in the lifetime basis too
            assert _prob(state, out, out) <= 1e-12
        assert _prob(state, Outcome.K0, Outcome.K0BAR) == pytest.approx(0.5, abs=1e-12)

    def test_initial_pair_is_antisymmetric(self):
        phi = initial_pair()
        assert phi.c_LS == pytest.approx(-phi.c_SL)
        assert phi.norm_sq() == pytest.approx(1.0)


class TestOracleEquivalence:
    @given(dt=dts)
    @settings(max_examples=200)
    def test_projector_matches_closed_forms(self, k, dt):
        state = normalized_pair(dt, k)
        pairs = [
            (Outcome.K0, Outcome.K0, "ss_like"),
            (Outcome.K0BAR, Outcome.K0BAR, "ss_like"),
            (Outcome.K0, Outcome.K0BAR, "ss_unlike"),
            (Outcome.K0BAR, Outcome.K0, "ss_unlike"),
            (Outcome.K0, Outcome.KS, "s_ks"),
            (Outcome.K0BAR, Outcome.KS, "s_ks"),
            (Outcome.K0, Outcome.KL, "s_kl"),
            (Outcome.K0BAR, Outcome.KL, "s_kl"),
        ]
        for out_l, out_r, kind in pairs:
            want = closed_form_joint(kind, dt, k)
            assert _prob(state, out_l, out_r) == pytest.approx(
                want, rel=1e-10, abs=1e-12)

    @given(tl=times, tr=times)
    def test_evolved_pair_matches_normalized_form(self, k, tl, tr):
        """Evolving and survivor-normalizing the production state reproduces
        the single-parameter normalized state in all observables."""
        evolved = normalize_pair(evolve_pair(initial_pair(), tl, tr, k))
        direct = normalized_pair(tl - tr, k)
        for out_l in (Outcome.K0, Outcome.KS):
            for out_r in (Outcome.K0BAR, Outcome.KL):
                assert _prob(evolved, out_l, out_r) == pytest.approx(
                    _prob(direct, out_l, out_r), rel=1e-9, abs=1e-12)

    @given(dt=dts)
    def test_visibility_bounds(self, k, dt):
        v = pair_visibility(dt, k)
        assert 0.0 < v <= 1.0
        asym = (closed_form_joint("ss_unlike", dt, k)
                - closed_form_joint("ss_like", dt, k)) * 2.0
        assert asym == pytest.approx(v * math.cos(k.delta_m * dt), rel=1e-12, abs=1e-12)


class TestStateOperations:
    def test_evolve_rejects_negative_times(self, k):
        with pytest.raises(ValueError):
            evolve_pair(initial_pair(), -1.0, 0.0, k)

    def test_normalize_zero_state(self):
        from kaoneraser import TwoKaonState
        with pytest.raises(SingularStateError):
            normalize_pair(TwoKaonState(0.0, 0.0))

    def test_projection_needs_normalized_state(self, k):
        raw = evolve_pair(initial_pair(), 1.0, 1.0, k)
        with pytest.raises(ValueError):
            joint_projective_prob(raw, JointProjector(Outcome.K0, Outcome.K0))

    def test_project_side_idempotent(self, k):
        state = normalized_pair(1.3, k)
        once = project_side(state, "left", Outcome.K0)
        twice = project_side(once, "left", Outcome.K0)
        for name in ("c_LS", "c_SL", "c_SS", "c_LL"):
            a, b = getattr(once, name), getattr(twice, name)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-15)

    def test_states_are_immutable(self, k):
        state = normalized_pair(0.7, k)
        with pytest.raises(AttributeError):
            state.c_LS = 0.0
        with pytest.raises(AttributeError):
            state.normalized = False

    def test_project_side_bad_side(self, k):
        with pytest.raises(ValueError):
            project_side(normalized_pair(0.0, k), "middle", Outcome.K0)

    @pytest.mark.parametrize("side", ["Left", "RIGHT", "middle", "", None])
    def test_survivor_unitary_bad_side(self, k, side):
        """A misspelt side raises instead of evolving the right-hand kaon."""
        state = project_side(normalized_pair(0.0, k), "right", Outcome.K0)
        with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
            survivor_unitary_side(state, side, 1.0, k)

    def test_one_sided_projections_sum_to_one(self, k):
        state = normalized_pair(2.0, k)
        for side in ("left", "right"):
            for a, b in ((Outcome.K0, Outcome.K0BAR), (Outcome.KS, Outcome.KL)):
                total = (project_side(state, side, a).norm_sq()
                         + project_side(state, side, b).norm_sq())
                assert total == pytest.approx(1.0, rel=1e-12)

    @given(dt=st.floats(min_value=-6.0, max_value=6.0))
    def test_survivor_unitary_preserves_norm(self, k, dt):
        """Norm preservation holds on states whose affected side carries even
        K_S/K_L weight, e.g. after projecting the partner of an equal-time
        pair -- the situation where the reordering trick is used."""
        state = project_side(normalized_pair(0.0, k), "right", Outcome.K0)
        moved = survivor_unitary_side(state, "left", dt, k)
        assert moved.norm_sq() == pytest.approx(state.norm_sq(), rel=1e-9)


class TestDelayedChoice:
    @given(tl=st.floats(min_value=0.0, max_value=8.0),
           tr0=st.floats(min_value=0.0, max_value=8.0))
    @settings(max_examples=60)
    def test_orderings_agree(self, k, tl, tr0):
        for out_l in Outcome:
            for out_r in Outcome:
                norms = delayed_choice_norms(tl, tr0, JointProjector(out_l, out_r), k)
                assert max(norms) - min(norms) < 1e-12

    def test_meter_after_object(self, k):
        """The erasing measurement may happen long after the object one."""
        p = JointProjector(Outcome.K0, Outcome.K0BAR)
        direct, normal, delayed = delayed_choice_norms(0.5, 7.5, p, k)
        assert direct == pytest.approx(normal, abs=1e-13)
        assert direct == pytest.approx(delayed, abs=1e-13)

    def test_negative_times_rejected(self, k):
        with pytest.raises(ValueError):
            delayed_choice_norms(-1.0, 2.0, JointProjector(Outcome.K0, Outcome.K0), k)
