"""Constants, single-kaon states and their free evolution."""

import json
import math

import pytest
from hypothesis import given, strategies as st

from kaoneraser import (Outcome, PhysicalConstants, SingularStateError,
                        beam_norm, evolve, make_state, normalize_to_survivors,
                        project, survival_probability)

times = st.floats(min_value=0.0, max_value=30.0, allow_nan=False)


class TestPhysicalConstants:
    def test_defaults(self, k):
        assert k.gamma_S == 1.0
        assert k.gamma_L == pytest.approx(1.0 / 579.0, rel=1e-15)
        assert k.delta_m == 0.4737
        assert k.delta_gamma < 0
        assert k.gamma_mean == pytest.approx(0.5 * (1.0 + 1.0 / 579.0))

    def test_branching_complements(self, k):
        assert k.br_2pi_S == pytest.approx(1.0 - k.br_sl_S)
        assert k.br_3pi_L == pytest.approx(1.0 - k.br_sl_L)

    def test_rejects_inverted_widths(self):
        with pytest.raises(ValueError):
            PhysicalConstants(gamma_S=0.001, gamma_L=1.0)

    def test_rejects_bad_branching(self):
        with pytest.raises(ValueError):
            PhysicalConstants(br_sl_L=1.2)
        with pytest.raises(ValueError):
            PhysicalConstants(br_sl_S=0.1, br_2pi_S=0.1)

    def test_delta_s_delta_q_default_ok(self, k):
        # measured ratios agree to ~3.5%
        assert k.delta_s_delta_q_consistent()
        assert 0.02 < k.semileptonic_width_mismatch() < 0.05

    def test_delta_s_delta_q_inconsistent(self):
        assert not PhysicalConstants(br_sl_L=0.9).delta_s_delta_q_consistent()

    def test_from_json_dict_and_text(self):
        from_dict = PhysicalConstants.from_json({"delta_m": 0.5})
        from_text = PhysicalConstants.from_json(json.dumps({"delta_m": 0.5}))
        assert from_dict == from_text
        assert from_dict.delta_m == 0.5
        assert from_dict.gamma_L == pytest.approx(1.0 / 579.0)

    def test_from_json_path(self, tmp_path):
        p = tmp_path / "constants.json"
        p.write_text('{"br_sl_L": 0.5}')
        assert PhysicalConstants.from_json(p).br_sl_L == 0.5

    @pytest.mark.parametrize("field,value", [
        ("gamma_S", "x"), ("gamma_L", None), ("delta_m", math.nan),
        ("br_sl_S", math.inf), ("br_2pi_S", True), ("epsilon_overlap", 10 ** 400)])
    def test_rejects_non_finite_or_non_numeric_field(self, field, value):
        with pytest.raises(ValueError,
                           match=f"field '{field}' must be a finite number"):
            PhysicalConstants(**{field: value})

    def test_integer_fields_accepted(self):
        assert PhysicalConstants(gamma_S=1, delta_m=0) == PhysicalConstants(
            gamma_S=1.0, delta_m=0.0)

    @pytest.mark.parametrize("doc", [[], "[1]", "5"])
    def test_from_json_needs_object(self, doc):
        with pytest.raises(ValueError, match="constants must be a JSON object"):
            PhysicalConstants.from_json(doc)

    def test_from_json_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            PhysicalConstants.from_json({"gamma_X": 1.0})


class TestStates:
    def test_basis_states_normalized(self):
        for out in Outcome:
            assert make_state(out).norm_sq() == pytest.approx(1.0, abs=1e-15)

    def test_strangeness_decomposition(self):
        k0 = make_state(Outcome.K0)
        assert k0.c_S == pytest.approx(1 / math.sqrt(2))
        assert k0.c_L == pytest.approx(1 / math.sqrt(2))
        k0b = make_state(Outcome.K0BAR)
        assert k0b.c_L == pytest.approx(-1 / math.sqrt(2))

    def test_projection_on_self_and_conjugate(self):
        for out in Outcome:
            assert project(make_state(out), out) == pytest.approx(1.0)
            assert project(make_state(out), out.conjugate) == pytest.approx(0.0, abs=1e-15)

    def test_outcome_metadata(self):
        assert Outcome.K0.conjugate is Outcome.K0BAR
        assert Outcome.KS.conjugate is Outcome.KL
        assert Outcome.K0.observable.value == "strangeness"
        assert Outcome.KL.observable.value == "lifetime"

    def test_project_requires_normalized(self, k):
        decayed = evolve(make_state(Outcome.K0), 1.0, k)
        with pytest.raises(ValueError):
            project(decayed, Outcome.K0)

    def test_normalize_zero_norm(self):
        from kaoneraser import SingleKaonState
        with pytest.raises(SingularStateError):
            normalize_to_survivors(SingleKaonState(0.0, 0.0))


class TestEvolution:
    def test_negative_time_rejected(self, k):
        with pytest.raises(ValueError):
            evolve(make_state(Outcome.K0), -0.1, k)

    def test_ks_pure_exponential(self, k):
        s = evolve(make_state(Outcome.KS), 2.5, k)
        assert s.norm_sq() == pytest.approx(math.exp(-2.5), rel=1e-12)
        assert s.c_L == 0.0

    @given(tau=times)
    def test_norm_equals_survival(self, k, tau):
        for out in (Outcome.K0, Outcome.KL):
            init = make_state(out)
            assert evolve(init, tau, k).norm_sq() == pytest.approx(
                survival_probability(init, tau, k), rel=1e-12, abs=1e-300)

    @given(tau=times)
    def test_strangeness_survival_is_beam_norm(self, k, tau):
        init = make_state(Outcome.K0)
        assert survival_probability(init, tau, k) == pytest.approx(
            beam_norm(tau, k), rel=1e-12)

    def test_beam_norm_value(self, k):
        assert beam_norm(2.5, k) == pytest.approx(0.53888825879118025, abs=1e-15)

    @given(t1=times, t2=st.floats(min_value=0.0, max_value=10.0))
    def test_evolution_composes(self, k, t1, t2):
        one = evolve(make_state(Outcome.K0), t1 + t2, k)
        two = evolve(evolve(make_state(Outcome.K0), t1, k), t2, k)
        assert two.c_S == pytest.approx(one.c_S, rel=1e-9, abs=1e-300)
        assert two.c_L == pytest.approx(one.c_L, rel=1e-9, abs=1e-300)

    @given(tau=times)
    def test_survivor_normalization(self, k, tau):
        s = normalize_to_survivors(evolve(make_state(Outcome.K0), tau, k))
        assert s.norm_sq() == pytest.approx(1.0, rel=1e-12)
        assert s.normalized
