"""Constants, the eigenstate table and free evolution of a single kaon."""

import json
import math

import pytest
from hypothesis import given, strategies as st

from conftest import free_propagation
from kaoneraser import (EIGENSTATES, DecayChannel, JointProjector, Outcome,
                        PhysicalConstants, build_amplitude_model,
                        delayed_choice_norms, joint_projective_prob,
                        mixed_decay_rate, normalized_pair, pair_beam_norm,
                        strangeness_probs)
from kaoneraser import pairs
from kaoneraser.core import load_json
from kaoneraser.verify import check_branching_consistency

times = st.floats(min_value=0.0, max_value=30.0, allow_nan=False)


def _norm_sq(c_S, c_L):
    return abs(c_S) ** 2 + abs(c_L) ** 2


def _evolved(out, tau, k):
    """Amplitudes of the eigenstate of `out` after free propagation for tau."""
    c_S, c_L = EIGENSTATES[out]
    f_S, f_L = free_propagation(tau, k)
    return f_S * c_S, f_L * c_L


class TestPhysicalConstants:
    def test_defaults(self, k):
        assert k.gamma_S == 1.0
        assert k.gamma_L == pytest.approx(1.0 / 579.0, rel=1e-15)
        assert k.delta_m == 0.4737
        assert k.delta_gamma < 0
        assert k.gamma_mean == pytest.approx(0.5 * (1.0 + 1.0 / 579.0))

    def test_branching_complements(self, k):
        assert k.br_3pi_L == 1.0 - k.br_sl_L
        with pytest.raises(AttributeError):
            k.br_3pi_L = 0.34

    def test_rejects_inverted_widths(self):
        with pytest.raises(ValueError):
            PhysicalConstants(gamma_S=0.001, gamma_L=1.0)

    def test_rejects_bad_branching(self):
        with pytest.raises(ValueError):
            PhysicalConstants(br_sl_L=1.2)
        # the nonleptonic ratios are the complements, not fields
        for name in ("br_2pi_S", "br_3pi_L"):
            with pytest.raises(ValueError, match=rf"^unknown constants "
                               rf"field\(s\): \['{name}'\]$"):
                PhysicalConstants.from_json({"br_sl_S": 0.1, name: 0.1})

    def test_delta_s_delta_q_default_ok(self, k):
        # measured ratios agree to ~3.5%
        assert not check_branching_consistency(k).warning
        assert 0.02 < k.semileptonic_width_mismatch() < 0.05

    def test_delta_s_delta_q_inconsistent(self):
        assert check_branching_consistency(PhysicalConstants(br_sl_L=0.9)).warning

    def test_from_json_dict_and_text(self):
        """The parsed object builds the constants; JSON text is not parsed."""
        from_dict = PhysicalConstants.from_json({"delta_m": 0.5})
        assert from_dict == PhysicalConstants(delta_m=0.5)
        assert from_dict.gamma_L == pytest.approx(1.0 / 579.0)
        with pytest.raises(ValueError, match="^constants must be a JSON "
                           "object, got '{\"delta_m\": 0.5}'$"):
            PhysicalConstants.from_json(json.dumps({"delta_m": 0.5}))

    def test_from_json_path(self, tmp_path):
        """A path is not read: the caller parses the file."""
        p = tmp_path / "constants.json"
        p.write_text('{"br_sl_L": 0.5}')
        with pytest.raises(ValueError, match="constants must be a JSON object"):
            PhysicalConstants.from_json(p)
        assert PhysicalConstants.from_json(load_json(p.read_text())).br_sl_L == 0.5

    @pytest.mark.parametrize("field,value", [
        ("gamma_S", "x"), ("gamma_L", None), ("delta_m", math.nan),
        ("br_sl_S", math.inf), ("br_sl_L", True),
        pytest.param("delta_m", 10 ** 400, id="delta_m-10**400")])
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

    def test_from_json_duplicate_key(self):
        """A key given twice is rejected where the JSON text is parsed, so
        it never reaches ``from_json`` as its last value."""
        text = '{"constants": {"delta_m": 0.4737, "gamma_S": 1.0, "delta_m": 5}}'
        with pytest.raises(ValueError, match="duplicate JSON key 'delta_m'"):
            PhysicalConstants.from_json(load_json(text)["constants"])

    def test_epsilon_overlap_is_not_a_field(self):
        with pytest.raises(ValueError, match=r"\['epsilon_overlap'\]"):
            PhysicalConstants.from_json({"epsilon_overlap": 3.2e-3})


class TestZeroSemileptonicWidths:
    """br_sl_L = br_sl_S = 0: both partial widths vanish, so they agree."""

    def test_mismatch_is_zero(self):
        k = PhysicalConstants(br_sl_L=0.0, br_sl_S=0.0)
        assert k.semileptonic_width_mismatch() == 0.0
        assert k.br_3pi_L == 1.0

    def test_amplitude_model(self):
        k = PhysicalConstants(br_sl_L=0.0, br_sl_S=0.0)
        m = build_amplitude_model(k)
        assert not check_branching_consistency(k).warning
        assert m.a_S == (1.0, 0.0, 0.0, 0.0)
        assert m.a_L == (0.0, math.sqrt(k.gamma_L), 0.0, 0.0)


class TestStates:
    def test_basis_states_normalized(self):
        for out in Outcome:
            assert _norm_sq(*EIGENSTATES[out]) == pytest.approx(1.0, abs=1e-15)

    def test_strangeness_decomposition(self):
        c_S, c_L = EIGENSTATES[Outcome.K0]
        assert c_S == pytest.approx(1 / math.sqrt(2))
        assert c_L == pytest.approx(1 / math.sqrt(2))
        assert EIGENSTATES[Outcome.K0BAR][1] == pytest.approx(-1 / math.sqrt(2))

    def test_projection_on_self_and_conjugate(self):
        def prob(bra, ket):  # |<bra|ket>|^2 for real amplitudes
            return (bra[0] * ket[0] + bra[1] * ket[1]) ** 2

        # each outcome and the orthogonal one in the same basis
        for a, b in ((Outcome.K0, Outcome.K0BAR), (Outcome.KS, Outcome.KL)):
            for out, other in ((a, b), (b, a)):
                s = EIGENSTATES[out]
                assert prob(s, s) == pytest.approx(1.0)
                assert prob(EIGENSTATES[other], s) == pytest.approx(0.0, abs=1e-15)

    def test_basis_states_are_shared_and_immutable(self):
        """One table: the pair layer reads its kets from it, not from a copy,
        and each entry is an immutable pair of real floats."""
        assert list(EIGENSTATES) == list(Outcome)
        for out in Outcome:
            assert pairs._ket(out) is EIGENSTATES[out]
            assert all(type(c) is float for c in EIGENSTATES[out])
            with pytest.raises(TypeError):
                EIGENSTATES[out][0] = 0.0

    @pytest.mark.parametrize("bad", ["K0", None, 0, [Outcome.K0]])
    def test_eigenstate_lookup_rejects_non_outcomes(self, k, bad):
        """The pair layer looks the eigenstates up by outcome and refuses
        anything else by name, with no KeyError or TypeError."""
        with pytest.raises(ValueError, match="^unknown outcome "):
            joint_projective_prob(normalized_pair(0.0, k),
                                  JointProjector(bad, Outcome.K0))
        with pytest.raises(ValueError, match="^unknown outcome "):
            delayed_choice_norms(1.0, 0.0, JointProjector(Outcome.K0, bad), k)

    def test_outcome_metadata(self):
        assert Outcome.K0.observable.value == "strangeness"
        assert Outcome.K0BAR.observable.value == "strangeness"
        assert Outcome.KS.observable.value == "lifetime"
        assert Outcome.KL.observable.value == "lifetime"


class TestEvolution:
    def test_negative_time_rejected(self, k):
        with pytest.raises(ValueError):
            strangeness_probs(-0.1, k)
        with pytest.raises(ValueError):  # the single-kaon rate
            mixed_decay_rate(Outcome.K0BAR, DecayChannel.SL_PLUS, 0.0, -0.1,
                             k, build_amplitude_model(k))

    def test_ks_pure_exponential(self, k):
        c_S, c_L = _evolved(Outcome.KS, 2.5, k)
        assert _norm_sq(c_S, c_L) == pytest.approx(math.exp(-2.5), rel=1e-12)
        assert c_L == 0.0

    @given(tau=times)
    def test_norm_equals_survival(self, k, tau):
        for out in (Outcome.K0, Outcome.KL):
            c_S, c_L = EIGENSTATES[out]
            survival = (c_S ** 2 * math.exp(-k.gamma_S * tau)
                        + c_L ** 2 * math.exp(-k.gamma_L * tau))
            assert _norm_sq(*_evolved(out, tau, k)) == pytest.approx(
                survival, rel=1e-12, abs=1e-300)

    @given(tau=times)
    def test_strangeness_survival_is_beam_norm(self, k, tau):
        for out in (Outcome.K0, Outcome.K0BAR):
            assert _norm_sq(*_evolved(out, tau, k)) == pytest.approx(
                pair_beam_norm(tau, 0.0, k), rel=1e-12)

    def test_beam_norm_value(self, k):
        assert pair_beam_norm(2.5, 0.0, k) == pytest.approx(
            0.53888825879118025, abs=1e-15)

    @given(t1=times, t2=st.floats(min_value=0.0, max_value=10.0))
    def test_evolution_composes(self, k, t1, t2):
        one_S, one_L = _evolved(Outcome.K0, t1 + t2, k)
        f_S, f_L = free_propagation(t2, k)
        two_S, two_L = _evolved(Outcome.K0, t1, k)
        assert f_S * two_S == pytest.approx(one_S, rel=1e-9, abs=1e-300)
        assert f_L * two_L == pytest.approx(one_L, rel=1e-9, abs=1e-300)

    @given(tau=times)
    def test_survivor_normalization(self, k, tau):
        """Conditioning an evolved K0 on survival, i.e. dividing by
        sqrt(pair_beam_norm(tau, 0)), gives a unit state whose K0 weight is the
        closed-form strangeness probability."""
        n = math.sqrt(pair_beam_norm(tau, 0.0, k))
        c_S, c_L = (c / n for c in _evolved(Outcome.K0, tau, k))
        assert _norm_sq(c_S, c_L) == pytest.approx(1.0, rel=1e-12)
        k0_S, k0_L = EIGENSTATES[Outcome.K0]
        p_k0 = abs(k0_S * c_S + k0_L * c_L) ** 2
        assert p_k0 == pytest.approx(strangeness_probs(tau, k)[0], abs=1e-12)
