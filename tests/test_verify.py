"""verify's identity checks fail when the algebra they check is broken.

Each test plants one defect in the pair-state algebra and asserts that the
check built to catch it reports a failure, so a check that has gone blind
(for example one that compares an oracle with itself) does not pass
silently.  That both pass on the real algebra is acceptance criteria 2 and 4
(tests/test_acceptance.py)."""

import math

from kaoneraser import TwoKaonState, beam_norm, pairs
from kaoneraser.verify import check_delayed_choice, check_oracle_grid


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
