"""Entangled pair states: joint probabilities, EPR anticorrelation and the
ordering-independence of delayed-choice measurements."""

import cmath
import decimal
import itertools
import math
import re
import sys
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import free_propagation
from kaoneraser import (EIGENSTATES, JointProjector, Observable, Outcome,
                        PhysicalConstants, TwoKaonState, closed_form_joint,
                        delayed_choice_norms, joint_projective_prob,
                        normalized_pair, pair_visibility, pairs)
from kaoneraser.core import on_arrays

dts = st.floats(min_value=-12.0, max_value=12.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
far_times = st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)

PROJECTORS = [JointProjector(l, r) for l, r in itertools.product(Outcome, repeat=2)]
BASES = {obs: [o for o in Outcome if o.observable is obs] for obs in Observable}
# (tau_l, tau_r0): equal times, the meter first, and the meter long after
ORDERING_TIMES = [(0.0, 0.0), (2.0, 0.0), (6.0, 3.0), (0.5, 7.5)]

# frozen joint probabilities at 30-digit precision: dt -> (like, unlike, s_ks)
JOINT_ORACLE = {
    0.0: (0.0, 0.5, 0.25),
    1.0: (0.052629269440507051, 0.44737073055949295, 0.36535943579464434),
    -3.7: (0.26392063772302126, 0.23607936227697874, 0.012138969766900604),
    6.2: (0.272127557805758, 0.227872442194242, 0.49897646017283293),
}


def _prob(state, out_l, out_r):
    return joint_projective_prob(state, JointProjector(out_l, out_r))


def _amplitudes(state):
    """A ``TwoKaonState`` as the (LS, SL, SS, LL) tuple the private
    operations of ``pairs`` take."""
    return state.c_LS, state.c_SL, 0.0, 0.0


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


# 40 digits, with an exponent range wide enough for e^(10^8)
_DECIMAL = decimal.Context(prec=40, Emax=10 ** 9, Emin=-10 ** 9)


def _ulps_off(got: float, want: decimal.Decimal):
    """|got - want| in units of the spacing of doubles at ``want``, or None
    where ``want`` is not a normal double."""
    w = float(want)
    if w < sys.float_info.min:
        return None
    return float(abs(_DECIMAL.subtract(decimal.Decimal(got), want))) / math.ulp(w)


class TestFullPrecision:
    """V = 1/cosh(y), the K_S population 1/2/(1 + e^x) and the moduli of the
    survivor-normalized pair against a decimal reference taken at the same
    float argument as the forms, on floats and on arrays, however far out:
    each is within 4 ulps wherever the reference is a normal double (below
    that, the forms round to subnormals or 0)."""

    @given(dt=st.floats(min_value=-2000.0, max_value=2000.0),
           gamma_s=st.sampled_from([1.0, 10.0, 1e5]))
    @settings(max_examples=300)
    def test_within_4_ulps_of_a_decimal_reference(self, dt, gamma_s):
        k = PhysicalConstants(gamma_S=gamma_s)
        y = abs(decimal.Decimal(0.5 * k.delta_gamma * dt))
        x = decimal.Decimal(k.delta_gamma * dt)
        with decimal.localcontext(_DECIMAL):
            want = {"visibility": 2 / (y.exp() + (-y).exp()),
                    "s_ks": decimal.Decimal("0.5") / (1 + x.exp()),
                    "s_kl": decimal.Decimal("0.5") / (1 + (-x).exp())}
        got = {"visibility": lambda t: pair_visibility(t, k),
               "s_ks": lambda t: closed_form_joint("s_ks", t, k),
               "s_kl": lambda t: closed_form_joint("s_kl", t, k)}
        for name, form in got.items():
            for value in (form(dt), form(np.array([dt]))[0]):
                off = _ulps_off(float(value), want[name])
                assert off is None or off <= 4.0, (name, off)

    @given(dt=st.floats(min_value=-2000.0, max_value=2000.0),
           gamma_s=st.sampled_from([1.0, 10.0, 1e5]))
    @settings(max_examples=300)
    def test_pair_moduli_within_4_ulps(self, dt, gamma_s):
        """|c_LS| = 1/sqrt(1 + e^x) and |c_SL| = 1/sqrt(1 + e^-x), with
        x = DeltaGamma dt."""
        k = PhysicalConstants(gamma_S=gamma_s)
        x = decimal.Decimal(k.delta_gamma * dt)
        with decimal.localcontext(_DECIMAL):
            want = (1 / (1 + x.exp()).sqrt(), 1 / (1 + (-x).exp()).sqrt())
        array = normalized_pair(np.array([dt]), k)
        for state in (normalized_pair(dt, k), (array.c_LS[0], array.c_SL[0])):
            for amplitude, modulus in zip(state[:2], want):
                off = _ulps_off(float(abs(amplitude)), modulus)
                assert off is None or off <= 4.0, off


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

    def test_initial_pair_is_antisymmetric(self, k):
        """At equal times the normalized pair is the production state."""
        phi = normalized_pair(0.0, k)
        assert phi.c_LS == pytest.approx(-phi.c_SL)
        assert abs(phi.c_LS) ** 2 + abs(phi.c_SL) ** 2 == pytest.approx(1.0)


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

    @given(tl=far_times, tr0=far_times)
    @settings(max_examples=60)
    def test_evolved_pair_matches_normalized_form(self, k, tl, tr0):
        """Projecting both sides at (tau_l, tau_r0), in each of the three
        orderings, reproduces the single-parameter normalized pair in all 16
        observables, however far apart the times."""
        state = normalized_pair(tl - tr0, k)
        for p in PROJECTORS:
            want = joint_projective_prob(state, p)
            for got in delayed_choice_norms(tl, tr0, p, k):
                assert got == pytest.approx(want, rel=0.0, abs=1e-12)

    @given(tl=times, tr=times)
    def test_freely_evolved_singlet_is_the_normalized_pair(self, k, tl, tr):
        """The production singlet evolved freely to (tau_l, tau_r) and
        renormalized to both kaons surviving is ``normalized_pair(tau_l -
        tau_r)`` up to a global phase, which no probability sees."""
        s_l, l_l = free_propagation(tl, k)
        s_r, l_r = free_propagation(tr, k)
        c_LS, c_SL = l_l * s_r, -s_l * l_r
        n = math.sqrt(abs(c_LS) ** 2 + abs(c_SL) ** 2)
        state = normalized_pair(tl - tr, k)
        phase = c_LS / n / state.c_LS
        assert abs(phase) == pytest.approx(1.0, rel=1e-12)
        assert c_SL / n == pytest.approx(phase * state.c_SL, rel=1e-12,
                                         abs=1e-15)

    @given(dt=dts)
    def test_visibility_bounds(self, k, dt):
        v = pair_visibility(dt, k)
        assert 0.0 < v <= 1.0
        asym = (closed_form_joint("ss_unlike", dt, k)
                - closed_form_joint("ss_like", dt, k)) * 2.0
        assert asym == pytest.approx(v * math.cos(k.delta_m * dt), rel=1e-12, abs=1e-12)


class TestStateOperations:
    def test_projection_needs_normalized_state(self):
        raw = TwoKaonState(0.5, -0.5)
        with pytest.raises(ValueError, match="needs a normalized state"):
            joint_projective_prob(raw, JointProjector(Outcome.K0, Outcome.K0))

    @pytest.mark.parametrize("bad", [(Outcome.K0, Outcome.K0), None, Outcome.K0,
                                     SimpleNamespace(left="K0", right="K0")],
                             ids=["tuple", "none", "outcome", "duck-typed"])
    def test_projector_argument_must_be_a_projector(self, k, bad):
        """Not a bare AttributeError, TypeError or KeyError: a ValueError
        naming p, for float and array times and for a bad entry in a
        sequence."""
        good = JointProjector(Outcome.K0, Outcome.K0BAR)
        message = "^p must be a JointProjector"
        with pytest.raises(ValueError, match=message):
            joint_projective_prob(normalized_pair(0.5, k), bad)
        with pytest.raises(ValueError, match=message):
            delayed_choice_norms(1.0, 0.0, bad, k)
        with pytest.raises(ValueError, match=message):
            delayed_choice_norms(np.ones(2), np.zeros(2), [good, bad], k)

    def test_states_are_immutable(self, k):
        state = normalized_pair(0.7, k)
        with pytest.raises(AttributeError):
            state.c_LS = 0.0
        with pytest.raises(AttributeError):
            state.normalized = False

    # the private amplitude-tuple operations ``delayed_choice_norms`` runs on

    def test_survivor_factors_keep_the_norm_far_out(self, k):
        """Float and array factors are finite however far dt reaches, either
        way, and keep the norm of the singlet with one side projected."""
        c = _amplitudes(normalized_pair(0.0, k))
        b = EIGENSTATES[Outcome.K0]
        for dt in (-2000.0, -760.0, 760.0, 2000.0):
            array = on_arrays(pairs._survivor_factors, np.array([dt]), k)
            for f in (pairs._survivor_factors(dt, k), [v[0] for v in array]):
                for project, propagate in (
                        (pairs._project_right, pairs._propagate_left),
                        (pairs._project_left, pairs._propagate_right)):
                    state = project(c, b)
                    assert pairs._norm_sq(propagate(state, f)) == (
                        pytest.approx(pairs._norm_sq(state), rel=1e-12)), dt

    def test_project_side_idempotent(self, k):
        c = _amplitudes(normalized_pair(1.3, k))
        b = EIGENSTATES[Outcome.K0]
        for project in (pairs._project_left, pairs._project_right):
            once = project(c, b)
            twice = project(once, b)
            for a, t in zip(once, twice):
                assert t == pytest.approx(a, rel=1e-12, abs=1e-15)

    def test_one_sided_projections_sum_to_one(self, k):
        c = _amplitudes(normalized_pair(2.0, k))
        for project in (pairs._project_left, pairs._project_right):
            for a, b in ((Outcome.K0, Outcome.K0BAR), (Outcome.KS, Outcome.KL)):
                total = (pairs._norm_sq(project(c, EIGENSTATES[a]))
                         + pairs._norm_sq(project(c, EIGENSTATES[b])))
                assert total == pytest.approx(1.0, rel=1e-12)

    @given(dt=st.floats(min_value=-6.0, max_value=6.0))
    def test_survivor_unitary_preserves_norm(self, k, dt):
        """Norm preservation holds on states whose affected side carries even
        K_S/K_L weight, e.g. after projecting the partner of an equal-time
        pair -- the situation where the reordering trick is used."""
        f = pairs._survivor_factors(dt, k)
        c = _amplitudes(normalized_pair(0.0, k))
        b = EIGENSTATES[Outcome.K0]
        for project, propagate in ((pairs._project_right, pairs._propagate_left),
                                   (pairs._project_left, pairs._propagate_right)):
            state = project(c, b)
            moved = propagate(state, f)
            assert pairs._norm_sq(moved) == pytest.approx(
                pairs._norm_sq(state), rel=1e-9)


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

    def test_basis_products_sum_to_one(self, k):
        """For each ordering, the four outcome pairs of a product of bases
        exhaust the survivors: the one-sided projections and the survivor
        rescaling between them preserve the norm."""
        for (tl, tr0), (basis_l, basis_r) in itertools.product(
                ORDERING_TIMES, itertools.product(BASES.values(), repeat=2)):
            norms = [delayed_choice_norms(tl, tr0, JointProjector(l, r), k)
                     for l, r in itertools.product(basis_l, basis_r)]
            for total in map(sum, zip(*norms)):
                assert total == pytest.approx(1.0, rel=0.0, abs=1e-12)

    def test_strangeness_marginals_are_half(self, k):
        """Whatever basis the partner is measured in, and in whichever order,
        each side alone finds K0 and K0bar equally often."""
        for (tl, tr0), s_out, basis in itertools.product(
                ORDERING_TIMES, BASES[Observable.STRANGENESS], BASES.values()):
            left = [delayed_choice_norms(tl, tr0, JointProjector(s_out, o), k)
                    for o in basis]
            right = [delayed_choice_norms(tl, tr0, JointProjector(o, s_out), k)
                     for o in basis]
            for marginal in (*map(sum, zip(*left)), *map(sum, zip(*right))):
                assert marginal == pytest.approx(0.5, rel=0.0, abs=1e-12)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteTimes:
    """A NaN or infinite time is rejected, never turned into NaN norms or a
    bare ZeroDivisionError."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("which", [0, 1])
    def test_delayed_choice_norms(self, k, bad, which):
        times = [1.0, 1.0]
        times[which] = bad
        p = JointProjector(Outcome.K0, Outcome.K0BAR)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            delayed_choice_norms(*times, p, k)

    # each oracle of one time difference, which may take either sign
    DIFFERENCE_ORACLES = {
        "closed_form_joint": lambda dt, k: closed_form_joint("s_ks", dt, k),
        "pair_visibility": pair_visibility,
        "normalized_pair": normalized_pair,
    }

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", DIFFERENCE_ORACLES)
    def test_time_difference(self, k, name, bad):
        """A NaN difference came back as NaN, an infinite one as a limit."""
        with pytest.raises(ValueError, match=re.escape(
                f"delta_tau must be finite, got {bad!r}") + "$"):
            self.DIFFERENCE_ORACLES[name](bad, k)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", DIFFERENCE_ORACLES)
    def test_time_difference_in_an_array(self, k, name, bad):
        """Not ``[0.25, nan]``: on_arrays' error state does not trap a NaN
        input.  The message names the first bad index."""
        dts = np.array([-3.0, 0.0, bad, bad])
        with pytest.raises(ValueError, match=re.escape(
                f"delta_tau must be finite, got {bad!r} at index 2") + "$"):
            self.DIFFERENCE_ORACLES[name](dts, k)


class TestArraysRejectAsFloats:
    """Arrays of times fail where the per-pair float calls fail, with the
    same error, and evaluate where they evaluate: a bad time names the first
    bad pair, and a far-out pair gives its float call's norms."""

    P = JointProjector(Outcome.K0, Outcome.K0BAR)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf],
                             ids=["nan", "negative", "infinite"])
    @pytest.mark.parametrize("which", [0, 1], ids=["left", "right"])
    def test_bad_time_names_the_first_bad_pair(self, k, bad, which):
        times = np.ones((2, 4))
        times[which, 2] = bad
        times[1 - which, 3] = -2.0  # a later bad pair is not the one named
        tau_l, tau_r0 = times[:, 2].tolist()
        first = f"got {tau_l!r} and {tau_r0!r}"
        with pytest.raises(ValueError, match=re.escape(first) + "$"):
            delayed_choice_norms(tau_l, tau_r0, self.P, k)
        with pytest.raises(ValueError, match=re.escape(
                "evolution times must be finite and nonnegative, "
                f"{first} at index 2")):
            delayed_choice_norms(*times, [self.P] * 4, k)

    def test_unknown_outcome(self, k):
        tau = np.ones(2)
        with pytest.raises(ValueError, match="unknown outcome 'K0'"):
            delayed_choice_norms(tau, tau,
                                 [self.P, JointProjector(Outcome.K0, "K0")], k)

    def test_far_entry_evaluates_as_its_float_call(self, k):
        """At 760 tau_S both kaons' absolute survival underflows; the
        survivors are still the singlet, whose K0 K0bar norm is 1/2."""
        tau = np.array([1.0, 760.0, 2.0])
        far = delayed_choice_norms(760.0, 760.0, self.P, k)
        assert far == pytest.approx((0.5,) * 3, rel=1e-14)
        batched = np.array(delayed_choice_norms(tau, tau, [self.P] * 3, k))
        each = [delayed_choice_norms(t, t, self.P, k) for t in tau.tolist()]
        assert np.abs(batched.T - each).max() <= 4 * 2.0 ** -52


# Bit-level reference for the pair-state algebra: the same arithmetic step for
# step, written with one NamedTuple per step, the side chosen by string, the
# survivor moduli chosen by the sign of x and each propagator evaluated where
# it is used (input checks left out).  ``delayed_choice_norms`` must agree
# with it to the last bit.

class RefState(NamedTuple):
    c_LS: complex
    c_SL: complex
    c_SS: complex = 0.0
    c_LL: complex = 0.0
    normalized: bool = False

    def norm_sq(self) -> float:
        return (abs(self.c_LS) ** 2 + abs(self.c_SL) ** 2
                + abs(self.c_SS) ** 2 + abs(self.c_LL) ** 2)


def ref_initial_pair():
    return RefState(c_LS=1.0 / math.sqrt(2.0), c_SL=-1.0 / math.sqrt(2.0),
                    normalized=True)


def ref_survivor_moduli(x):
    """(1/sqrt(1 + e^-x), 1/sqrt(1 + e^x)), the larger one computed as r."""
    r = 1.0 / math.sqrt(1.0 + math.exp(-abs(x)))
    if x > 0:
        return r, math.exp(-0.5 * x) * r
    return math.exp(0.5 * x) * r, r


def ref_normalized_pair(dt, k):
    s, l = ref_survivor_moduli(k.delta_gamma * dt)
    return RefState(l, -cmath.exp(1j * k.delta_m * dt) * s, normalized=True)


def ref_project_side(state, side, outcome):
    b_S, b_L = EIGENSTATES[outcome]
    bra_S, bra_L = b_S.conjugate(), b_L.conjugate()
    c_LS, c_SL, c_SS, c_LL, _ = state
    if side == "left":
        in_S = bra_S * c_SS + bra_L * c_LS
        in_L = bra_S * c_SL + bra_L * c_LL
        return RefState(b_L * in_S, b_S * in_L, b_S * in_S, b_L * in_L, False)
    in_S = bra_S * c_SS + bra_L * c_SL
    in_L = bra_S * c_LS + bra_L * c_LL
    return RefState(b_S * in_L, b_L * in_S, b_S * in_S, b_L * in_L, False)


def ref_survivor_unitary_side(state, side, dt, k):
    s, l = ref_survivor_moduli(k.delta_gamma * dt)
    f_S = math.sqrt(2.0) * s
    f_L = math.sqrt(2.0) * cmath.exp(-1j * k.delta_m * dt) * l
    c_LS, c_SL, c_SS, c_LL, normalized = state
    if side == "left":
        return RefState(f_L * c_LS, f_S * c_SL, f_S * c_SS, f_L * c_LL,
                        normalized)
    return RefState(f_S * c_LS, f_L * c_SL, f_S * c_SS, f_L * c_LL,
                    normalized)


def ref_delayed_choice_norms(tau_l, tau_r0, p, k):
    phi = ref_normalized_pair(tau_l - tau_r0, k)
    direct = ref_project_side(ref_project_side(phi, "right", p.right),
                              "left", p.left).norm_sq()
    s = ref_project_side(ref_initial_pair(), "right", p.right)
    s = ref_survivor_unitary_side(s, "left", tau_l - tau_r0, k)
    normal = ref_project_side(s, "left", p.left).norm_sq()
    s = ref_project_side(ref_initial_pair(), "left", p.left)
    s = ref_survivor_unitary_side(s, "right", tau_r0 - tau_l, k)
    delayed = ref_project_side(s, "right", p.right).norm_sq()
    return direct, normal, delayed


def _bits(values):
    """repr keeps every bit of a float or complex, the sign of zero included."""
    return repr(tuple(values))


class TestBitIdentityWithReference:
    def test_delayed_choice_norms_on_random_triples(self, k):
        rng = np.random.default_rng(1729)
        n = 20_000
        taus = rng.uniform(0.0, 30.0, size=(n, 2)).tolist()
        for i, (tau_l, tau_r0) in enumerate(taus):
            p = PROJECTORS[i % 16]
            assert _bits(delayed_choice_norms(tau_l, tau_r0, p, k)) == _bits(
                ref_delayed_choice_norms(tau_l, tau_r0, p, k)), (tau_l, tau_r0, p)

    @pytest.mark.parametrize("p", PROJECTORS)
    def test_delayed_choice_norms_at_zero_and_equal_times(self, k, p):
        for tau_l, tau_r0 in [(0.0, 0.0), (0.0, 3.7), (5.2, 0.0), (2.5, 2.5),
                              (17.0, 17.0), (30.0, 30.0)]:
            assert _bits(delayed_choice_norms(tau_l, tau_r0, p, k)) == _bits(
                ref_delayed_choice_norms(tau_l, tau_r0, p, k)), (tau_l, tau_r0)

