"""Neutral kaon basics: constants, the single-kaon eigenstates and the
survivor norm of a pair.

All times are measured in units of the K_S mean lifetime tau_S, so gamma_S = 1
by default and every other scale is a ratio.  The strangeness basis is fixed by
the convention K0 = (K_S + K_L)/sqrt(2), K0bar = (K_S - K_L)/sqrt(2), used
consistently throughout the package.

Floats and arrays.  Each formula has one implementation, which takes its
times as floats or as numpy arrays; the functions it calls (exp, cos, sqrt)
come from its last argument ``m``, ``FloatMath`` (``math`` and
``cmath``) or ``ArrayMath`` (numpy).  A public oracle of ``pairs`` or
``decay`` is called without ``m`` and picks it by
``isinstance(time, numpy.ndarray)``, a test ``check_times`` (or
``check_time_difference``, for a time difference of either sign) makes as
it checks the times: a float, or a numpy scalar, stays on ``math``/``cmath``
and keeps its bits, and arrays go through ``on_arrays``, which runs the same
code on numpy under an error state that raises, so an array fails with an
ArithmeticError wherever one of its elements would fail as a float, never
with an inf, NaN or 0 and a warning.  Given ``m``, an oracle is a step of
another one, which has checked the times.  The single-kaon oracles
``pairs.strangeness_probs`` and ``decay.passive_single_prob`` take no ``m``:
each checks its time and calls a pair oracle with the partner at tau = 0.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

_SQRT2 = math.sqrt(2.0)


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def finite_number(name: str, value) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a finite
    real number (booleans and strings are not numbers)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def lookup(table, key, message: str):
    """``table[key]``; ValueError ``message.format(key)`` for a key the table
    lacks or cannot hash.  Every caller-given name is looked up here."""
    try:
        return table[key]
    except (KeyError, TypeError):
        raise ValueError(message.format(key)) from None


def _unique_keys(pairs) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate JSON key {key!r}")
        doc[key] = value
    return doc


def load_json(text: str):
    """``json.loads`` that rejects an object holding a key twice, naming it."""
    return json.loads(text, object_pairs_hook=_unique_keys)


# The two namespaces of functions a formula calls.  They are classes, never
# instantiated, because the interpreter looks up a class attribute as fast
# as a module's, and an instance's or a SimpleNamespace's more slowly.

class FloatMath:
    exp, cexp, sqrt, cos = math.exp, cmath.exp, math.sqrt, math.cos


class ArrayMath:
    exp = cexp = np.exp
    cos, sqrt = np.cos, np.sqrt


def on_arrays(oracle, *args):
    """``oracle(*args)`` on ``ArrayMath``, raising FloatingPointError on
    overflow, division by zero and invalid values."""
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        return oracle(*args, m=ArrayMath)


def check_times(what: str, tau, tau_r=None) -> bool:
    """ValueError ``"<what> must be finite and nonnegative, got ..."`` unless
    ``tau`` (and ``tau_r``, if given) are; for arrays of times the test is
    elementwise and the message gives the times at the first bad index.
    Returns whether either time is an array, the test by which an oracle
    picks its path."""
    # the common case first: float times (numpy's float64 is a float)
    if (isinstance(tau, float) and 0.0 <= tau < math.inf
            and (tau_r is None
                 or isinstance(tau_r, float) and 0.0 <= tau_r < math.inf)):
        return False
    times = (tau,) if tau_r is None else (tau, tau_r)
    ok = True
    for t in times:
        ok = ok & (0.0 <= t) & (t < math.inf)
    return _checked(what, "finite and nonnegative", times, ok)


def check_time_difference(what: str, delta_tau) -> bool:
    """``check_times`` for a time difference, which may take either sign:
    ValueError ``"<what> must be finite, got ..."`` unless it is finite."""
    if isinstance(delta_tau, float) and -math.inf < delta_tau < math.inf:
        return False
    return _checked(what, "finite", (delta_tau,),
                    (-math.inf < delta_tau) & (delta_tau < math.inf))


def _checked(what: str, rule: str, times: tuple, ok) -> bool:
    """Whether a time is an array, given ``ok``, the elementwise test of the
    times; ValueError naming ``what``, ``rule`` and the times at the first
    bad index unless ``ok`` holds everywhere."""
    # a bool for Python numbers, a numpy bool for numpy scalars, an array
    # for arrays
    if ok is True or ok is not False and ok.all():
        return (isinstance(times[0], np.ndarray)
                or isinstance(times[-1], np.ndarray))
    at = ""
    if ok is not False and ok.ndim:
        i = np.unravel_index(ok.argmin(), ok.shape)
        # no comprehension: one would make i a cell, which every call pays
        times = np.stack(np.broadcast_arrays(*times))[(slice(None), *i)]
        times = times.tolist()
        at = f" at index {', '.join(map(str, i))}"
    raise ValueError(f"{what} must be {rule}, got "
                     f"{' and '.join(map(repr, times))}{at}")


class Observable(Enum):
    STRANGENESS = "strangeness"
    LIFETIME = "lifetime"


class Outcome(Enum):
    K0 = "K0"
    K0BAR = "K0bar"
    KS = "KS"
    KL = "KL"

    # members are singletons compared by identity, so the C identity hash
    # agrees with equality and spares every dict lookup Enum's Python-level
    # hash of the name
    __hash__ = object.__hash__

    @property
    def observable(self) -> Observable:
        if self in (Outcome.K0, Outcome.K0BAR):
            return Observable.STRANGENESS
        return Observable.LIFETIME


class Procedure(Enum):
    ACTIVE = "active"
    PASSIVE = "passive"


@dataclass(frozen=True)
class PhysicalConstants:
    """Widths, mass difference and branching ratios of the neutral kaon system.

    ``gamma_S`` is in units of 1/tau_S, ``delta_m`` in hbar/tau_S.  Each
    eigenstate's nonleptonic branching ratio is the complement of its
    semileptonic one: ``br_3pi_L`` for K_L, and 1 - br_sl_S for K_S's two
    pions, which no formula reads (the amplitude model saturates Gamma_S).
    """

    gamma_S: float = 1.0
    gamma_L: float = 1.0 / 579.0
    delta_m: float = 0.4737
    br_sl_L: float = 0.66
    br_sl_S: float = 1.1e-3

    def __post_init__(self):
        for f in fields(self):
            finite_number(f"constants field {f.name!r}", getattr(self, f.name))
        if not (self.gamma_S > self.gamma_L > 0.0):
            raise ValueError("need gamma_S > gamma_L > 0")
        for name in ("br_sl_L", "br_sl_S"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    @property
    def br_3pi_L(self) -> float:
        return 1.0 - self.br_sl_L

    @property
    def delta_gamma(self) -> float:
        """Gamma_L - Gamma_S (negative for kaons)."""
        return self.gamma_L - self.gamma_S

    @property
    def gamma_mean(self) -> float:
        return 0.5 * (self.gamma_S + self.gamma_L)

    def semileptonic_width_mismatch(self) -> float:
        """Relative disagreement of br_sl_L*Gamma_L vs br_sl_S*Gamma_S.

        The Delta-S = Delta-Q rule makes both products equal to the
        semileptonic partial width of either strangeness eigenstate; with the
        measured defaults they agree to about 4 percent.  Two zero widths
        agree exactly.
        """
        wl = self.br_sl_L * self.gamma_L
        ws = self.br_sl_S * self.gamma_S
        if wl == ws == 0.0:
            return 0.0
        return abs(wl - ws) / max(wl, ws)

    @classmethod
    def from_json(cls, doc: dict) -> "PhysicalConstants":
        """Build constants from a parsed JSON object; missing fields take
        defaults."""
        if not isinstance(doc, dict):
            raise ValueError(f"constants must be a JSON object, got {doc!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown constants field(s): {sorted(unknown)}")
        return cls(**doc)


#: Each outcome's eigenstate as its real amplitudes (c_S, c_L) on |K_S> and
#: |K_L>.
EIGENSTATES = {
    Outcome.K0: (1.0 / _SQRT2, 1.0 / _SQRT2),
    Outcome.K0BAR: (1.0 / _SQRT2, -1.0 / _SQRT2),
    Outcome.KS: (1.0, 0.0),
    Outcome.KL: (0.0, 1.0),
}


def pair_beam_norm(tau_l: float, tau_r: float, k: PhysicalConstants,
                   m=None) -> float:
    """Two-beam survivor normalization N(tau_l, tau_r) = [exp(-G_L tau_l -
    G_S tau_r) + exp(-G_S tau_l - G_L tau_r)]/2, the chance that both kaons
    survive; at tau_r = 0, that a single kaon born as K0 or K0bar survives."""
    if m is None and check_times("times", tau_l, tau_r):
        return on_arrays(pair_beam_norm, tau_l, tau_r, k)
    m = m or FloatMath
    return 0.5 * (m.exp(-k.gamma_L * tau_l - k.gamma_S * tau_r)
                  + m.exp(-k.gamma_S * tau_l - k.gamma_L * tau_r))
