"""Bit-level pin of the scalar oracles.

A sha256 over the ``repr`` of every output of the scalar oracles on verify's
own inputs, and of experiment D's 16 channel-pair weights.  The identities verify checks hold to 1e-10..1e-12, so they cannot
tell a reordered floating-point step from the original; this digest can.  A
change that alters any output bit (operation order, types, constants) must
update ``ORACLE_DIGEST`` and say why.  The pinned value was taken with
CPython 3.11 on x86-64 Linux; ``math``/``cmath`` defer to the C library, so
another libm may round differently.
"""

import hashlib
import itertools

import numpy as np

from kaoneraser import (DecayChannel, JointProjector, Outcome,
                        delayed_choice_norms, decay_width, joint_decay_rate,
                        joint_projective_prob, mixed_active_passive_prob,
                        mixed_decay_rate, normalized_pair, passive_joint_prob,
                        passive_single_prob)
from kaoneraser.decay import passive_pair_weights

ORACLE_DIGEST = "d1ed766139ad079282013d5bd65742f9bda5073c08a416403694dc0dcf2473cc"


# the 8 ordered outcome pairs of check_active_passive
PAIRS8 = [(Outcome.K0, Outcome.K0), (Outcome.K0BAR, Outcome.K0BAR),
          (Outcome.K0, Outcome.K0BAR), (Outcome.K0BAR, Outcome.K0),
          (Outcome.K0, Outcome.KS), (Outcome.K0BAR, Outcome.KS),
          (Outcome.K0, Outcome.KL), (Outcome.K0BAR, Outcome.KL)]


def oracle_outputs(k, model):
    """Every scalar-oracle output on verify's inputs, in a fixed order."""
    # delayed_choice_norms on 1000 triples drawn one scalar at a time from
    # verify's seed; check_delayed_choice draws its triples as two arrays,
    # so these are other triples from the same distribution
    rng = np.random.default_rng(20240824)
    outcomes = list(Outcome)
    for _ in range(1000):
        tau_l = float(rng.uniform(0.0, 8.0))
        tau_r0 = float(rng.uniform(0.0, 8.0))
        p = JointProjector(outcomes[rng.integers(4)], outcomes[rng.integers(4)])
        yield delayed_choice_norms(tau_l, tau_r0, p, k)
    # joint_projective_prob, all 16 outcome pairs on check_oracle_grid's grid
    for dt in np.arange(-12.0, 12.0 + 1e-9, 0.25):
        state = normalized_pair(float(dt), k)
        for left, right in itertools.product(Outcome, repeat=2):
            yield joint_projective_prob(state, JointProjector(left, right))
    # passive and mixed joint probabilities on check_active_passive's grid
    grid = (0.0, 1.0, 2.0, 4.0, 8.0)
    for tl, tr in itertools.product(grid, repeat=2):
        for left, right in PAIRS8:
            yield passive_joint_prob(left, tl, right, tr, k, model)
            yield mixed_active_passive_prob(left, tl, right, tr, k, model)
    for tau in np.arange(0.0, 12.0 + 1e-9, 0.5):
        for outcome in Outcome:
            yield passive_single_prob(outcome, float(tau), k, model)
    for channel in DecayChannel:
        yield decay_width(channel, k, model)
    # the rates behind them on the same grids, and D's channel-pair weights
    for tl, tr in itertools.product(grid, repeat=2):
        for f_l, f_r in itertools.product(DecayChannel, repeat=2):
            yield joint_decay_rate(f_l, tl, f_r, tr, k, model)
    for tau in np.arange(0.0, 12.0 + 1e-9, 0.5):
        for channel in DecayChannel:
            # a single kaon's rate: the partner's K0bar at 0
            yield 2.0 * mixed_decay_rate(Outcome.K0BAR, channel, 0.0,
                                         float(tau), k, model)
    yield from passive_pair_weights(k, model).ravel().tolist()
    # far out, where exp of the time difference overflows and the absolute
    # survival of both kaons underflows: the survivor-normalized pair, and
    # the three orderings for all 16 outcome pairs
    for dt in (-2000.0, 2000.0):
        yield normalized_pair(dt, k)
    for tau_l, tau_r0 in ((760.0, 0.0), (2000.0, 1990.0)):
        for left, right in itertools.product(Outcome, repeat=2):
            yield delayed_choice_norms(tau_l, tau_r0,
                                       JointProjector(left, right), k)


def oracle_digest(k, model) -> str:
    h = hashlib.sha256()
    for value in oracle_outputs(k, model):
        h.update(repr(value).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_scalar_oracles_are_bit_identical(k, model):
    assert oracle_digest(k, model) == ORACLE_DIGEST
