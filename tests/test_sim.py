"""Monte Carlo generators, estimators and the event-file round trip.

Statistical assertions use 4-sigma bands on moderate sample sizes with pinned
seeds, so they are deterministic in practice.
"""

import hashlib
import math
import os
import statistics
import sys
import threading

import numpy as np
import pytest

from conftest import free_propagation
from kaoneraser import (CHANNEL_OUTCOME, EIGENSTATES, Binning, DecayChannel,
                        Estimate, EventSet, ExperimentKind, FitRow,
                        Observable, Outcome, Procedure, SimConfig,
                        closed_form_joint, estimate_probs, fit_visibility,
                        mixed_active_passive_prob, normalized_pair,
                        pair_visibility, read_events, run_experiment,
                        write_events)
from kaoneraser import eventfile, pairs, sim
from kaoneraser.decay import CHANNEL_BY_CODE, passive_pair_weights
from kaoneraser.estimate import CountTable
from kaoneraser.sim import (OUTCOME_BY_CODE, RECORDS, _channel_tables,
                            _count_below, _sample_left_after_right_decay,
                            classify_lifetime, left_after_right_decay)

# (procedure, observable, outcome, channel) codes of each record code, as the
# event store held them before record codes (procedure 0 active, 1 passive;
# observable 0 strangeness, 1 lifetime; outcome and channel codes as
# OUTCOME_BY_CODE and CHANNEL_BY_CODE, -1 for none).  Written out, not taken
# from sim.RECORDS, so that the tests below check the records' meaning.
_FIELD_CODES = np.array([(0, 0, -1, -1),
                         (0, 0, 0, -1), (0, 0, 1, -1), (0, 1, 2, -1), (0, 1, 3, -1),
                         (1, 1, 2, 0), (1, 1, 3, 1), (1, 0, 0, 2), (1, 0, 1, 3)],
                        dtype=np.int8)


def _fields(ev, side):
    """(procedure, observable, outcome, channel) code columns of one side."""
    return tuple(_FIELD_CODES[getattr(ev, side + "rec")].T)


def _cfg(**kw):
    kw.setdefault("n_pairs", 20000)
    kw.setdefault("seed", 12345)
    return SimConfig(**kw)


def _binomial_band(p, n, sigmas=4.0):
    return sigmas * math.sqrt(p * (1.0 - p) / n)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_pairs=0)
        with pytest.raises(ValueError):
            SimConfig(n_pairs=10, partitions=0)
        with pytest.raises(ValueError):
            SimConfig(n_pairs=10, tau_r0=-1.0)
        with pytest.raises(ValueError):
            SimConfig(n_pairs=10, tau_l_grid=(1.0, -2.0))
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SimConfig(n_pairs=10, seed=-5)
        with pytest.raises(ValueError, match="tau_r0 must be a finite number"):
            SimConfig(n_pairs=10, tau_r0=math.nan)
        with pytest.raises(ValueError, match="tau_l_grid must be a finite number"):
            SimConfig(n_pairs=10, tau_l_grid=(1.0, math.inf))
        with pytest.raises(ValueError, match="n_pairs must be at most"):
            SimConfig(n_pairs=np.iinfo(np.intp).max + 1)

    @pytest.mark.parametrize("field", ["n_pairs", "seed", "partitions"])
    @pytest.mark.parametrize("bad", [1.5, 10.0, True, "10", None])
    def test_integer_fields_must_be_integers(self, field, bad):
        """A float, even an integral one, a bool, a string or None is refused
        by field name when the config is built, not deep in a run."""
        with pytest.raises(ValueError) as err:
            SimConfig(**{"n_pairs": 10, field: bad})
        assert str(err.value) == f"{field} must be an integer, got {bad!r}"

    @pytest.mark.parametrize("grid", [5, np.float64(2.0), np.array([1.0, 2.0])],
                             ids=["int", "numpy-scalar", "array"])
    def test_grid_must_be_a_list_or_tuple(self, grid):
        """Not a TypeError or numpy's ambiguous truth value: a ValueError
        naming the field."""
        with pytest.raises(ValueError) as err:
            SimConfig(n_pairs=10, tau_l_grid=grid)
        assert str(err.value) == ("tau_l_grid must be a nonempty list or tuple "
                                  f"of nonnegative numbers, got {grid!r}")

    def test_integer_fields_take_numpy_integers(self, k, model):
        cfg = SimConfig(n_pairs=np.int64(10), seed=np.int64(7),
                        partitions=np.int32(2))
        assert len(run_experiment("D", cfg, k, model)) == 10

    def test_pair_count_defaults_to_ten_thousand(self):
        assert SimConfig(seed=1).n_pairs == 10_000

    def test_default_grid_brackets_tau_r0(self):
        grid = SimConfig(n_pairs=1).tau_l_grid
        assert min(grid) < 4.8 < max(grid)
        assert 4.8 in grid


_ACTIVE_KS = (Procedure.ACTIVE, Outcome.KS, None)
_ACTIVE_KL = (Procedure.ACTIVE, Outcome.KL, None)


class TestClassifyLifetime:
    def test_window_rule(self):
        w = 4.8
        assert RECORDS[classify_lifetime(5.0, 1.0, w)] == _ACTIVE_KS
        assert RECORDS[classify_lifetime(5.81, 1.0, w)] == _ACTIVE_KL
        assert RECORDS[classify_lifetime(1.0 + 4.8, 1.0, w)] == _ACTIVE_KS

    def test_arrays_give_outcome_codes(self):
        """Each outcome as the record code of its active measurement."""
        codes = classify_lifetime(np.array([0.0, 4.8, 4.81]), 0.0, 4.8)
        assert codes.dtype == np.int8
        assert [RECORDS[c] for c in codes] == [_ACTIVE_KS, _ACTIVE_KS, _ACTIVE_KL]


class TestDeterminism:
    @pytest.mark.parametrize("kind", ExperimentKind.ALL)
    def test_same_seed_same_events(self, k, model, kind):
        cfg = _cfg(n_pairs=2000)
        a = run_experiment(kind, cfg, k, model)
        b = run_experiment(kind, cfg, k, model)
        for col in EventSet._COLS:
            np.testing.assert_array_equal(getattr(a, col), getattr(b, col))

    def test_different_seeds_differ(self, k, model):
        a = run_experiment("D", _cfg(n_pairs=2000, seed=1), k, model)
        b = run_experiment("D", _cfg(n_pairs=2000, seed=2), k, model)
        assert not np.array_equal(a.r_time, b.r_time)

    def test_partitioned_run_reproducible(self, k, model):
        cfg = _cfg(n_pairs=3001, partitions=4)
        a = run_experiment("D", cfg, k, model)
        b = run_experiment("D", cfg, k, model)
        assert len(a) == 3001
        np.testing.assert_array_equal(a.l_time, b.l_time)

    def test_unknown_kind(self, k, model):
        """An unknown or unhashable kind is refused by name."""
        for bad in ("X", None, ["A1"]):
            with pytest.raises(ValueError) as err:
                run_experiment(bad, _cfg(), k, model)
            assert str(err.value) == f"unknown experiment kind {bad!r}"


# sha256 over the concatenated run_experiment columns, in the order
# (l_proc, l_obs, l_out, l_time, l_chan, r_proc, r_obs, r_out, r_time, r_chan)
# of the ten-column store the record codes replaced (see _digest), at 50 000 pairs, partitions=4, seed 20040212; recorded before the
# generators moved to real arithmetic and grid tables.  The 400-pair golden
# event files are too small to catch a rare flipped outcome.
_PINNED_DIGESTS = {
    "A1": "75722a76f71c50e64a49a35ce22fdacccf095f07d2e7e5aea575b613fa8475f1",
    "A2": "01d745c1f7eb2d04b933e250c5983a4f69a5574592a32a1fff54ce50a0de9451",
    "B": "385caba1f50438a179f532ea0681de202804663d54a031730a69e0208d32dab1",
    "C": "44313bac2ddf5a548c2d96ac08947e82c61280151c7012b32687f1bf89bbe8cc",
    "D": "c7b6ca5672013158fd6e03396096594d3e8ba494d1e80db19b58091f64cc8e7d",
}


# The same digests at 100 003 pairs, partitions=3: ragged partitions of
# 33 335/33 334/33 334 pairs, each several blocks of the left-kaon kernel;
# recorded before the generators were cache-blocked.
_PINNED_MULTIBLOCK_DIGESTS = {
    "A1": "73e4f8721f7e657c03dd7bd32885eec02f48a85a635ac9aae89bffd079be1c04",
    "A2": "9f0a92d9679386285aa1b0739eeaf32eed3a46bd62ee9e508fbced3ffc4ece31",
    "B": "90901da068b4b5cd8ca17cf912613f5f7cc277e62fa0756334142e266f960266",
    "C": "a5c192e3a33d92b1bf7c67a9b13925eef4c14dcee3c720d006b5192103080613",
    "D": "79ef429ca15665ab22689805da0c25588f3ff94b4424ea49019a4e19e92c465f",
}


# sha256 over repr((bin, pair, count, n, p_hat, stderr)) of each
# estimate_probs row, for the runs of _PINNED_MULTIBLOCK_DIGESTS; recorded
# before the estimator gathered columns by index.
_PINNED_ESTIMATE_DIGESTS = {
    "A1": "8087e706e46f10af35780451f968fd94802b8d3cfcbc7b114ad896fc4fd242d5",
    "A2": "53963745bd89a9a7ead653fd6a999197144834a199800636cf51791c3f5364d4",
    "B": "331f0f6ff62b073a562442ee814b36bd49d3479a8ad3917ca16e47b00dbd0226",
    "C": "e8b30a42758044c0380116e2cc79d6565445f2cbcdae6a92f39983b9a39214b2",
    "D": "fba2d26b7c48822fda8a4ed926262b4ee2b2cb6481bee6baa40fc47c9276716e",
}


def _digest(ev):
    """The digest of the ten columns each record code expands to."""
    h = hashlib.sha256()
    for side in ("l_", "r_"):
        proc, obs, out, chan = _fields(ev, side)
        for col in (proc, obs, out, getattr(ev, side + "time"), chan):
            h.update(np.ascontiguousarray(col).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind", ExperimentKind.ALL)
def test_pinned_event_digest(k, model, kind):
    ev = run_experiment(kind, SimConfig(n_pairs=50000, seed=20040212,
                                        partitions=4), k, model)
    assert _digest(ev) == _PINNED_DIGESTS[kind]


@pytest.mark.parametrize("kind", ExperimentKind.ALL)
def test_pinned_multiblock_event_digest(k, model, kind):
    ev = run_experiment(kind, SimConfig(n_pairs=100003, seed=20040212,
                                        partitions=3), k, model)
    assert _digest(ev) == _PINNED_MULTIBLOCK_DIGESTS[kind]


@pytest.mark.parametrize("kind", ExperimentKind.ALL)
def test_pinned_multiblock_estimate_digest(k, model, kind):
    ev = run_experiment(kind, SimConfig(n_pairs=100003, seed=20040212,
                                        partitions=3), k, model)
    h = hashlib.sha256()
    for e in estimate_probs(ev):
        h.update(repr((e.bin, e.pair, e.count, e.n, e.p_hat, e.stderr)).encode())
    assert h.hexdigest() == _PINNED_ESTIMATE_DIGESTS[kind]


class TestConcurrentPartitions:
    """run_experiment fills partitions on min(partitions, CPUs) workers; the
    CPU count is patched so that the helper threads run on any host.  The
    helpers are a thread pool's, which may hand a second share to a thread
    that has gone idle, so their count is bounded, not exact."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("kind", ExperimentKind.ALL)
    def test_pinned_digests_at_any_cpu_count(self, k, model, monkeypatch,
                                             kind, cpus):
        monkeypatch.setattr(sim, "usable_cpus", lambda: cpus)
        ev = run_experiment(kind, SimConfig(n_pairs=50000, seed=20040212,
                                            partitions=4), k, model)
        assert _digest(ev) == _PINNED_DIGESTS[kind]
        ev = run_experiment(kind, SimConfig(n_pairs=100003, seed=20040212,
                                            partitions=3), k, model)
        assert _digest(ev) == _PINNED_MULTIBLOCK_DIGESTS[kind]

    @pytest.mark.parametrize("kind", ExperimentKind.ALL)
    def test_bytes_independent_of_cpu_count(self, k, model, monkeypatch, kind):
        """Seven partitions on one to three workers, switching threads every
        microsecond: a partition writing outside its slice would show."""
        digests = set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 3):
                monkeypatch.setattr(sim, "usable_cpus", lambda: cpus)
                digests.add(_digest(run_experiment(
                    kind, _cfg(n_pairs=70001, partitions=7), k, model)))
        finally:
            sys.setswitchinterval(interval)
        assert len(digests) == 1

    @staticmethod
    def _count_thread_starts(monkeypatch):
        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", CountingThread)
        return started

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("bad", [1, 0], ids=["helper", "caller"])
    def test_partition_error_is_raised_and_no_thread_outlives(
            self, k, model, monkeypatch, cpus, bad):
        """Partition 0 is the calling thread's, partition 1 a helper's."""
        monkeypatch.setattr(sim, "usable_cpus", lambda: cpus)
        a1 = sim._GENERATORS["A1"]

        def failing(n, rng, *args):
            if rng.bit_generator.seed_seq.spawn_key == (bad,):
                raise ArithmeticError(f"partition {bad}")
            a1(n, rng, *args)

        monkeypatch.setitem(sim._GENERATORS, "A1", failing)
        started = self._count_thread_starts(monkeypatch)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match=f"^partition {bad}$"):
            run_experiment("A1", _cfg(n_pairs=4000, partitions=4), k, model)
        assert threading.active_count() == before
        assert 1 <= len(started) <= cpus - 1
        assert not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("kind", ExperimentKind.ALL)
    def test_empty_partitions_are_not_visited(self, k, model, monkeypatch, kind):
        """Past the first n_pairs partitions every partition is empty: only
        the filled ones call the generator, and the bytes are those of
        n_pairs partitions."""
        gen, sizes = sim._GENERATORS[kind], []

        def counting(n, *args):
            sizes.append(n)
            gen(n, *args)

        monkeypatch.setitem(sim._GENERATORS, kind, counting)
        many = run_experiment(kind, _cfg(n_pairs=7, partitions=1000), k, model)
        assert sizes == [1] * 7
        assert _digest(many) == _digest(
            run_experiment(kind, _cfg(n_pairs=7, partitions=7), k, model))

    def test_one_partition_starts_no_thread(self, k, model, monkeypatch):
        monkeypatch.setattr(sim, "usable_cpus", lambda: 3)
        started = self._count_thread_starts(monkeypatch)
        run_experiment("B", _cfg(n_pairs=4000, partitions=1), k, model)
        assert started == []

    def test_helpers_bounded_by_cpu_count(self, k, model, monkeypatch):
        monkeypatch.setattr(sim, "usable_cpus", lambda: 3)
        started = self._count_thread_starts(monkeypatch)
        before = threading.active_count()
        run_experiment("C", _cfg(n_pairs=6400, partitions=64), k, model)
        assert 1 <= len(started) <= 2
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="eventfile forks")
    def test_event_writes_may_fork_right_after_a_concurrent_run(
            self, k, model, monkeypatch):
        """The CLI writes its events right after it generates them, and the
        writer forks only while no other Python thread runs: every helper
        has ended by then."""
        monkeypatch.setattr(sim, "usable_cpus", lambda: 4)
        monkeypatch.setattr(eventfile, "usable_cpus", lambda: 4)
        started = self._count_thread_starts(monkeypatch)
        run_experiment("A2", _cfg(n_pairs=4000, partitions=4), k, model)
        assert started
        assert eventfile._workers(4, 1) > 1


class TestOneWritePerElement:
    """run_experiment allocates its columns with np.empty, so each generator
    must write every element of its slices, and none outside them."""

    # an odd partition of three left-kaon kernel blocks, and a tiny one
    @pytest.mark.parametrize("n", [2 * sim._BLOCK + 1, 7])
    @pytest.mark.parametrize("kind", ExperimentKind.ALL)
    def test_generators_overwrite_poisoned_columns(self, k, model, kind, n):
        cfg = _cfg(n_pairs=n)
        full = {}
        for side in ("l_", "r_"):
            full[side + "rec"] = np.full(n + 2, 99, dtype=np.int8)
            full[side + "time"] = np.full(n + 2, -1.0)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                           spawn_key=(0,)))
        sim._GENERATORS[kind](n, rng, cfg, k, model,
                              {col: v[1:n + 1] for col, v in full.items()})
        ev = run_experiment(kind, cfg, k, model)
        for col, v in full.items():
            poison = v[0]
            assert v[-1] == poison
            assert not np.any(v[1:n + 1] == poison), col
            np.testing.assert_array_equal(v[1:n + 1], getattr(ev, col))
        for side in ("l_", "r_"):
            # a discarded side, and only it, has code 0 and time NaN
            discarded = getattr(ev, side + "rec") == 0
            np.testing.assert_array_equal(np.isnan(getattr(ev, side + "time")),
                                          discarded)


class TestExperimentInvariants:
    def test_d_never_discards(self, k, model):
        ev = run_experiment("D", _cfg(n_pairs=1000), k, model)
        assert len(ev) == 1000
        assert ev.n_discarded == 0
        l_chan, r_chan = _fields(ev, "l_")[3], _fields(ev, "r_")[3]
        assert np.all(l_chan >= 0) and np.all(r_chan >= 0)

    def test_a1_all_active_strangeness(self, k, model):
        ev = run_experiment("A1", _cfg(), k, model)
        keep = ev.classified
        l_proc, l_obs, l_out, _ = _fields(ev, "l_")
        r_proc, r_obs, r_out, _ = _fields(ev, "r_")
        assert np.all(l_proc[keep] == 0) and np.all(r_proc[keep] == 0)
        assert np.all(l_obs[keep] == 0) and np.all(r_obs[keep] == 0)
        assert np.all(l_out[keep] <= 1) and np.all(r_out[keep] <= 1)
        assert np.all(ev.r_time[keep] == 4.8)

    def test_c_right_side_passive(self, k, model):
        ev = run_experiment("C", _cfg(), k, model)
        r_proc, _, r_out, r_chan = _fields(ev, "r_")
        assert np.all(r_proc == 1)
        assert np.all(r_out >= 0)
        assert np.all(r_chan >= 0)

    def test_b_half_split(self, k, model):
        ev = run_experiment("B", _cfg(n_pairs=50000), k, model)
        pre = np.mean(_fields(ev, "r_")[1] == 1)
        assert abs(pre - 0.5) < _binomial_band(0.5, 50000)


class TestAgainstClosedForms:
    def test_a1_unlike_fraction_tracks_oscillation(self, k, model):
        cfg = _cfg(n_pairs=400000, tau_l_grid=(4.8, 6.8), seed=99)
        ev = run_experiment("A1", cfg, k, model)
        keep = ev.classified
        l_out, r_out = _fields(ev, "l_")[2], _fields(ev, "r_")[2]
        for tau_l in cfg.tau_l_grid:
            sel = keep & (ev.l_time == tau_l)
            n = int(sel.sum())
            unlike = np.mean(l_out[sel] != r_out[sel])
            dt = tau_l - cfg.tau_r0
            want = 2.0 * closed_form_joint("ss_unlike", dt, k)
            assert abs(unlike - want) <= _binomial_band(want, n) + 1e-12

    def test_a1_like_vanishes_at_equal_times(self, k, model):
        cfg = _cfg(n_pairs=100000, tau_l_grid=(4.8,))
        ev = run_experiment("A1", cfg, k, model)
        keep = ev.classified
        assert keep.sum() > 0
        assert np.all(_fields(ev, "l_")[2][keep] != _fields(ev, "r_")[2][keep])

    def test_c_left_marginal_is_even(self, k, model):
        """Ignoring the right decay mode, the left strangeness is 50/50."""
        ev = run_experiment("C", _cfg(n_pairs=200000), k, model)
        sel = ev.classified
        n = int(sel.sum())
        frac = np.mean(_fields(ev, "l_")[2][sel] == 0)
        assert abs(frac - 0.5) < _binomial_band(0.5, n)

    def test_d_joint_channel_weights(self, k, model):
        """Empirical channel-pair frequencies match the analytic weights."""
        ev = run_experiment("D", _cfg(n_pairs=200000), k, model)
        w = passive_pair_weights(k, model)
        assert w.sum() == pytest.approx(1.0, rel=1e-10)
        l_chan, r_chan = _fields(ev, "l_")[3], _fields(ev, "r_")[3]
        code = l_chan.astype(int) * 4 + r_chan.astype(int)
        counts = np.bincount(code, minlength=16)
        for c in range(16):
            p = w.reshape(-1)[c]
            band = _binomial_band(p, len(ev)) if p > 0 else 0.0
            assert abs(counts[c] / len(ev) - p) <= band + 1e-12

    def test_d_decay_time_density(self, k, model):
        """Empirical mean decay times per channel pair agree with the density;
        checked for the dominant (2pi, 3pi) component."""
        ev = run_experiment("D", _cfg(n_pairs=200000), k, model)
        l_chan, r_chan = _fields(ev, "l_")[3], _fields(ev, "r_")[3]
        sel = (l_chan == 0) & (r_chan == 1)  # left 2pi, right 3pi
        # left decays as K_S, right as K_L
        n = int(sel.sum())
        assert abs(ev.l_time[sel].mean() - 1.0 / k.gamma_S) < 4.0 / math.sqrt(n)
        assert abs(ev.r_time[sel].mean() - 1.0 / k.gamma_L) < 4.0 * 579 / math.sqrt(n)


def active_measure_and_collapse(c, side, observable, rng):
    """Sample one side's marginal outcome and collapse the pair amplitudes.

    ``c`` is a normalized (LS, SL, SS, LL) tuple at the measurement times;
    the returned tuple is normalized and ready for the partner's measurement.
    """
    project = pairs._project_left if side == "left" else pairs._project_right
    if observable is Observable.STRANGENESS:
        outcomes = (Outcome.K0, Outcome.K0BAR)
    else:
        outcomes = (Outcome.KS, Outcome.KL)
    projected = [project(c, EIGENSTATES[o]) for o in outcomes]
    probs = [pairs._norm_sq(s) for s in projected]
    pick = 0 if rng.random() * (probs[0] + probs[1]) < probs[0] else 1
    norm = math.sqrt(probs[pick])
    return outcomes[pick], tuple(a / norm for a in projected[pick])


def _amplitudes(dt, k):
    state = normalized_pair(dt, k)
    return state.c_LS, state.c_SL, 0.0, 0.0


class TestActiveCollapse:
    def test_marginals_match_closed_forms(self, k):
        rng = np.random.default_rng(7)
        c = _amplitudes(1.5, k)
        n = 20000
        hits = 0
        for _ in range(n):
            out, post = active_measure_and_collapse(
                c, "left", Observable.STRANGENESS, rng)
            hits += out is Outcome.K0
            assert pairs._norm_sq(post) == pytest.approx(1.0, rel=1e-12)
        # P(K0 left) = ss_like + ss_unlike = 1/2
        want = closed_form_joint("ss_like", 1.5, k) + closed_form_joint(
            "ss_unlike", 1.5, k)
        assert want == pytest.approx(0.5, rel=1e-12)
        assert abs(hits / n - want) < _binomial_band(want, n)

    def test_sequential_collapse_reproduces_joint(self, k):
        """Measure left then right on the collapsed state; the joint frequency
        matches the two-sided closed form."""
        rng = np.random.default_rng(11)
        dt = 1.0
        c = _amplitudes(dt, k)
        n = 20000
        joint = 0
        for _ in range(n):
            out_l, post = active_measure_and_collapse(
                c, "left", Observable.STRANGENESS, rng)
            out_r, _ = active_measure_and_collapse(
                post, "right", Observable.STRANGENESS, rng)
            joint += (out_l is Outcome.K0) and (out_r is Outcome.K0BAR)
        want = closed_form_joint("ss_unlike", dt, k)
        assert abs(joint / n - want) < _binomial_band(want, n)


class TestLeftAfterRightDecay:
    """The real-arithmetic kernel against the complex scalar oracles."""

    GRID = np.array([0.0, 0.3, 1.0, 4.8, 7.3, 12.8])

    @pytest.mark.parametrize("code", range(4))
    @pytest.mark.parametrize("t_r", [0.0, 0.2, 1.0, 4.8, 9.5, 40.0])
    def test_matches_oracles(self, k, model, code, t_r):
        ch = CHANNEL_BY_CODE[code]
        m = len(self.GRID)
        p_survive, p_k0 = left_after_right_decay(
            np.full(m, code, dtype=np.int8), np.full(m, t_r), self.GRID,
            np.arange(m), k, model)
        f_S, f_L = free_propagation(t_r, k)
        c_S = -model.a_L[code] * f_L / math.sqrt(2.0)
        c_L = model.a_S[code] * f_S / math.sqrt(2.0)
        for i, tau_l in enumerate(self.GRID):
            tau_l = float(tau_l)
            p = [mixed_active_passive_prob(o, tau_l, CHANNEL_OUTCOME[ch], t_r,
                                           k, model)
                 for o in (Outcome.K0, Outcome.K0BAR)]
            assert p_k0[i] == pytest.approx(p[0] / (p[0] + p[1]), rel=1e-12)
            g_S, g_L = free_propagation(tau_l, k)
            survivors = ((abs(c_S * g_S) ** 2 + abs(c_L * g_L) ** 2)
                         / (abs(c_S) ** 2 + abs(c_L) ** 2))
            assert p_survive[i] == pytest.approx(survivors, rel=1e-12)

    @pytest.mark.parametrize("code", range(4))
    def test_cosine_skip_is_exact(self, k, model, code):
        """Bitwise equal to the formula with the cosine evaluated everywhere,
        for t_r in [0, 5000] and densely where the skip switches on."""
        grid = np.asarray(SimConfig(n_pairs=1).tau_l_grid)
        # semileptonic channels: |2 bs bl| / (bs^2 + bl^2) falls below 2^-55
        # once (G_S - G_L)(t_r - tau_l)/2 passes 56 ln 2
        onset = 112.0 * math.log(2.0) / (k.gamma_S - k.gamma_L)
        dense = np.arange(onset + grid.min() - 2.0, onset + grid.max() + 2.0, 1e-3)
        per_tau_l = np.concatenate([np.linspace(0.0, 5000.0, 5001), dense])
        ig = np.repeat(np.arange(len(grid)), len(per_tau_l))
        t_r = np.tile(per_tau_l, len(grid))
        chan = np.full(len(t_r), code, dtype=np.int8)
        p_survive, p_k0 = left_after_right_decay(chan, t_r, grid, ig, k, model)
        # a 2pi decay late enough for e^{-G_S t_r} to underflow leaves 0/0
        with np.errstate(invalid="ignore"):
            ref_survive, ref_k0 = _full_cosine_kernel(chan, t_r, grid, ig, k, model)
        np.testing.assert_array_equal(p_k0.view(np.uint64), ref_k0.view(np.uint64))
        np.testing.assert_array_equal(p_survive.view(np.uint64),
                                      ref_survive.view(np.uint64))
        if CHANNEL_OUTCOME[CHANNEL_BY_CODE[code]].observable is Observable.STRANGENESS:
            near = ref_k0.reshape(len(grid), -1)[:, -len(dense):]
            assert np.any(near == 0.5) and np.any(near != 0.5)

    def test_underflowed_partner_is_discarded_silently(self, k, model):
        """A 2pi decay at t_r = 2000 underflows both left amplitudes (0/0);
        under the suite's warnings-as-errors the kernel stays silent and the
        pair is never alive."""
        grid = np.asarray(SimConfig(n_pairs=1).tau_l_grid)
        n = len(grid)
        chan = np.full(n, CHANNEL_BY_CODE.index(DecayChannel.TWO_PI), dtype=np.int8)
        t_r = np.full(n, 2000.0)
        ig = np.arange(n)
        p_survive, _ = left_after_right_decay(chan, t_r, grid, ig, k, model)
        assert np.all(np.isnan(p_survive))
        alive, _ = _sample_left_after_right_decay(chan, t_r, grid, ig, k, model,
                                                  np.random.default_rng(3))
        assert not alive.any()


def _full_cosine_kernel(chan, t_r, grid, ig, k, model):
    """left_after_right_decay as it was before the cosine skip: np.cos is
    evaluated for every pair."""
    a_s, a_l = np.asarray(model.a_S), np.asarray(model.a_L)
    r_s = -a_l[chan] * np.exp(-0.5 * k.gamma_L * t_r) / math.sqrt(2.0)
    r_l = a_s[chan] * np.exp(-0.5 * k.gamma_S * t_r) / math.sqrt(2.0)
    bs = r_s * np.exp(-0.5 * k.gamma_S * grid)[ig]
    bl = r_l * np.exp(-0.5 * k.gamma_L * grid)[ig]
    n2_after = bs * bs + bl * bl
    p_survive = n2_after / (r_s * r_s + r_l * r_l)
    p_k0 = ((n2_after + 2.0 * bs * bl * np.cos(k.delta_m * (grid[ig] - t_r)))
            / (2.0 * n2_after))
    return p_survive, p_k0


def _default_cdfs(k, model):
    """The channel CDFs the generators build from the default constants: a
    free K_S, a free K_L, and D's 16 ordered channel pairs."""
    p_s, p_l = _channel_tables(model, k)
    flat = passive_pair_weights(k, model).reshape(-1)
    return {"K_S": np.cumsum(p_s), "K_L": np.cumsum(p_l),
            "D": np.cumsum(flat) / flat.sum()}


class TestCountBelow:
    def test_forced_tail_draw(self, k, model):
        # the largest uniform draw lies above D's last entry,
        # 0.9999999999999998, where np.searchsorted gives pick 16
        u = np.array([np.nextafter(1.0, 0.0)])
        cdfs = _default_cdfs(k, model)
        assert cdfs["D"][-1] < u[0]
        assert {name: int(_count_below(cdf, u)[0])
                for name, cdf in cdfs.items()} == {"K_S": 3, "K_L": 3, "D": 15}

    def test_matches_searchsorted(self, k, model):
        rng = np.random.default_rng(99)
        cdfs = _default_cdfs(k, model)
        # a zero-weight channel repeats an entry
        assert np.any(np.diff(cdfs["K_S"]) == 0) and np.any(np.diff(cdfs["D"]) == 0)
        tables = list(cdfs.values())
        for size in (1, 2, 4, 7, 16):
            w = rng.random(size) * (rng.random(size) < 0.7)
            w[-1] = 1.0
            cdf = np.cumsum(w) / w.sum()
            cdf[-1] = 1.0
            tables.append(cdf)
        for cdf in tables:
            u = np.concatenate((rng.random(10**5), [0.0], cdf,
                                np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)))
            # above the last entry the two differ (test_forced_tail_draw)
            u = u[u <= cdf[-1]]
            got = _count_below(cdf, u)
            assert got.dtype == np.int8
            np.testing.assert_array_equal(got, np.searchsorted(cdf, u))


def _naive_estimates(events):
    """Reference estimator: one boolean mask per occupied bin."""
    mask = events.classified
    dt = events.l_time[mask] - events.r_time[mask]
    lo_, ro_ = _fields(events, "l_")[2][mask], _fields(events, "r_")[2][mask]
    nbins = int(round((Binning.hi - Binning.lo) / Binning.width))
    ib = np.floor((dt - Binning.lo) / Binning.width).astype(int)
    ok = (ib >= 0) & (ib < nbins)
    ib, lo_, ro_ = ib[ok], lo_[ok], ro_[ok]
    centers = Binning.centers()
    out = []
    for b in np.unique(ib):
        sel = ib == b
        n = int(sel.sum())
        counts = np.bincount(lo_[sel] * 4 + ro_[sel], minlength=16)
        for code in np.nonzero(counts)[0]:
            p = counts[code] / n
            out.append(Estimate(
                p_hat=p, stderr=math.sqrt(p * (1.0 - p) / n), n=n,
                bin=float(centers[b]),
                pair=(OUTCOME_BY_CODE[code // 4].value,
                      OUTCOME_BY_CODE[code % 4].value),
                count=int(counts[code])))
    return out


def _random_events(rng, n, low=0, high=9, t_max=24):
    """Random pairs with record codes in [low, high), 0 marking a discarded
    side; times on a quarter grid in [0, t_max] so that time differences hit
    bin edges, fall outside [lo, hi) and leave most bins empty."""
    cols = {}
    for side in ("l_", "r_"):
        rec = rng.integers(low, high, n).astype(np.int8)
        cols[side + "rec"] = rec
        cols[side + "time"] = np.where(
            rec > 0, 0.25 * rng.integers(0, 4 * t_max + 1, n), np.nan)
    return EventSet(kind="D", **cols)


def _per_cell_counts(events):
    """Reference count table: each (bin, left outcome, right outcome) cell
    counted with its own mask over the classified pairs."""
    mask = events.classified
    dt = events.l_time[mask] - events.r_time[mask]
    lo_, ro_ = _fields(events, "l_")[2][mask], _fields(events, "r_")[2][mask]
    ib = np.floor((dt - Binning.lo) / Binning.width)
    counts = np.zeros((len(Binning.centers()), 4, 4), dtype=int)
    for b, l, r in np.ndindex(counts.shape):
        counts[b, l, r] = np.count_nonzero((ib == b) & (lo_ == l) & (ro_ == r))
    return counts


def _ss_fit_reference(estimates, k, min_cos=0.1):
    """The fit as it read Estimate rows: like and unlike counts per bin
    summed by outcome-string compare, then the same per-bin arithmetic."""
    bins = {}
    for e in estimates:
        l, r = e.pair
        if l in ("K0", "K0bar") and r in ("K0", "K0bar"):
            bins.setdefault(e.bin, [0, 0])[l != r] += e.count
    rows = []
    for center in sorted(bins):
        like, unlike = bins[center]
        n_ss = like + unlike
        a = (unlike - like) / n_ss
        p_smooth = (unlike + 0.5) / (n_ss + 1.0)
        sig_a = 2.0 * math.sqrt(p_smooth * (1.0 - p_smooth) / n_ss)
        c = math.cos(k.delta_m * center)
        rows.append(FitRow(delta_tau=float(center), v_hat=a / c,
                           stderr=sig_a / abs(c), n_ss=n_ss,
                           excluded=abs(c) < min_cos))
    return rows


class TestEstimators:
    def test_estimates_are_frequencies(self, k, model):
        ev = run_experiment("B", _cfg(n_pairs=30000), k, model)
        ests = list(estimate_probs(ev))
        assert ests
        by_bin = {}
        for e in ests:
            by_bin.setdefault(e.bin, 0.0)
            by_bin[e.bin] += e.p_hat
            assert 0.0 < e.p_hat <= 1.0
            assert e.stderr >= 0.0
        for total in by_bin.values():
            assert total == pytest.approx(1.0, rel=1e-9)

    def test_empty_event_set_rejected(self, k, model):
        ev = run_experiment("D", _cfg(n_pairs=5), k, model)
        empty = EventSet(kind="D",
                         **{c: getattr(ev, c)[:0] for c in EventSet._COLS})
        with pytest.raises(ValueError):
            estimate_probs(empty)

    def test_event_set_needs_its_columns(self):
        """A set is built with all four columns, so ``len`` and the
        estimators never meet a missing one."""
        with pytest.raises(TypeError):
            EventSet("A1")
        cols = {c: np.zeros(2) for c in EventSet._COLS}
        for c in EventSet._COLS:
            with pytest.raises(TypeError, match=c):
                EventSet("A1", **{n: v for n, v in cols.items() if n != c})

    def test_discarded_side_with_a_time_is_in_no_cell(self):
        """Only the record code says a side is discarded: a code 0 with a
        finite time, whose time difference lies in a bin, counts nowhere."""
        ev = EventSet(kind="C",
                      l_rec=np.array([1, 0, 2, 0], dtype=np.int8),
                      l_time=np.array([1.0, 1.0, 1.0, 2.0]),
                      r_rec=np.array([2, 1, 0, 0], dtype=np.int8),
                      r_time=np.array([0.0, 0.0, 0.0, 0.5]))
        counts = estimate_probs(ev).counts
        assert counts.sum() == 1
        # delta_tau = 1.0 in bin (1.0 + 10) / 0.5 = 22; K0 left, K0bar right
        assert counts[22, 0, 1] == 1

    def test_binning_centers(self):
        b = Binning()
        assert (b.lo, b.hi, b.width, b.bins) == (-10.0, 10.0, 0.5, 40)
        centers = b.centers()
        assert len(centers) == 40
        assert centers[0] == pytest.approx(-9.75)
        assert centers[-1] == pytest.approx(9.75)

    def test_fit_visibility_on_a1(self, k, model):
        cfg = _cfg(n_pairs=400000, seed=4)
        ev = run_experiment("A1", cfg, k, model)
        rows = fit_visibility(estimate_probs(ev), k)
        assert rows
        for row in rows:
            if row.excluded:
                assert abs(math.cos(k.delta_m * row.delta_tau)) < 0.1
                continue
            want = pair_visibility(row.delta_tau, k)
            assert abs(row.v_hat - want) < 4.0 * row.stderr

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_bin_reference(self, seed):
        rng = np.random.default_rng(seed)
        # bin edges, discarded sides and time differences outside [-10, 10);
        # then every pair classified (the shape of D), and time differences
        # up to 10^4, mostly far outside the binning
        for ev in (_random_events(rng, int(rng.integers(1, 400))),
                   _random_events(rng, 300, low=1),
                   _random_events(rng, 300, t_max=10**4)):
            assert list(estimate_probs(ev)) == _naive_estimates(ev)
        assert list(estimate_probs(_random_events(rng, 300, high=1))) == []

    @pytest.mark.parametrize("seed", range(8))
    def test_count_table_matches_per_cell_reference(self, seed):
        """Every cell, zero cells included; pairs whose time difference
        falls outside the binning are in none."""
        rng = np.random.default_rng(seed)
        for ev in (_random_events(rng, int(rng.integers(1, 400))),
                   _random_events(rng, 300, low=1),
                   _random_events(rng, 300, high=1)):
            table = estimate_probs(ev)
            assert table.counts.shape == (40, 4, 4)
            np.testing.assert_array_equal(table.counts, _per_cell_counts(ev))

    @pytest.mark.parametrize("seed", range(8))
    def test_fit_matches_string_compare_reference(self, k, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 50, (40, 4, 4)) * (rng.random((40, 4, 4)) < 0.5)
        for table in (CountTable(counts),
                      estimate_probs(_random_events(rng, 400, low=1, high=5))):
            rows = fit_visibility(table, k)
            assert rows and rows == _ss_fit_reference(table, k)

    def test_fit_uses_counts_not_rounded_frequencies(self, k):
        n, like, unlike = 3_000_000, 1_000_001, 1_999_999
        counts = np.zeros((40, 4, 4), dtype=np.int64)
        counts[20, 0, 0], counts[20, 0, 1] = like, unlike  # the bin at 0.25
        table = CountTable(counts)
        # p_hat carried to six digits, as a table read back from text would be
        assert [e.bin for e in table] == [0.25, 0.25]
        assert [round(float(f"{e.p_hat:.6g}") * n) for e in table] != [like, unlike]
        (row,) = fit_visibility(table, k)
        assert row.n_ss == like + unlike
        assert row.v_hat == ((unlike - like) / (unlike + like)
                             / math.cos(k.delta_m * 0.25))


class TestEventFileRoundTrip:
    @pytest.mark.parametrize("kind", ExperimentKind.ALL)
    def test_lossless_round_trip(self, k, model, kind, tmp_path):
        """The same values, each column in its dtype of EventSet._COLS."""
        ev = run_experiment(kind, _cfg(n_pairs=500), k, model)
        path = tmp_path / "events.csv"
        write_events(ev, path)
        back = read_events(path, kind=kind)
        for col, dtype in EventSet._COLS.items():
            assert getattr(ev, col).dtype == getattr(back, col).dtype == dtype
            np.testing.assert_array_equal(
                getattr(ev, col), getattr(back, col),
                err_msg=f"{kind}:{col}")

    def test_estimates_identical_after_round_trip(self, k, model, tmp_path):
        ev = run_experiment("D", _cfg(n_pairs=3000), k, model)
        path = tmp_path / "events.csv"
        write_events(ev, path)
        assert list(estimate_probs(read_events(path))) == list(estimate_probs(ev))

    def test_bad_header(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("nope\n")
        with pytest.raises(ValueError, match="line 1"):
            read_events(p)

    def test_wrong_field_count(self, tmp_path, k, model):
        ev = run_experiment("D", _cfg(n_pairs=3), k, model)
        p = tmp_path / "x.csv"
        write_events(ev, p)
        lines = p.read_text().splitlines()
        lines[2] = lines[2] + ",extra"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 3"):
            read_events(p)

    def test_malformed_value(self, tmp_path, k, model):
        ev = run_experiment("D", _cfg(n_pairs=3), k, model)
        p = tmp_path / "x.csv"
        write_events(ev, p)
        lines = p.read_text().splitlines()
        lines[3] = lines[3].replace("passive", "sideways", 1)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 4"):
            read_events(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("")
        with pytest.raises(ValueError):
            read_events(p)


class TestEraserByName:
    """The meter-sorted sub-ensembles of A2, B and C at 10^6 pairs, pooled
    over the pairs whose time difference delta_tau = t_l - t_r lies in the
    default binning, apart for delta_tau < 0 (the left kaon measured first:
    delayed choice) and delta_tau > 0.

    Marked (a lifetime record on the right: A2's K_S/K_L, B's pre-detector
    decays, C's 2pi/3pi): the left P(K0) is 1/2.  Erased (strangeness on the
    right: B's post-detector measurements, C's sl+- decays): the unlike
    fraction follows 2 closed_form_joint("ss_unlike", delta_tau) pair by
    pair.  Each pooled z is held to a Bonferroni bound for a family
    false-alarm rate of 1e-6 over all the z's of this class."""

    # 5 sub-ensembles (3 marked, 2 erased) x 2 seeds x 2 signs of delta_tau
    FAMILY = 5 * 2 * 2
    Z_MAX = statistics.NormalDist().inv_cdf(1.0 - 0.5e-6 / FAMILY)

    @pytest.mark.parametrize("seed", [222, 504])
    @pytest.mark.parametrize("kind", ["A2", "B", "C"])
    def test_marked_unfringed_erased_on_the_fringe(self, k, model, kind, seed):
        ev = run_experiment(kind, SimConfig(n_pairs=10**6, seed=seed,
                                            partitions=4), k, model)
        l_out, r_out = _fields(ev, "l_")[2], _fields(ev, "r_")[2]
        dt = np.where(ev.classified, ev.l_time - ev.r_time, np.nan)
        binning = Binning()
        in_range = (dt >= binning.lo) & (dt < binning.hi)
        zs = {}
        for sign in (-1, 1):
            side = in_range & (np.sign(dt) == sign)
            marked = side & (r_out >= 2)  # K_S or K_L
            n = int(marked.sum())
            assert n > 1000
            assert np.all(l_out[marked] <= 1)
            n_k0 = int(np.sum(l_out[marked] == 0))
            zs["marked", sign] = (n_k0 - 0.5 * n) / math.sqrt(0.25 * n)
            erased = side & (r_out <= 1)  # K0 or K0bar
            if kind == "A2":
                assert not erased.any()
                continue
            assert erased.sum() > 100
            p = 2.0 * closed_form_joint("ss_unlike", dt[erased], k)
            unlike = int(np.sum(l_out[erased] != r_out[erased]))
            zs["erased", sign] = (unlike - p.sum()) / math.sqrt(np.sum(p * (1.0 - p)))
        assert max(abs(z) for z in zs.values()) < self.Z_MAX, zs
