"""Monte Carlo event generation for the five quantum eraser experiments, plus
estimators reconstructing probabilities and oscillation visibility from events.

Experiments
    A1  strangeness detectors actively inserted on both beams
    A2  active strangeness on the left, free propagation + decay-time
        classification on the right
    B   right strangeness detector at tau_r0, pre-detector decays kept as
        lifetime measurements
    C   active strangeness on the left, fully passive right side
    D   fully passive on both sides

Event generation is partitioned; partition p uses the generator seeded by
numpy's SeedSequence(entropy=master_seed, spawn_key=(p,)) and fills its
slice of one column set, in index order, so a run is reproducible given
(seed, partitions).  The left-kaon kernel of A2, B and C runs on cache-sized
blocks and skips its cosine where that cannot change the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (Observable, Outcome, PhysicalConstants, Procedure, beam_norm,
                   finite_number)
from .decay import CHANNEL_OUTCOME, AmplitudeModel, DecayChannel, pair_beam_norm
from .pairs import closed_form_joint
from .single import MisidWindow

RNG_SCHEME = "np-seedseq-spawnkey-pcg64-v1"

# Integer codes of the columnar event store.  Each *_BY_CODE tuple lists the
# values in code order (code = index); OUTCOME_CODES and CHANNEL_CODES invert
# the outcome and channel tuples.
PROCEDURE_BY_CODE = (Procedure.ACTIVE, Procedure.PASSIVE)
OBSERVABLE_BY_CODE = (Observable.STRANGENESS, Observable.LIFETIME)
OUTCOME_BY_CODE = (Outcome.K0, Outcome.K0BAR, Outcome.KS, Outcome.KL)
CHANNEL_BY_CODE = (DecayChannel.TWO_PI, DecayChannel.THREE_PI,
                   DecayChannel.SL_PLUS, DecayChannel.SL_MINUS)
OUTCOME_CODES = {o: c for c, o in enumerate(OUTCOME_BY_CODE)}
CHANNEL_CODES = {ch: c for c, ch in enumerate(CHANNEL_BY_CODE)}
# outcome and observable codes identified by each channel code
_CHAN_OUT = np.array([OUTCOME_CODES[CHANNEL_OUTCOME[ch]] for ch in CHANNEL_BY_CODE],
                     dtype=np.int8)
_CHAN_OBS = (_CHAN_OUT >= OUTCOME_CODES[Outcome.KS]).astype(np.int8)
# pairs per call of the left-kaon kernel: keeps its temporaries in L2
_BLOCK = 16384


class ExperimentKind:
    A1 = "A1"
    A2 = "A2"
    B = "B"
    C = "C"
    D = "D"
    ALL = ("A1", "A2", "B", "C", "D")


@dataclass(frozen=True)
class SimConfig:
    n_pairs: int
    tau_l_grid: tuple = tuple(round(4.8 + d, 10) for d in np.arange(-4.5, 8.01, 0.5))
    tau_r0: float = 4.8
    window: MisidWindow = MisidWindow()
    seed: int = 0
    partitions: int = 1

    def validate(self):
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        if self.partitions < 1:
            raise ValueError("partitions must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if finite_number("tau_r0", self.tau_r0) < 0:
            raise ValueError("tau_r0 must be nonnegative")
        if (not self.tau_l_grid
                or any(finite_number("tau_l_grid", t) < 0 for t in self.tau_l_grid)):
            raise ValueError("tau_l_grid must be nonempty and nonnegative")


@dataclass(frozen=True)
class MeasurementRecord:
    procedure: Procedure
    observable: Observable
    outcome: Outcome
    time: float
    channel: DecayChannel | None = None


@dataclass(frozen=True)
class EventRecord:
    pair_id: int
    left: MeasurementRecord | None  # None marks a discarded side
    right: MeasurementRecord | None


@dataclass(frozen=True)
class Estimate:
    p_hat: float
    stderr: float
    n: int
    bin: float
    pair: tuple
    count: int  # pairs in the bin with this outcome pair; p_hat = count / n


@dataclass(frozen=True)
class FitRow:
    delta_tau: float
    v_hat: float
    stderr: float
    n_ss: int
    excluded: bool


@dataclass
class EventSet:
    """Columnar store of simulated pairs.  Outcome code -1 marks a discarded
    side; channel code -1 marks 'no channel' (active measurements)."""

    kind: str
    config: SimConfig
    l_proc: np.ndarray = field(repr=False, default=None)
    l_obs: np.ndarray = field(repr=False, default=None)
    l_out: np.ndarray = field(repr=False, default=None)
    l_time: np.ndarray = field(repr=False, default=None)
    l_chan: np.ndarray = field(repr=False, default=None)
    r_proc: np.ndarray = field(repr=False, default=None)
    r_obs: np.ndarray = field(repr=False, default=None)
    r_out: np.ndarray = field(repr=False, default=None)
    r_time: np.ndarray = field(repr=False, default=None)
    r_chan: np.ndarray = field(repr=False, default=None)

    _COLS = ("l_proc", "l_obs", "l_out", "l_time", "l_chan",
             "r_proc", "r_obs", "r_out", "r_time", "r_chan")

    def __len__(self):
        return len(self.l_out)

    @property
    def classified(self) -> np.ndarray:
        """Mask of pairs with outcomes recorded on both sides."""
        return (self.l_out >= 0) & (self.r_out >= 0)

    @property
    def n_discarded(self) -> int:
        return int(np.sum(~self.classified))

    def record(self, i: int) -> EventRecord:
        def side(prefix):
            out = getattr(self, prefix + "out")[i]
            if out < 0:
                return None
            chan = getattr(self, prefix + "chan")[i]
            return MeasurementRecord(
                procedure=PROCEDURE_BY_CODE[getattr(self, prefix + "proc")[i]],
                observable=OBSERVABLE_BY_CODE[getattr(self, prefix + "obs")[i]],
                outcome=OUTCOME_BY_CODE[out],
                time=float(getattr(self, prefix + "time")[i]),
                channel=None if chan < 0 else CHANNEL_BY_CODE[chan],
            )
        return EventRecord(pair_id=i, left=side("l_"), right=side("r_"))

    def __iter__(self):
        return (self.record(i) for i in range(len(self)))


def _empty_columns(n):
    cols = {}
    for prefix in ("l_", "r_"):
        cols[prefix + "proc"] = np.zeros(n, dtype=np.int8)
        cols[prefix + "obs"] = np.zeros(n, dtype=np.int8)
        cols[prefix + "out"] = np.full(n, -1, dtype=np.int8)
        cols[prefix + "time"] = np.full(n, np.nan)
        cols[prefix + "chan"] = np.full(n, -1, dtype=np.int8)
    return cols


# ---------------------------------------------------------------------------
# elementary sampling blocks
# ---------------------------------------------------------------------------

def classify_lifetime(decay_time, measure_time, window: MisidWindow) -> np.ndarray:
    """Window rule, as outcome codes: a decay within [measure_time,
    measure_time + window] is read as K_S, any later decay as K_L."""
    return np.where(decay_time <= measure_time + window.delta_tau_w,
                    np.int8(OUTCOME_CODES[Outcome.KS]),
                    np.int8(OUTCOME_CODES[Outcome.KL]))


def _channel_amps(model: AmplitudeModel):
    """(a_S, a_L) in channel-code order; every model amplitude is real."""
    a_s = np.array([model.a_S[f] for f in CHANNEL_BY_CODE], dtype=float)
    a_l = np.array([model.a_L[f] for f in CHANNEL_BY_CODE], dtype=float)
    return a_s, a_l


def _channel_tables(model: AmplitudeModel, k: PhysicalConstants):
    """Per-eigenstate channel probabilities |a_i(f)|^2 / Gamma_i, in code order."""
    a_s, a_l = _channel_amps(model)
    return a_s * a_s / k.gamma_S, a_l * a_l / k.gamma_L


def _draw_tau_l(n, rng, cfg):
    """The tau_l grid and each pair's index into it.  tau_l takes only
    len(grid) values, so whatever depends on tau_l alone is evaluated once
    on the grid and gathered per pair with [ig]."""
    grid = np.asarray(cfg.tau_l_grid)
    return grid, rng.integers(0, len(grid), n)


def _strangeness_tables(grid, cfg, k):
    """Survivor norm N(tau_l, tau_r0) and unlike-strangeness probability of
    both kaons measured actively, per grid point, from the scalar oracles."""
    norm = np.array([pair_beam_norm(t, cfg.tau_r0, k) for t in grid])
    unlike = np.array([2.0 * closed_form_joint("ss_unlike", t - cfg.tau_r0, k)
                       for t in grid])
    return norm, unlike


def _count_below(cdf, u):
    """Inverse-CDF draw: the int8 count of entries of the non-decreasing cdf
    below each u, np.searchsorted(cdf, u) for u <= cdf[-1].  The last entry
    counts as 1.0, so u in [0, 1) never passes a sum that rounds below 1."""
    count = np.zeros(len(u), dtype=np.int8)
    for c in cdf[:-1]:
        count += c < u
    return count


def _draw_passive_side(n, rng, k, model):
    """Sample a free kaon's decay (channel code, decay time) from the marginal
    of one member of the pair: an even K_S/K_L mixture."""
    p_s, p_l = _channel_tables(model, k)
    is_l = rng.random(n) < 0.5
    u = rng.random(n)
    chan = np.where(is_l, _count_below(np.cumsum(p_l), u),
                    _count_below(np.cumsum(p_s), u))
    scale = np.where(is_l, 1.0 / k.gamma_L, 1.0 / k.gamma_S)
    t = rng.standard_exponential(n) * scale
    return chan, t


def left_after_right_decay(chan, t_r, grid, ig, k: PhysicalConstants,
                           model: AmplitudeModel):
    """(p_survive, p_K0) of the left kaon, actively measured at tau_l =
    grid[ig], after its partner decayed at t_r through channel code chan.

    The right decay leaves the left kaon (at its proper time 0) with K_S and
    K_L amplitudes r_S e^{-i dm t_r} and r_L, where r_S = -a_L(f) e^{-G_L t_r/2}
    / sqrt2 and r_L = a_S(f) e^{-G_S t_r/2} / sqrt2.  Every model amplitude is
    real, so the only phase is the oscillation term.  With bs = r_S e^{-G_S
    tau_l/2} and bl = r_L e^{-G_L tau_l/2}:
        p_survive = (bs^2 + bl^2) / (r_S^2 + r_L^2)
        p_K0 = (bs^2 + bl^2 + 2 bs bl cos(dm (tau_l - t_r))) / (2 (bs^2 + bl^2)),
    which is decay.mixed_active_passive_prob conditioned on the right decay.

    The cosine is evaluated only where it can change p_K0.  Let n2 = bs^2 +
    bl^2 (finite, bounded by the widths), cross = 2 bs bl and 2^e <= n2 <
    2^(e+1).  For a finite argument |cos| <= 1, so |cross*cos| <= |cross|
    after rounding.  Where |cross| 2^55 < n2, |cross*cos| < 2^(e-54), less than
    half the spacing of doubles on either side of n2: n2 + cross*cos rounds to
    n2 and p_K0 = n2 / (2 n2) = 0.5 exactly.  Scaling by 2^55 is exact, so the
    test is exact; a NaN fails it and takes the full formula, as before.
    """
    a_s, a_l = _channel_amps(model)
    r_s = -a_l[chan] * np.exp(-0.5 * k.gamma_L * t_r) / math.sqrt(2.0)
    r_l = a_s[chan] * np.exp(-0.5 * k.gamma_S * t_r) / math.sqrt(2.0)
    # the tau_l factors are grid tables gathered per pair
    bs = r_s * np.exp(-0.5 * k.gamma_S * grid)[ig]
    bl = r_l * np.exp(-0.5 * k.gamma_L * grid)[ig]
    n2_after = bs * bs + bl * bl
    p_survive = n2_after / (r_s * r_s + r_l * r_l)
    cross = 2.0 * bs * bl
    p_k0 = np.full(len(n2_after), 0.5)
    m = np.flatnonzero(~(np.abs(cross) * 2.0 ** 55 < n2_after))
    n2 = n2_after[m]
    p_k0[m] = ((n2 + cross[m] * np.cos(k.delta_m * (grid[ig[m]] - t_r[m])))
               / (2.0 * n2))
    return p_survive, p_k0


def _sample_left_after_right_decay(chan, t_r, grid, ig, k, model, rng):
    """Bernoulli-sample the left kaon's survival and its strangeness outcome.
    The kernel runs on blocks of _BLOCK pairs so that its temporaries stay in
    cache.  Returns (alive, out_code)."""
    n = len(ig)
    p_survive, p_k0 = np.empty(n), np.empty(n)
    for s in range(0, n, _BLOCK):
        b = slice(s, s + _BLOCK)
        p_survive[b], p_k0[b] = left_after_right_decay(chan[b], t_r[b], grid,
                                                       ig[b], k, model)
    alive = rng.random(n) < p_survive
    out = np.where(rng.random(n) < p_k0, np.int8(OUTCOME_CODES[Outcome.K0]),
                   np.int8(OUTCOME_CODES[Outcome.K0BAR]))
    return alive, out


# ---------------------------------------------------------------------------
# joint passive sampling (experiment D)
# ---------------------------------------------------------------------------

def passive_pair_weights(k: PhysicalConstants, model: AmplitudeModel) -> np.ndarray:
    """Analytic 4x4 integrated weights of the joint decay rate per ordered
    channel pair (rows: left, cols: right); sums to one."""
    a_s, a_l = _channel_amps(model)
    alpha = np.outer(a_l, a_s)
    beta = np.outer(a_s, a_l)
    cross = 1.0 / (k.gamma_mean ** 2 + k.delta_m ** 2)
    w = ((alpha ** 2 + beta ** 2) / (2.0 * k.gamma_S * k.gamma_L)
         - alpha * beta * cross)
    return w


def _sample_pair_times(n, alpha, beta, k, rng):
    """Rejection-sample (t_l, t_r) for one channel pair with couplings
    (alpha, beta) of the two propagation terms."""
    g_l, g_s = k.gamma_L, k.gamma_S
    if beta == 0.0:
        return rng.exponential(1.0 / g_l, n), rng.exponential(1.0 / g_s, n)
    if alpha == 0.0:
        return rng.exponential(1.0 / g_s, n), rng.exponential(1.0 / g_l, n)
    a2, b2 = alpha * alpha, beta * beta
    t_l = np.empty(n)
    t_r = np.empty(n)
    done = 0
    while done < n:
        m = max(1024, 2 * (n - done))
        first = rng.random(m) < a2 / (a2 + b2)
        cand_l = np.where(first, rng.exponential(1.0 / g_l, m),
                          rng.exponential(1.0 / g_s, m))
        cand_r = np.where(first, rng.exponential(1.0 / g_s, m),
                          rng.exponential(1.0 / g_l, m))
        u = np.exp(-g_l * cand_l - g_s * cand_r)
        v = np.exp(-g_s * cand_l - g_l * cand_r)
        envelope = a2 * u + b2 * v
        dens = 0.5 * (envelope - 2.0 * alpha * beta
                      * np.exp(-k.gamma_mean * (cand_l + cand_r))
                      * np.cos(k.delta_m * (cand_l - cand_r)))
        ratio = dens / envelope
        if np.any(ratio > 1.0 + 1e-9) or np.any(ratio < -1e-12):
            raise RuntimeError("rejection envelope violated; amplitude math bug")
        keep = rng.random(m) < ratio
        take = min(int(keep.sum()), n - done)
        idx = np.nonzero(keep)[0][:take]
        t_l[done:done + take] = cand_l[idx]
        t_r[done:done + take] = cand_r[idx]
        done += take
    return t_l, t_r


def _sample_passive_pairs(n, k, model, rng):
    """Vectorized draw of n (chan_l, t_l, chan_r, t_r) from the joint decay
    density: channel pair from analytic weights, times by rejection."""
    flat = passive_pair_weights(k, model).reshape(-1)
    pick = _count_below(np.cumsum(flat) / flat.sum(), rng.random(n))
    chan_l, chan_r = pick // 4, pick % 4
    t_l, t_r = np.empty(n), np.empty(n)
    a_s, a_l = _channel_amps(model)
    # a stable sort lists each channel pair's indices in increasing order, and
    # an empty pair draws nothing
    order = np.argsort(pick, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(pick, minlength=16))))
    for code in range(16):
        sel = order[bounds[code]:bounds[code + 1]]
        cl, cr = code // 4, code % 4
        t_l[sel], t_r[sel] = _sample_pair_times(len(sel), a_l[cl] * a_s[cr],
                                                a_s[cl] * a_l[cr], k, rng)
    return chan_l, t_l, chan_r, t_r


def sample_passive_pair(k: PhysicalConstants, model: AmplitudeModel, rng):
    """One draw from the joint decay density of the fully passive experiment."""
    cl, tl, cr, tr = _sample_passive_pairs(1, k, model, rng)
    return (CHANNEL_BY_CODE[cl[0]], float(tl[0]),
            CHANNEL_BY_CODE[cr[0]], float(tr[0]))


# ---------------------------------------------------------------------------
# experiment generators (one partition each, written into its column slices)
# ---------------------------------------------------------------------------

def _write_passive_side(cols, prefix, chan, t):
    """Record a free kaon's decay as a passive measurement."""
    cols[prefix + "proc"].fill(1)
    cols[prefix + "obs"][:] = _CHAN_OBS[chan]
    cols[prefix + "out"][:] = _CHAN_OUT[chan]
    cols[prefix + "time"][:] = t
    cols[prefix + "chan"][:] = chan


def _write_left_active(cols, alive, l_out, grid, ig):
    """Record the left kaon's active measurement at tau_l where it survived."""
    np.copyto(cols["l_out"], l_out, where=alive)
    np.copyto(cols["l_time"], grid[ig], where=alive)


def _gen_a1(n, rng, cfg, k, model, cols):
    grid, ig = _draw_tau_l(n, rng, cfg)
    norm, p_unlike = _strangeness_tables(grid, cfg, k)
    survive = rng.random(n) < norm[ig]
    left_k0 = rng.random(n) < 0.5
    unlike = rng.random(n) < p_unlike[ig]
    l_out = np.where(left_k0, np.int8(OUTCOME_CODES[Outcome.K0]),
                     np.int8(OUTCOME_CODES[Outcome.K0BAR]))
    _write_left_active(cols, survive, l_out, grid, ig)
    np.copyto(cols["r_out"], np.where(unlike, 1 - l_out, l_out), where=survive)
    np.copyto(cols["r_time"], cfg.tau_r0, where=survive)


def _gen_a2(n, rng, cfg, k, model, cols):
    grid, ig = _draw_tau_l(n, rng, cfg)
    chan, t_r = _draw_passive_side(n, rng, k, model)
    alive, l_out = _sample_left_after_right_decay(chan, t_r, grid, ig, k,
                                                  model, rng)
    _write_left_active(cols, alive, l_out, grid, ig)
    right_ok = t_r >= cfg.tau_r0
    cols["r_obs"][:] = right_ok
    np.copyto(cols["r_out"], classify_lifetime(t_r, cfg.tau_r0, cfg.window),
              where=right_ok)
    np.copyto(cols["r_time"], cfg.tau_r0, where=right_ok)


def _gen_b(n, rng, cfg, k, model, cols):
    grid, ig = _draw_tau_l(n, rng, cfg)
    chan, t_r = _draw_passive_side(n, rng, k, model)
    pre = t_r < cfg.tau_r0
    # uniforms drawn unconditionally so the stream is data-independent
    u_rout = rng.random(n)
    alive_pre, lout_pre = _sample_left_after_right_decay(chan, t_r, grid, ig,
                                                         k, model, rng)
    norm, p_unlike = _strangeness_tables(grid, cfg, k)
    alive_post = rng.random(n) < (norm / beam_norm(cfg.tau_r0, k))[ig]
    unlike = rng.random(n) < p_unlike[ig]
    # right: active lifetime if it decayed before tau_r0, else strangeness
    r_post = np.where(u_rout < 0.5, np.int8(OUTCOME_CODES[Outcome.K0]),
                      np.int8(OUTCOME_CODES[Outcome.K0BAR]))
    cols["r_obs"][:] = pre
    cols["r_out"][:] = np.where(pre, classify_lifetime(t_r, 0.0, cfg.window),
                                r_post)
    cols["r_time"][:] = np.where(pre, t_r, cfg.tau_r0)
    alive = np.where(pre, alive_pre, alive_post)
    l_out = np.where(pre, lout_pre, np.where(unlike, 1 - r_post, r_post))
    _write_left_active(cols, alive, l_out, grid, ig)


def _gen_c(n, rng, cfg, k, model, cols):
    grid, ig = _draw_tau_l(n, rng, cfg)
    chan, t_r = _draw_passive_side(n, rng, k, model)
    alive, l_out = _sample_left_after_right_decay(chan, t_r, grid, ig, k,
                                                  model, rng)
    _write_left_active(cols, alive, l_out, grid, ig)
    _write_passive_side(cols, "r_", chan, t_r)


def _gen_d(n, rng, cfg, k, model, cols):
    chan_l, t_l, chan_r, t_r = _sample_passive_pairs(n, k, model, rng)
    _write_passive_side(cols, "l_", chan_l, t_l)
    _write_passive_side(cols, "r_", chan_r, t_r)


_GENERATORS = {"A1": _gen_a1, "A2": _gen_a2, "B": _gen_b, "C": _gen_c, "D": _gen_d}


def run_experiment(kind: str, cfg: SimConfig, k: PhysicalConstants,
                   model: AmplitudeModel) -> EventSet:
    """Generate a deterministic event set for one of the eraser experiments."""
    if kind not in _GENERATORS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    cfg.validate()
    gen = _GENERATORS[kind]
    cols = _empty_columns(cfg.n_pairs)
    start = 0
    for p in range(cfg.partitions):
        size = cfg.n_pairs // cfg.partitions + (p < cfg.n_pairs % cfg.partitions)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                           spawn_key=(p,)))
        gen(size, rng, cfg, k, model,
            {col: v[start:start + size] for col, v in cols.items()})
        start += size
    return EventSet(kind=kind, config=cfg, **cols)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Binning:
    lo: float = -10.0
    hi: float = 10.0
    width: float = 0.5

    def centers(self):
        n = int(round((self.hi - self.lo) / self.width))
        return self.lo + self.width * (np.arange(n) + 0.5)


def estimate_probs(events: EventSet, binning: Binning = Binning()) -> list[Estimate]:
    """Per-bin frequencies of ordered outcome pairs among classified pairs.

    Discarded pairs never enter denominators (survivor normalization); empty
    bins are omitted rather than zero-filled.  Columns are gathered by index:
    over B's and C's half-dense masks that costs a fraction of a mask compress.
    """
    if len(events) == 0:
        raise ValueError("empty event set")
    idx = np.flatnonzero(events.classified)
    nbins = int(round((binning.hi - binning.lo) / binning.width))
    ib = np.floor((events.l_time[idx] - events.r_time[idx] - binning.lo)
                  / binning.width)
    sel = np.flatnonzero((ib >= 0) & (ib < nbins))
    j = idx[sel]
    # one pass: cell = bin * 16 + left code * 4 + right code
    cell = ib[sel].astype(np.intp) * 16 + events.l_out[j] * 4 + events.r_out[j]
    counts = np.bincount(cell, minlength=16 * nbins).reshape(nbins, 16)
    totals = counts.sum(axis=1)
    centers = binning.centers()
    out = []
    for b in np.nonzero(totals)[0]:
        n = int(totals[b])
        for code in np.nonzero(counts[b])[0]:
            p = counts[b, code] / n
            out.append(Estimate(
                p_hat=p,
                stderr=math.sqrt(p * (1.0 - p) / n),
                n=n,
                bin=float(centers[b]),
                pair=(OUTCOME_BY_CODE[code // 4].value,
                      OUTCOME_BY_CODE[code % 4].value),
                count=int(counts[b, code]),
            ))
    return out


def _ss_counts(estimates: list[Estimate]):
    """Per-bin like/unlike strangeness-strangeness counts from an estimate table."""
    bins = {}
    for e in estimates:
        l, r = e.pair
        if l in ("K0", "K0bar") and r in ("K0", "K0bar"):
            bins.setdefault(e.bin, [0, 0])[l != r] += e.count
    return bins


def fit_visibility(estimates: list[Estimate], k: PhysicalConstants,
                   min_cos: float = 0.1) -> list[FitRow]:
    """Reconstruct the oscillation visibility per time-difference bin from the
    strangeness-strangeness asymmetry A = (unlike - like)/(unlike + like) =
    V cos(delta_m * delta_tau).  Bins where the cosine is nearly zero are
    flagged as excluded, not dropped."""
    counts = _ss_counts(estimates)
    rows = []
    for center in sorted(counts):
        like, unlike = counts[center]
        n_ss = like + unlike
        if n_ss == 0:
            continue
        a = (unlike - like) / n_ss
        # add-half smoothing keeps the error finite at 0 or n_ss counts
        p_smooth = (unlike + 0.5) / (n_ss + 1.0)
        sig_a = 2.0 * math.sqrt(p_smooth * (1.0 - p_smooth) / n_ss)
        c = math.cos(k.delta_m * center)
        excluded = abs(c) < min_cos
        v = a / c if c != 0.0 else float("nan")
        sig_v = sig_a / abs(c) if c != 0.0 else float("nan")
        rows.append(FitRow(delta_tau=float(center), v_hat=v, stderr=sig_v,
                           n_ss=n_ss, excluded=excluded))
    return rows
