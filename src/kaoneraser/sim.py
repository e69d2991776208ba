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
numpy's SeedSequence(entropy=master_seed, spawn_key=(p,)) and partitions are
merged in index order, so a run is reproducible given (seed, partitions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Observable, Outcome, PhysicalConstants, Procedure, beam_norm
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
# outcome code identified by each channel code
_CHAN_OUT = np.array([OUTCOME_CODES[CHANNEL_OUTCOME[ch]] for ch in CHANNEL_BY_CODE])


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
        if self.tau_r0 < 0:
            raise ValueError("tau_r0 must be nonnegative")
        if not self.tau_l_grid or any(t < 0 for t in self.tau_l_grid):
            raise ValueError("tau_l grid must be nonempty and nonnegative")


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
                    OUTCOME_CODES[Outcome.KS],
                    OUTCOME_CODES[Outcome.KL]).astype(np.int8)


def _channel_amps(model: AmplitudeModel):
    """(a_S, a_L) in channel-code order; every model amplitude is real."""
    a_s = np.array([model.a_S[f] for f in CHANNEL_BY_CODE], dtype=float)
    a_l = np.array([model.a_L[f] for f in CHANNEL_BY_CODE], dtype=float)
    return a_s, a_l


def _channel_tables(model: AmplitudeModel, k: PhysicalConstants):
    """Per-eigenstate channel probabilities |a_i(f)|^2 / Gamma_i, in code order."""
    p_s = np.array([abs(model.a_S[f]) ** 2 for f in CHANNEL_BY_CODE]) / k.gamma_S
    p_l = np.array([abs(model.a_L[f]) ** 2 for f in CHANNEL_BY_CODE]) / k.gamma_L
    return p_s, p_l


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


def _draw_passive_side(n, rng, k, model):
    """Sample a free kaon's decay (channel code, decay time) from the marginal
    of one member of the pair: an even K_S/K_L mixture."""
    p_s, p_l = _channel_tables(model, k)
    is_l = rng.random(n) < 0.5
    u = rng.random(n)
    chan = np.where(is_l,
                    np.searchsorted(np.cumsum(p_l), u),
                    np.searchsorted(np.cumsum(p_s), u)).astype(np.int8)
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
    """
    a_s, a_l = _channel_amps(model)
    r_s = -a_l[chan] * np.exp(-0.5 * k.gamma_L * t_r) / math.sqrt(2.0)
    r_l = a_s[chan] * np.exp(-0.5 * k.gamma_S * t_r) / math.sqrt(2.0)
    # the tau_l factors are grid tables gathered per pair
    bs = r_s * np.exp(-0.5 * k.gamma_S * grid)[ig]
    bl = r_l * np.exp(-0.5 * k.gamma_L * grid)[ig]
    n2_after = bs * bs + bl * bl
    p_survive = n2_after / (r_s * r_s + r_l * r_l)
    p_k0 = ((n2_after + 2.0 * bs * bl * np.cos(k.delta_m * (grid[ig] - t_r)))
            / (2.0 * n2_after))
    return p_survive, p_k0


def _sample_left_after_right_decay(chan, t_r, grid, ig, k, model, rng):
    """Bernoulli-sample the left kaon's survival and its strangeness outcome.
    Returns (alive, out_code)."""
    p_survive, p_k0 = left_after_right_decay(chan, t_r, grid, ig, k, model)
    alive = rng.random(len(ig)) < p_survive
    out = np.where(rng.random(len(ig)) < p_k0, OUTCOME_CODES[Outcome.K0],
                   OUTCOME_CODES[Outcome.K0BAR]).astype(np.int8)
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
    w = passive_pair_weights(k, model)
    flat = w.reshape(-1)
    pick = np.searchsorted(np.cumsum(flat) / flat.sum(), rng.random(n))
    chan_l = (pick // 4).astype(np.int8)
    chan_r = (pick % 4).astype(np.int8)
    t_l = np.empty(n)
    t_r = np.empty(n)
    a_s, a_l = _channel_amps(model)
    for code in range(16):
        sel = pick == code
        m = int(sel.sum())
        if m == 0:
            continue
        cl, cr = code // 4, code % 4
        alpha = a_l[cl] * a_s[cr]
        beta = a_s[cl] * a_l[cr]
        tl, tr = _sample_pair_times(m, alpha, beta, k, rng)
        t_l[sel] = tl
        t_r[sel] = tr
    return chan_l, t_l, chan_r, t_r


def sample_passive_pair(k: PhysicalConstants, model: AmplitudeModel, rng):
    """One draw from the joint decay density of the fully passive experiment."""
    cl, tl, cr, tr = _sample_passive_pairs(1, k, model, rng)
    return (CHANNEL_BY_CODE[cl[0]], float(tl[0]),
            CHANNEL_BY_CODE[cr[0]], float(tr[0]))


# ---------------------------------------------------------------------------
# experiment generators (one partition each)
# ---------------------------------------------------------------------------

def _gen_a1(n, rng, cfg, k, model):
    cols = _empty_columns(n)
    grid, ig = _draw_tau_l(n, rng, cfg)
    norm, p_unlike = _strangeness_tables(grid, cfg, k)
    survive = rng.random(n) < norm[ig]
    left_k0 = rng.random(n) < 0.5
    unlike = rng.random(n) < p_unlike[ig]
    l_out = np.where(left_k0, OUTCOME_CODES[Outcome.K0],
                     OUTCOME_CODES[Outcome.K0BAR]).astype(np.int8)
    r_out = np.where(unlike, 1 - l_out, l_out).astype(np.int8)
    cols["l_out"][survive] = l_out[survive]
    cols["r_out"][survive] = r_out[survive]
    cols["l_time"][survive] = grid[ig[survive]]
    cols["r_time"][survive] = cfg.tau_r0
    return cols


def _gen_a2(n, rng, cfg, k, model):
    cols = _empty_columns(n)
    grid, ig = _draw_tau_l(n, rng, cfg)
    chan, t_r = _draw_passive_side(n, rng, k, model)
    alive, l_out = _sample_left_after_right_decay(chan, t_r, grid, ig, k,
                                                  model, rng)
    right_ok = t_r >= cfg.tau_r0
    cols["l_out"][alive] = l_out[alive]
    cols["l_time"][alive] = grid[ig[alive]]
    cols["r_obs"][right_ok] = 1
    cols["r_out"][right_ok] = classify_lifetime(t_r[right_ok], cfg.tau_r0,
                                                cfg.window)
    cols["r_time"][right_ok] = cfg.tau_r0
    return cols


def _gen_b(n, rng, cfg, k, model):
    cols = _empty_columns(n)
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

    # pre-detector decays: right recorded as an active lifetime measurement
    cols["r_obs"][pre] = 1
    cols["r_out"][pre] = classify_lifetime(t_r[pre], 0.0, cfg.window)
    cols["r_time"][pre] = t_r[pre]
    m = pre & alive_pre
    cols["l_out"][m] = lout_pre[m]
    cols["l_time"][m] = grid[ig[m]]

    # survivors: active strangeness on the right at tau_r0
    post = ~pre
    r_out = np.where(u_rout < 0.5, OUTCOME_CODES[Outcome.K0],
                     OUTCOME_CODES[Outcome.K0BAR]).astype(np.int8)
    cols["r_out"][post] = r_out[post]
    cols["r_time"][post] = cfg.tau_r0
    m = post & alive_post
    cols["l_out"][m] = np.where(unlike, 1 - r_out, r_out)[m]
    cols["l_time"][m] = grid[ig[m]]
    return cols


def _gen_c(n, rng, cfg, k, model):
    cols = _empty_columns(n)
    grid, ig = _draw_tau_l(n, rng, cfg)
    chan, t_r = _draw_passive_side(n, rng, k, model)
    alive, l_out = _sample_left_after_right_decay(chan, t_r, grid, ig, k,
                                                  model, rng)
    cols["l_out"][alive] = l_out[alive]
    cols["l_time"][alive] = grid[ig[alive]]
    cols["r_proc"][:] = 1
    cols["r_obs"][:] = np.where(_CHAN_OUT[chan] >= 2, 1, 0)
    cols["r_out"][:] = _CHAN_OUT[chan]
    cols["r_time"][:] = t_r
    cols["r_chan"][:] = chan
    return cols


def _gen_d(n, rng, cfg, k, model):
    cols = _empty_columns(n)
    chan_l, t_l, chan_r, t_r = _sample_passive_pairs(n, k, model, rng)
    for prefix, chan, t in (("l_", chan_l, t_l), ("r_", chan_r, t_r)):
        cols[prefix + "proc"][:] = 1
        cols[prefix + "obs"][:] = np.where(_CHAN_OUT[chan] >= 2, 1, 0)
        cols[prefix + "out"][:] = _CHAN_OUT[chan]
        cols[prefix + "time"][:] = t
        cols[prefix + "chan"][:] = chan
    return cols


_GENERATORS = {"A1": _gen_a1, "A2": _gen_a2, "B": _gen_b, "C": _gen_c, "D": _gen_d}


def run_experiment(kind: str, cfg: SimConfig, k: PhysicalConstants,
                   model: AmplitudeModel) -> EventSet:
    """Generate a deterministic event set for one of the eraser experiments."""
    if kind not in _GENERATORS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    cfg.validate()
    gen = _GENERATORS[kind]
    sizes = [cfg.n_pairs // cfg.partitions
             + (1 if i < cfg.n_pairs % cfg.partitions else 0)
             for i in range(cfg.partitions)]
    parts = []
    for p, size in enumerate(sizes):
        if size == 0:
            continue
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                           spawn_key=(p,)))
        parts.append(gen(size, rng, cfg, k, model))
    merged = {col: np.concatenate([part[col] for part in parts])
              for col in EventSet._COLS}
    return EventSet(kind=kind, config=cfg, **merged)


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
    bins are omitted rather than zero-filled.
    """
    if len(events) == 0:
        raise ValueError("empty event set")
    mask = events.classified
    dt = events.l_time[mask] - events.r_time[mask]
    nbins = int(round((binning.hi - binning.lo) / binning.width))
    ib = np.floor((dt - binning.lo) / binning.width).astype(int)
    ok = (ib >= 0) & (ib < nbins)
    # one pass: cell = bin * 16 + left code * 4 + right code
    cell = ib[ok] * 16 + events.l_out[mask][ok] * 4 + events.r_out[mask][ok]
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
        if l not in ("K0", "K0bar") or r not in ("K0", "K0bar"):
            continue
        like, unlike = bins.setdefault(e.bin, [0, 0])
        if l == r:
            bins[e.bin][0] = like + e.count
        else:
            bins[e.bin][1] = unlike + e.count
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
