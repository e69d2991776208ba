"""Monte Carlo event generation for the five quantum eraser experiments: the
columnar event store and the generators that fill it.

Experiments
    A1  strangeness detectors actively inserted on both beams
    A2  active strangeness on the left, free propagation + decay-time
        classification on the right
    B   right strangeness detector at tau_r0, pre-detector decays kept as
        lifetime measurements
    C   active strangeness on the left, fully passive right side
    D   fully passive on both sides

Event generation is partitioned; partition p uses the generator seeded by
numpy's SeedSequence(entropy=master_seed, spawn_key=(p,)) and fills its own
slice of one column set, so a run is reproducible given (seed, partitions).
The partitions run concurrently on up to min(partitions, CPUs) threads
(numpy's draws and ufuncs release the GIL).  No partition reads another's
stream or slice, so the bytes depend only on (seed, partitions); the thread
count is recorded nowhere.  The left-kaon kernel of A2, B and C runs on
cache-sized blocks and skips its cosine where that cannot change the result.
Each side of a pair is stored as its time and its record code, an index into
RECORDS, which the generators write directly.

A generator writes every element of its column slices exactly once: the
columns are allocated with np.empty, and a discarded side gets record code 0
and time NaN like any other value.  The selects that build the columns use
no masked copies (np.copyto(where=), np.where), whose cost on a half-dense
random mask is tens of times that of an int8 multiply: a record code is int8
arithmetic on 0/1 masks (code * alive, _K0BAR - is_k0), and a time that
takes one of a few values is gathered from a small table that holds NaN for
a discarded side.  (D's rejection sampler, which runs on about 10^-3 of its
pairs, still picks its candidates with np.where.)
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import (ArrayMath, Outcome, PhysicalConstants, Procedure,
                   finite_number, lookup, pair_beam_norm, usable_cpus)
from .decay import (CHANNEL_BY_CODE, CHANNEL_OUTCOME, AmplitudeModel,
                    pair_rate_terms, passive_pair_weights)
from .pairs import closed_form_joint

RNG_SCHEME = "np-seedseq-spawnkey-pcg64-v1"

# The outcomes in outcome code order (code = index).
OUTCOME_BY_CODE = (Outcome.K0, Outcome.K0BAR, Outcome.KS, Outcome.KL)
# The nine records a side of a pair may hold, as (procedure, outcome,
# channel); the event store keeps a side's index into this table, its record
# code.  Code 0 is a discarded side, 1 + outcome code an active measurement
# and 5 + channel code (decay.CHANNEL_CODES) a passive decay, whose channel
# identifies its outcome.
RECORDS = ((None, None, None),
           *((Procedure.ACTIVE, o, None) for o in OUTCOME_BY_CODE),
           *((Procedure.PASSIVE, CHANNEL_OUTCOME[ch], ch) for ch in CHANNEL_BY_CODE))
# record codes of the active measurements, in outcome code order, and the
# first passive one
_K0, _K0BAR, _KS, _KL = np.arange(1, 5, dtype=np.int8)
_PASSIVE = 5
# pairs per call of the left-kaon kernel: keeps its temporaries in L2
_BLOCK = 16384


@dataclass(frozen=True)
class SimConfig:
    n_pairs: int = 10_000
    tau_l_grid: tuple = tuple(round(4.8 + d, 10) for d in np.arange(-4.5, 8.01, 0.5))
    tau_r0: float = 4.8
    window: float = 4.8  # lifetime misidentification window, in tau_S
    seed: int = 0
    partitions: int = 1

    def __post_init__(self):
        for name in ("n_pairs", "seed", "partitions"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        if self.n_pairs > np.iinfo(np.intp).max:
            raise ValueError(f"n_pairs must be at most {np.iinfo(np.intp).max}, "
                             f"got {self.n_pairs}")
        if self.partitions < 1:
            raise ValueError("partitions must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if finite_number("tau_r0", self.tau_r0) < 0:
            raise ValueError("tau_r0 must be nonnegative")
        if finite_number("window", self.window) <= 0:
            raise ValueError("window length must be positive")
        grid = self.tau_l_grid
        if (not isinstance(grid, (list, tuple)) or not grid
                or any(finite_number("tau_l_grid", t) < 0 for t in grid)):
            raise ValueError("tau_l_grid must be a nonempty list or tuple of "
                             f"nonnegative numbers, got {grid!r}")


@dataclass
class EventSet:
    """Columnar store of simulated pairs: per side an int8 record code (an
    index into RECORDS, 0 for a discarded side) and a time (NaN for a
    discarded side).  ``_COLS`` maps each column to its dtype."""

    kind: str
    l_rec: np.ndarray = field(repr=False)
    l_time: np.ndarray = field(repr=False)
    r_rec: np.ndarray = field(repr=False)
    r_time: np.ndarray = field(repr=False)

    _COLS = {"l_rec": np.int8, "l_time": np.float64,
             "r_rec": np.int8, "r_time": np.float64}

    def __len__(self):
        return len(self.l_rec)

    @property
    def classified(self) -> np.ndarray:
        """Mask of pairs with outcomes recorded on both sides."""
        return (self.l_rec > 0) & (self.r_rec > 0)

    @property
    def n_discarded(self) -> int:
        return int(np.sum(~self.classified))


# ---------------------------------------------------------------------------
# elementary sampling blocks
# ---------------------------------------------------------------------------

def classify_lifetime(decay_time, measure_time, window: float) -> np.ndarray:
    """Window rule, as active record codes: a decay within [measure_time,
    measure_time + window] is read as K_S, any later decay as K_L."""
    return _KL - (decay_time <= measure_time + window)


def misid_probs(window: float, k: PhysicalConstants) -> tuple[float, float]:
    """(wrong-K_S, wrong-K_L) identification probabilities for the window rule.

    A K_S surviving past the window is misread as K_L with probability
    exp(-Gamma_S w); a K_L decaying inside it is misread as K_S with
    probability 1 - exp(-Gamma_L w).  The window must be positive, as in
    ``SimConfig``.
    """
    if finite_number("window", window) <= 0:
        raise ValueError("window length must be positive")
    return math.exp(-k.gamma_S * window), 1.0 - math.exp(-k.gamma_L * window)


def _channel_tables(model: AmplitudeModel, k: PhysicalConstants):
    """Per-eigenstate channel probabilities |a_i(f)|^2 / Gamma_i, in code order."""
    a_s, a_l = np.asarray(model.a_S), np.asarray(model.a_L)
    return a_s * a_s / k.gamma_S, a_l * a_l / k.gamma_L


def _draw_tau_l(n, rng, cfg):
    """The tau_l grid and each pair's index into it.  tau_l takes only
    len(grid) values, so whatever depends on tau_l alone is evaluated once
    on the grid and gathered per pair with [ig]."""
    grid = np.asarray(cfg.tau_l_grid)
    return grid, rng.integers(0, len(grid), n)


def _strangeness_tables(grid, cfg, k):
    """Survivor norm N(tau_l, tau_r0) and unlike-strangeness probability of
    both kaons measured actively, per grid point, each from one array call
    of its oracle (which raises where a grid point would overflow)."""
    return (pair_beam_norm(grid, cfg.tau_r0, k),
            2.0 * closed_form_joint("ss_unlike", grid - cfg.tau_r0, k))


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
    chan_s = _count_below(np.cumsum(p_s), u)
    chan = chan_s + is_l * (_count_below(np.cumsum(p_l), u) - chan_s)
    scale = np.array([1.0 / k.gamma_S, 1.0 / k.gamma_L])[is_l.view(np.int8)]
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
    It stays apart from decay.pair_rate_terms, the form that rate shares: it
    reads tau_l factors from grid tables and skips the cosine exactly (below),
    where the shared form would cost per-pair exponentials and change bytes.

    The cosine is evaluated only where it can change p_K0.  Let n2 = bs^2 +
    bl^2 (finite, bounded by the widths), cross = 2 bs bl and 2^e <= n2 <
    2^(e+1).  For a finite argument |cos| <= 1, so |cross*cos| <= |cross|
    after rounding.  Where |cross| 2^55 < n2, |cross*cos| < 2^(e-54), less than
    half the spacing of doubles on either side of n2: n2 + cross*cos rounds to
    n2 and p_K0 = n2 / (2 n2) = 0.5 exactly.  Scaling by 2^55 is exact, so the
    test is exact; a NaN fails it and takes the full formula, as before.

    A late enough 2pi or 3pi decay, or a huge Gamma_S, underflows both
    amplitudes: the divisions give 0/0 = NaN, which discards the pair (no
    uniform draw is below it), so their invalid-value warning is off.
    """
    a_s, a_l = np.asarray(model.a_S), np.asarray(model.a_L)
    r_s = -a_l[chan] * np.exp(-0.5 * k.gamma_L * t_r) / math.sqrt(2.0)
    r_l = a_s[chan] * np.exp(-0.5 * k.gamma_S * t_r) / math.sqrt(2.0)
    # the tau_l factors are grid tables gathered per pair
    bs = r_s * np.exp(-0.5 * k.gamma_S * grid)[ig]
    bl = r_l * np.exp(-0.5 * k.gamma_L * grid)[ig]
    n2_after = bs * bs + bl * bl
    cross = 2.0 * bs * bl
    p_k0 = np.full(len(n2_after), 0.5)
    m = np.flatnonzero(~(np.abs(cross) * 2.0 ** 55 < n2_after))
    n2 = n2_after[m]
    num = n2 + cross[m] * np.cos(k.delta_m * (grid[ig[m]] - t_r[m]))
    with np.errstate(invalid="ignore"):
        p_survive = n2_after / (r_s * r_s + r_l * r_l)
        p_k0[m] = num / (2.0 * n2)
    return p_survive, p_k0


def _sample_left_after_right_decay(chan, t_r, grid, ig, k, model, rng):
    """Bernoulli-sample the left kaon's survival and its strangeness outcome.
    The kernel runs on blocks of _BLOCK pairs so that its temporaries stay in
    cache, and each block is reduced to its outcomes at once.  The kernel
    draws nothing, so drawing the survival uniforms and then the K0 uniforms
    before it leaves the stream as if they were drawn after it.  An overflow
    or an invalid value other than the kernel's own 0/0 (a delta_m * time
    product beyond the float range, whose cosine is NaN) raises
    FloatingPointError instead of sampling from NaN.  Returns (alive, record
    code)."""
    n = len(ig)
    u_survive, u_k0 = rng.random(n), rng.random(n)
    alive, rec = np.empty(n, dtype=bool), np.empty(n, dtype=np.int8)
    with np.errstate(over="raise", invalid="raise"):
        for s in range(0, n, _BLOCK):
            b = slice(s, s + _BLOCK)
            p_survive, p_k0 = left_after_right_decay(chan[b], t_r[b], grid,
                                                     ig[b], k, model)
            alive[b] = u_survive[b] < p_survive
            rec[b] = _K0BAR - (u_k0[b] < p_k0)
    return alive, rec


# ---------------------------------------------------------------------------
# joint passive sampling (experiment D)
# ---------------------------------------------------------------------------

def _sample_pair_times(n, alpha, beta, k, rng):
    """Rejection-sample (t_l, t_r) for one channel pair with couplings
    (alpha, beta), under the envelope of pair_rate_terms' direct term."""
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
        envelope, cross = pair_rate_terms(alpha, beta, cand_l, cand_r, k,
                                          ArrayMath)
        ratio = 0.5 * (envelope - cross) / envelope
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
    a_s, a_l = np.asarray(model.a_S), np.asarray(model.a_L)
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


# ---------------------------------------------------------------------------
# experiment generators (one partition each, written into its column slices)
# ---------------------------------------------------------------------------

def _write_passive_side(cols, prefix, chan, t):
    """Record a free kaon's decay as a passive measurement."""
    np.add(chan, _PASSIVE, out=cols[prefix + "rec"])
    cols[prefix + "time"][:] = t


def _tau_or_nan(tau, alive):
    """tau where alive, NaN elsewhere, gathered from the table [NaN, tau]."""
    return np.array([np.nan, tau])[alive.view(np.int8)]


def _write_left_active(cols, alive, l_rec, grid, ig):
    """Record the left kaon's active measurement at tau_l where it survived,
    a discarded side where it did not."""
    np.multiply(l_rec, alive, out=cols["l_rec"])
    # grid[ig] where alive, from a table of a NaN row and a grid row
    table = np.concatenate((np.full(len(grid), np.nan), grid))
    cols["l_time"][:] = table[ig + alive * len(grid)]


def _gen_a1(n, rng, cfg, k, model, cols):
    grid, ig = _draw_tau_l(n, rng, cfg)
    norm, p_unlike = _strangeness_tables(grid, cfg, k)
    survive = rng.random(n) < norm[ig]
    left_k0 = rng.random(n) < 0.5
    unlike = rng.random(n) < p_unlike[ig]
    _write_left_active(cols, survive, _K0BAR - left_k0, grid, ig)
    # the right kaon is K0 where exactly one of left_k0 and unlike holds
    np.multiply(_K0BAR - (left_k0 ^ unlike), survive, out=cols["r_rec"])
    cols["r_time"][:] = _tau_or_nan(cfg.tau_r0, survive)


def _gen_a2(n, rng, cfg, k, model, cols):
    grid, ig = _draw_tau_l(n, rng, cfg)
    chan, t_r = _draw_passive_side(n, rng, k, model)
    alive, l_rec = _sample_left_after_right_decay(chan, t_r, grid, ig, k,
                                                  model, rng)
    _write_left_active(cols, alive, l_rec, grid, ig)
    right_ok = t_r >= cfg.tau_r0
    np.multiply(classify_lifetime(t_r, cfg.tau_r0, cfg.window), right_ok,
                out=cols["r_rec"])
    cols["r_time"][:] = _tau_or_nan(cfg.tau_r0, right_ok)


def _gen_b(n, rng, cfg, k, model, cols):
    grid, ig = _draw_tau_l(n, rng, cfg)
    chan, t_r = _draw_passive_side(n, rng, k, model)
    pre = t_r < cfg.tau_r0
    # uniforms drawn unconditionally so the stream is data-independent
    r_k0 = rng.random(n) < 0.5
    alive_pre, lrec_pre = _sample_left_after_right_decay(chan, t_r, grid, ig,
                                                         k, model, rng)
    norm, p_unlike = _strangeness_tables(grid, cfg, k)
    # a tau_r0 no kaon survives to underflows both norms: the 0/0 = NaN
    # reaches no pair, since every right kaon then decays before tau_r0
    with np.errstate(invalid="ignore"):
        p_post = norm / pair_beam_norm(cfg.tau_r0, 0.0, k)
    alive_post = rng.random(n) < p_post[ig]
    unlike = rng.random(n) < p_unlike[ig]
    # right: active lifetime if it decayed before tau_r0, else strangeness;
    # each select is post + pre * (pre value - post)
    r_post = _K0BAR - r_k0
    r_pre = classify_lifetime(t_r, 0.0, cfg.window)
    np.add(r_post, pre * (r_pre - r_post), out=cols["r_rec"])
    # t_r where t_r < tau_r0, else tau_r0
    np.minimum(t_r, cfg.tau_r0, out=cols["r_time"])
    alive = alive_post ^ (pre & (alive_pre ^ alive_post))
    lrec_post = _K0BAR - (r_k0 ^ unlike)
    _write_left_active(cols, alive, lrec_post + pre * (lrec_pre - lrec_post),
                       grid, ig)


def _gen_c(n, rng, cfg, k, model, cols):
    grid, ig = _draw_tau_l(n, rng, cfg)
    chan, t_r = _draw_passive_side(n, rng, k, model)
    alive, l_rec = _sample_left_after_right_decay(chan, t_r, grid, ig, k,
                                                  model, rng)
    _write_left_active(cols, alive, l_rec, grid, ig)
    _write_passive_side(cols, "r_", chan, t_r)


def _gen_d(n, rng, cfg, k, model, cols):
    chan_l, t_l, chan_r, t_r = _sample_passive_pairs(n, k, model, rng)
    _write_passive_side(cols, "l_", chan_l, t_l)
    _write_passive_side(cols, "r_", chan_r, t_r)


_GENERATORS = {"A1": _gen_a1, "A2": _gen_a2, "B": _gen_b, "C": _gen_c, "D": _gen_d}


class ExperimentKind:
    ALL = tuple(_GENERATORS)


def run_experiment(kind: str, cfg: SimConfig, k: PhysicalConstants,
                   model: AmplitudeModel) -> EventSet:
    """Generate a deterministic event set for one of the eraser experiments.

    Only the first m = min(partitions, n_pairs) partitions hold pairs, and
    w = min(m, CPUs) workers fill them: worker i fills partitions i, i + w,
    ..., the calling thread is worker 0 and the other w - 1 run on a thread
    pool that ends before this returns.  Each partition writes only its own
    slice, so the result does not depend on w.  An exception from any
    partition is raised here.  The caller works rather than waits: a pool
    of all w workers, one more thread, raised perfbench's `generate` peak
    RSS from 121-122 to 133.5-134.5 MB (3 runs each, 2-CPU VM)."""
    gen = lookup(_GENERATORS, kind, "unknown experiment kind {!r}")
    n, parts = cfg.n_pairs, cfg.partitions
    # uninitialized: each generator writes every element of its slices
    cols = {col: np.empty(n, dtype) for col, dtype in EventSet._COLS.items()}
    filled = min(parts, n)  # partitions past the first n are empty
    workers = min(filled, usable_cpus())

    def fill(worker):
        for p in range(worker, filled, workers):
            start = p * (n // parts) + min(p, n % parts)
            size = n // parts + (p < n % parts)
            rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                               spawn_key=(p,)))
            gen(size, rng, cfg, k, model,
                {col: v[start:start + size] for col, v in cols.items()})

    # imported here, not with the package: it costs about 4 ms to import
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        helpers = [pool.submit(fill, i) for i in range(1, workers)]
        fill(0)
    for h in helpers:
        h.result()
    return EventSet(kind=kind, **cols)
