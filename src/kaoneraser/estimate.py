"""Estimators: from the record codes of an event set to the count table of
classified pairs per time-difference bin and outcome pair, and from that
table to per-bin probabilities and fitted visibilities.

A record code maps to its outcome code (an index into OUTCOME_BY_CODE)
through one table, _RECORD_OUT; outcome codes 0-1 are strangeness (K0,
K0bar), 2-3 lifetime (K_S, K_L), whatever procedure measured them.  A
discarded side (record code 0) maps to 0 but never reaches a cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import PhysicalConstants
from .sim import OUTCOME_BY_CODE, RECORDS, EventSet

_RECORD_OUT = np.array([0] + [OUTCOME_BY_CODE.index(out) for _, out, _ in RECORDS[1:]],
                       dtype=np.int8)


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


class Binning:
    """The one binning of time differences: [lo, hi) in ``bins`` of ``width``."""

    lo = -10.0
    hi = 10.0
    width = 0.5
    bins = 40

    @classmethod
    def centers(cls):
        return cls.lo + cls.width * (np.arange(cls.bins) + 0.5)


@dataclass(frozen=True, eq=False)
class CountTable:
    """Classified pairs per (time-difference bin, left outcome code, right
    outcome code): ``counts`` has shape (bins, 4, 4), outcome codes as
    OUTCOME_BY_CODE.  Iterating it yields its nonzero cells, bin by bin, as
    Estimate rows."""

    counts: np.ndarray = field(repr=False)

    def __iter__(self):
        centers = Binning.centers()
        totals = self.counts.sum(axis=(1, 2))
        for b in np.flatnonzero(totals):
            n = int(totals[b])
            cells = self.counts[b].reshape(16)
            for code in np.flatnonzero(cells):
                p = cells[code] / n
                yield Estimate(p_hat=p, stderr=math.sqrt(p * (1.0 - p) / n), n=n,
                               bin=float(centers[b]),
                               pair=(OUTCOME_BY_CODE[code // 4].value,
                                     OUTCOME_BY_CODE[code % 4].value),
                               count=int(cells[code]))


def lifetime_share(rec: np.ndarray) -> float:
    """The share of the record codes ``rec`` whose outcome is a lifetime."""
    return float(np.mean(_RECORD_OUT[rec] >= 2))


def estimate_probs(events: EventSet) -> CountTable:
    """Per-bin counts of ordered outcome pairs among classified pairs.

    Discarded pairs never enter a cell (survivor normalization), whatever
    time their discarded side holds.  The bin coordinate x = (dt - lo) / width
    is computed in place over whole columns, and one mask, classified and
    0 <= x < bins, selects the pairs that are gathered; a NaN x fails it.  On
    that range floor(x) is the integer conversion of x, and floor(x) < bins
    exactly when x < bins, so no floor is taken.  Record codes map to outcome
    codes through a 9-entry table.
    """
    if len(events) == 0:
        raise ValueError("empty event set")
    nbins = Binning.bins
    x = np.subtract(events.l_time, events.r_time)
    x -= Binning.lo
    x /= Binning.width
    keep = events.classified
    keep &= x >= 0
    keep &= x < nbins
    j = np.flatnonzero(keep)
    # one pass: cell = bin * 16 + left outcome code * 4 + right outcome code
    cell = (x[j].astype(np.intp) * 16 + _RECORD_OUT[events.l_rec[j]] * 4
            + _RECORD_OUT[events.r_rec[j]])
    counts = np.bincount(cell, minlength=16 * nbins).reshape(nbins, 4, 4)
    return CountTable(counts)


def fit_visibility(table: CountTable, k: PhysicalConstants) -> list[FitRow]:
    """Reconstruct the oscillation visibility per time-difference bin from the
    strangeness-strangeness asymmetry A = (unlike - like)/(unlike + like) =
    V cos(delta_m * delta_tau), over the bins with such pairs.  Bins where the
    cosine is below 0.1 in size are flagged as excluded, not dropped."""
    ss = table.counts[:, :2, :2]  # outcome codes 0 and 1: K0 and K0bar
    like_all, unlike_all = ss[:, 0, 0] + ss[:, 1, 1], ss[:, 0, 1] + ss[:, 1, 0]
    centers = Binning.centers()
    rows = []
    for b in np.flatnonzero(like_all + unlike_all):
        like, unlike = int(like_all[b]), int(unlike_all[b])
        n_ss = like + unlike
        a = (unlike - like) / n_ss
        # add-half smoothing keeps the error finite at 0 or n_ss counts
        p_smooth = (unlike + 0.5) / (n_ss + 1.0)
        sig_a = 2.0 * math.sqrt(p_smooth * (1.0 - p_smooth) / n_ss)
        center = float(centers[b])
        phase = k.delta_m * center  # a float product overflows to inf
        if not math.isfinite(phase):
            raise OverflowError(f"delta_m * delta_tau at {center} overflows")
        c = math.cos(phase)
        rows.append(FitRow(delta_tau=center, v_hat=a / c, stderr=sig_a / abs(c),
                           n_ss=n_ss, excluded=abs(c) < 0.1))
    return rows
