"""Event file format: one CSV row per simulated pair.

Columns: pair_id, then (procedure, observable, outcome, time, channel) for the
left and the right side.  A discarded side is written as 'discarded' with
empty fields.  Times use Python's shortest round-trip float representation, so
a file parses back to exactly the values that were written.

Both directions work on whole columns, one block of rows at a time, so the
memory they need beyond the event columns is one block.  A side holds one of
the nine records of ``sim.RECORDS``, and its record code is the column both
directions use.  The writer indexes a table of the text before and after the
time with each side's record code, formats only the live times and writes
each block with a single join; a record code outside 0..8 raises a
ValueError naming the side and the row before the file is opened.  The
reader streams the file in blocks of about a megabyte of text, splits each
block once, maps each side's four labels through one dict to its record
code, which is the column, and parses only the live times.

``read_events`` is the gate.  It accepts exactly what the writer writes, and
rejects with a ValueError naming the file and the line:

- a line without exactly 11 fields;
- a pair_id that is not the row index, which catches duplicated and dropped
  rows;
- a side whose labels are not one of the nine records:
  ``discarded``; active strangeness with outcome K0 or K0bar and no channel;
  active lifetime with outcome KS or KL and no channel; passive with a
  channel, the outcome that channel identifies (``decay.CHANNEL_OUTCOME``)
  and that outcome's observable;
- a discarded side with any non-empty field;
- a time of a recorded side that is not a finite, non-negative number.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .sim import RECORDS, EventSet, SimConfig

HEADER = ("pair_id,left_procedure,left_observable,left_outcome,left_time,"
          "left_channel,right_procedure,right_observable,right_outcome,"
          "right_time,right_channel")

_FIELDS = 11
_WRITE_ROWS = 8192       # rows formatted and written at a time
_READ_CHARS = 1 << 20    # text read at a time (readlines size hint)


def _labels(procedure, outcome, channel) -> tuple:
    """Procedure, observable, outcome and channel fields of a record."""
    if procedure is None:
        return ("discarded", "", "", "")
    return (procedure.value, outcome.observable.value, outcome.value,
            "" if channel is None else channel.value)


# the fields of each record, by record code
_LABELS = [_labels(*record) for record in RECORDS]


def _side_texts(start: str, end: str):
    """Text before and after the time of a side, by record code, with the
    separators `start` and `end` around the side; a discarded side reads
    'discarded,,,' + '' + ','."""
    return (np.array([f"{start}{p},{o},{u}," for p, o, u, _ in _LABELS], dtype=object),
            np.array([f",{c}{end}" for *_, c in _LABELS], dtype=object))


_LEFT_TEXT = _side_texts(",", ",")
_RIGHT_TEXT = _side_texts("", "\n")


def _side_pieces(events: EventSet, prefix: str, lo: int, hi: int, tables):
    """Per-row text before the time, the time and the text after it, for one
    side of rows lo..hi; `tables` holds the (before, after) texts by record
    code."""
    rec = getattr(events, prefix + "rec")[lo:hi]
    live = rec > 0
    times = getattr(events, prefix + "time")[lo:hi]
    if live.all():
        timetext = list(map(repr, times.tolist()))
    else:
        timetext = np.full(hi - lo, "", dtype=object)
        timetext[live] = list(map(repr, times[live].tolist()))
        timetext = timetext.tolist()
    before, after = tables
    return before[rec].tolist(), timetext, after[rec].tolist()


def write_events(events: EventSet, path: str | Path) -> None:
    """Write the event set as CSV, one block of rows at a time.  A record
    code outside the table raises a ValueError before the file is opened."""
    for side, rec in (("left", events.l_rec), ("right", events.r_rec)):
        bad = (rec < 0) | (rec >= len(RECORDS))
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(f"{side} record code {rec[row]} at row {row} is "
                             f"outside 0..{len(RECORDS) - 1}")
    with open(path, "w") as fh:
        fh.write(HEADER + "\n")
        for lo in range(0, len(events), _WRITE_ROWS):
            hi = min(lo + _WRITE_ROWS, len(events))
            pieces = [""] * (7 * (hi - lo))
            pieces[0::7] = map(str, range(lo, hi))
            pieces[1::7], pieces[2::7], pieces[3::7] = _side_pieces(
                events, "l_", lo, hi, _LEFT_TEXT)
            pieces[4::7], pieces[5::7], pieces[6::7] = _side_pieces(
                events, "r_", lo, hi, _RIGHT_TEXT)
            fh.write("".join(pieces))


# reader: the record code of each side's four labels
_RECORD_OF_LABELS = {labels: rec for rec, labels in enumerate(_LABELS)}


def _parse_side(fields, at, side, fail):
    """Record codes and times of one side of the rows whose split fields are
    `fields`; the side's five fields start at offset `at` of each row."""
    proc, obs, out, time, chan = (fields[at + j::_FIELDS] for j in range(5))
    recs = np.fromiter(map(_RECORD_OF_LABELS.get, zip(proc, obs, out, chan),
                           repeat(-1)), np.int8, len(proc))
    if (recs < 0).any():
        row = int(np.argmax(recs < 0))
        raise fail(row, f"{side} side labels "
                        f"{(proc[row], obs[row], out[row], chan[row])} "
                        "are not a valid record")
    live = recs > 0
    if "".join(compress(time, (~live).tolist())):
        row = next(i for i in np.flatnonzero(~live) if time[i])
        raise fail(row, f"discarded {side} side has time {time[row]!r}")
    rows = np.flatnonzero(live)
    try:
        t = np.fromiter(map(float, compress(time, live.tolist())), float,
                        len(rows))
    except ValueError:
        row = next(i for i in rows if not _is_float(time[i]))
        raise fail(row, f"{side} time {time[row]!r} is not a number") from None
    ok = (t >= 0.0) & (t < np.inf)
    if not ok.all():
        row = rows[np.argmin(ok)]
        raise fail(row, f"{side} time {time[row]!r} is not a finite, "
                        "non-negative number")
    times = np.full(len(recs), np.nan)
    times[rows] = t
    return recs, times


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _split_rows(lines, text, ids, fail) -> list[str]:
    """The fields of `lines`, whose concatenation is `text` and whose
    pair_ids must be `ids`, as one flat list of _FIELDS per row."""
    commas = list(map(str.count, lines, repeat(",")))
    if commas.count(_FIELDS - 1) != len(lines):
        row = next(i for i, c in enumerate(commas) if c != _FIELDS - 1)
        raise fail(row, f"expected {_FIELDS} fields, got {commas[row] + 1}")
    if text and not text.endswith("\n"):  # a file's last line may lack one
        text += "\n"
    fields = text.replace("\n", ",").split(",")
    fields.pop()  # the empty string after the last row's separator
    if fields[0::_FIELDS] != ids:
        row = next(i for i, pid in enumerate(fields[0::_FIELDS])
                   if pid != ids[i])
        raise fail(row, f"pair_id {fields[row * _FIELDS]!r} is not the row "
                        f"index {ids[row]}")
    return fields


# a row discarded on both sides is its pair_id followed by this text
_DEAD_ROW = ",discarded,,,,,discarded,,,,\n"
_cut_dead_row = itemgetter(slice(None, -len(_DEAD_ROW)))


def _parse_block(lines: list[str], first: int, path) -> dict:
    """Event columns of the rows in `lines`, the first of which is row
    `first` of the file."""
    n = len(lines)
    ids = list(map(str, range(first, first + n)))
    rows = np.arange(n)  # the rows split into fields
    text = "".join(lines)
    if _DEAD_ROW in text:
        # cheap path for rows discarded on both sides: compare a row's end
        # with _DEAD_ROW, then the text before it with the row's pair_id
        ends = list(map(str.endswith, lines, repeat(_DEAD_ROW)))
        heads = map(_cut_dead_row, compress(lines, ends))
        dead = np.zeros(n, dtype=bool)
        dead[np.flatnonzero(ends)] = list(map(str.__eq__, heads,
                                              compress(ids, ends)))
        rows = np.flatnonzero(~dead)
        keep = (~dead).tolist()
        lines, ids = list(compress(lines, keep)), list(compress(ids, keep))
        text = "".join(lines)

    def fail(row, msg):
        return ValueError(f"{path}: line {first + rows[row] + 2}: {msg}")

    fields = _split_rows(lines, text, ids, fail)
    cols = {}
    for side, prefix, at in (("left", "l_", 1), ("right", "r_", 6)):
        recs = np.zeros(n, dtype=np.int8)
        times = np.full(n, np.nan)
        recs[rows], times[rows] = _parse_side(fields, at, side, fail)
        cols[prefix + "rec"], cols[prefix + "time"] = recs, times
    return cols


def read_events(path: str | Path, kind: str = "unknown",
                config: SimConfig | None = None) -> EventSet:
    """Parse an event file back into an EventSet; a malformed row raises a
    ValueError naming the line number."""
    blocks = []
    n = 0
    with open(path) as fh:
        if fh.readline().rstrip("\n") != HEADER:
            raise ValueError(f"{path}: line 1: missing or wrong header")
        while lines := fh.readlines(_READ_CHARS):
            blocks.append(_parse_block(lines, n, path))
            n += len(lines)
    if n == 0:
        raise ValueError(f"{path}: no event records")
    cols = {c: np.concatenate([block[c] for block in blocks])
            for c in blocks[0]}
    if config is None:
        config = SimConfig(n_pairs=n)
    return EventSet(kind=kind, config=config, **cols)
