"""Event file format: one CSV row per simulated pair.

Columns: pair_id, then (procedure, observable, outcome, time, channel) for the
left and the right side.  A discarded side is written as 'discarded' with
empty fields.  Times use Python's shortest round-trip float representation, so
a file parses back to exactly the values that were written.

Both directions work on whole columns, one block of rows at a time.  A side
holds one of the nine records of ``sim.RECORDS``, and its record code is the
column both directions use.  A row fills one template: pair_id, the text
before the left time (by left code), the left time, the text between the
times (by code pair), the right time, the text after it (by right code).  The
writer checks the codes and live times, then gathers those texts and formats
only the live times.  The reader decodes and splits each block of about a
megabyte once, maps each side's four labels through one dict to its record
code and parses only the live times.  A file is UTF-8 text whose lines end
at LF, CR LF or CR, as in a text-mode file.

Both directions cut the rows into w contiguous ranges: the first runs here,
each other one in a forked child process, as formatting and parsing hold the
GIL.  w is the number of usable CPUs, lowered so that each worker gets a
minimum of live times to write or of body bytes to read, and 1 while another
thread is alive (the CLI writes after ``run_experiment`` has joined its
threads).  A writer child formats its range in its own memory, then streams
it for the parent to copy into the file; a reader worker counts the line
ends before its byte range to learn its first row.  Every w runs the same
range code, so bytes, columns and messages never depend on it, and every
child is reaped before the call returns or raises.

``read_events`` is the gate.  It accepts what the writer writes, and other
time spellings only as the time rule below allows; it rejects with a
ValueError naming the file and the line:

- a line without exactly 11 fields;
- a pair_id that is not the row index, which catches duplicated and dropped
  rows;
- a side whose labels are not one of the nine records:
  ``discarded``; active strangeness with outcome K0 or K0bar and no channel;
  active lifetime with outcome KS or KL and no channel; passive with a
  channel, the outcome that channel identifies (``decay.CHANNEL_OUTCOME``)
  and that outcome's observable;
- a discarded side with any non-empty field;
- a time of a recorded side that is not a finite, non-negative number, or
  whose text holds a non-ASCII character, ASCII whitespace or '_': float()
  reads those and the writer never writes them (other spellings float()
  reads, such as '1.5E3' or '+1.5', still read as their number);
- bytes that are not UTF-8.
"""

from __future__ import annotations

import os
import pickle
import shutil
import threading
import warnings
from functools import partial
from itertools import compress, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import usable_cpus
from .sim import RECORDS, EventSet

HEADER = ("pair_id,left_procedure,left_observable,left_outcome,left_time,"
          "left_channel,right_procedure,right_observable,right_outcome,"
          "right_time,right_channel")

_HEAD = HEADER.encode()
_FIELDS = 11
_WRITE_ROWS = 8192       # rows formatted and written at a time
_READ_CHARS = 1 << 20    # bytes read, or copied from a child, at a time
_WRITE_MIN_TIMES = 50_000  # live times each write worker gets at least
_READ_MIN_BYTES = 2 << 20  # body bytes each read worker gets at least


def _workers(work: int, minimum: int) -> int:
    """The number of workers that share `work`, each getting at least
    `minimum` of it; 1 where forking is unavailable or unsafe."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(usable_cpus(), work // minimum))


def _fan_out(own, tasks, receive) -> list:
    """[own(), receive(pipe_1), ...]: while own() runs here, task i runs in a
    forked child, which writes the bytes chunks it returns to pipe_i once it
    has them all.  A child whose task raised is a RuntimeError; every child
    is reaped before this returns or raises."""
    children, failed = [], True
    try:
        for task in tasks:
            r, w = os.pipe()
            try:
                with warnings.catch_warnings():
                    # from Python 3.12 fork() warns when the process has more
                    # than one OS thread, and numpy's OpenBLAS starts one;
                    # _workers forks only while no other Python thread runs
                    warnings.filterwarnings(
                        "ignore", r"This process \(pid=\d+\) is multi-threaded",
                        DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the child: no cleanup, no flush
                status = 1
                try:
                    chunks = list(task())
                    with open(w, "wb") as out:
                        out.writelines(chunks)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, open(r, "rb")))
        results = [own()] + [receive(pipe) for _, pipe in children]
        failed = False
    finally:
        for pid, pipe in children:
            pipe.close()
            if failed:  # kill those an error left running
                os.kill(pid, 9)  # SIGKILL; the signal module costs an import
            failed |= os.waitpid(pid, 0)[1] != 0
    if failed:
        raise RuntimeError("an event file worker process failed")
    return results


def _labels(procedure, outcome, channel) -> tuple:
    """Procedure, observable, outcome and channel fields of a record."""
    if procedure is None:
        return ("discarded", "", "", "")
    return (procedure.value, outcome.observable.value, outcome.value,
            "" if channel is None else channel.value)


# the fields of each record, by record code
_LABELS = [_labels(*record) for record in RECORDS]


# the row template: a row is its pair_id, _PRE[l], the left time, _MID[l, r],
# the right time and _POST[r], where l and r are the record codes of its left
# and right side; a discarded side has no time
_PRE = np.array([f",{p},{o},{u}," for p, o, u, _ in _LABELS], dtype=object)
_MID = np.array([[f",{c},{p},{o},{u}," for p, o, u, _ in _LABELS]
                 for *_, c in _LABELS], dtype=object)
_POST = np.array([f",{c}\n" for *_, c in _LABELS], dtype=object)


def _good_times(times):
    """Where `times` are finite and non-negative, as a live side's must be."""
    return (times >= 0.0) & (times < np.inf)


def _time_texts(rec, times) -> list[str]:
    """Each time's text: repr on a live side, '' on a discarded one."""
    text = np.full(len(rec), "", dtype=object)
    live = rec > 0
    text[live] = list(map(repr, times[live].tolist()))
    return text.tolist()


def _row_blocks(events: EventSet, lo: int, hi: int):
    """The encoded text of rows lo..hi, _WRITE_ROWS rows at a time."""
    for a in range(lo, hi, _WRITE_ROWS):
        b = min(a + _WRITE_ROWS, hi)
        l, r = events.l_rec[a:b], events.r_rec[a:b]
        pieces = [""] * (6 * (b - a))
        pieces[0::6] = map(str, range(a, b))
        pieces[1::6] = _PRE[l].tolist()
        pieces[2::6] = _time_texts(l, events.l_time[a:b])
        pieces[3::6] = _MID[l, r].tolist()
        pieces[4::6] = _time_texts(r, events.r_time[a:b])
        pieces[5::6] = _POST[r].tolist()
        yield "".join(pieces).encode()


def write_events(events: EventSet, path: str | Path) -> None:
    """Write the event set as CSV, in row ranges that forked workers format
    (see the module docstring).  A record code outside the table, or a live
    side's time that is not finite and non-negative, raises a ValueError
    before the file is opened."""
    for side, rec, time in (("left", events.l_rec, events.l_time),
                            ("right", events.r_rec, events.r_time)):
        bad = (rec < 0) | (rec >= len(RECORDS))
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(f"{side} record code {rec[row]} at row {row} is "
                             f"outside 0..{len(RECORDS) - 1}")
        bad = (rec > 0) & ~_good_times(time)
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(f"{side} time {float(time[row])!r} at row {row} "
                             "is not a finite, non-negative number")
    live = np.count_nonzero(events.l_rec) + np.count_nonzero(events.r_rec)
    w = _workers(int(live), _WRITE_MIN_TIMES)
    bounds = [len(events) * j // w for j in range(w + 1)]
    with open(path, "wb") as fh:
        fh.write(_HEAD + b"\n")
        _fan_out(lambda: fh.writelines(_row_blocks(events, 0, bounds[1])),
                 [partial(_row_blocks, events, lo, hi)
                  for lo, hi in zip(bounds[1:], bounds[2:])],
                 lambda pipe: shutil.copyfileobj(pipe, fh, _READ_CHARS))


# reader: the record code of each side's four labels
_RECORD_OF_LABELS = {labels: rec for rec, labels in enumerate(_LABELS)}


def _parse_side(fields, at, side, fail, plain):
    """Record codes and times of one side of the rows whose split fields are
    `fields`; the side's five fields start at offset `at` of each row.  Where
    their text is `plain` (ASCII without _UNWRITTEN characters), float()
    reads each time as _written_float does."""
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
        t = np.fromiter(map(float if plain else _written_float,
                            compress(time, live.tolist())), float, len(rows))
    except ValueError:
        row = next(i for i in rows if not _is_float(time[i]))
        raise fail(row, f"{side} time {time[row]!r} is not a number") from None
    ok = _good_times(t)
    if not ok.all():
        row = rows[np.argmin(ok)]
        raise fail(row, f"{side} time {time[row]!r} is not a finite, "
                        "non-negative number")
    times = np.full(len(recs), np.nan)
    times[rows] = t
    return recs, times


# characters float() accepts in a number but the writer never writes, besides
# every non-ASCII one: ASCII whitespace around it and '_' between its digits
_UNWRITTEN = " \t\x0b\x0c_"


def _written_float(text: str) -> float:
    """float(text), rejecting the _UNWRITTEN and non-ASCII characters."""
    if not text.isascii() or any(map(text.__contains__, _UNWRITTEN)):
        raise ValueError(f"{text!r} is not a time the writer writes")
    return float(text)


def _is_float(text: str) -> bool:
    try:
        _written_float(text)
    except ValueError:
        return False
    return True


def _split_rows(lines, ids, fail) -> list[str]:
    """The fields of `lines`, whose pair_ids must be `ids`, as one flat list
    of _FIELDS per row."""
    commas = list(map(str.count, lines, repeat(",")))
    if commas.count(_FIELDS - 1) != len(lines):
        row = next(i for i, c in enumerate(commas) if c != _FIELDS - 1)
        raise fail(row, f"expected {_FIELDS} fields, got {commas[row] + 1}")
    fields = ",".join(lines).split(",") if lines else []
    if fields[0::_FIELDS] != ids:
        row = next(i for i, pid in enumerate(fields[0::_FIELDS])
                   if pid != ids[i])
        raise fail(row, f"pair_id {fields[row * _FIELDS]!r} is not the row "
                        f"index {ids[row]}")
    return fields


# a row discarded on both sides is its pair_id followed by this text
_DEAD_ROW = (_PRE[0] + _MID[0, 0] + _POST[0]).removesuffix("\n")
_cut_dead_row = itemgetter(slice(None, -len(_DEAD_ROW)))


def _parse_block(text: str, first: int, path) -> dict:
    """Event columns of the rows in `text`, the first of which is row `first`
    of the file; `text` ends after a line end or at the end of the file."""
    if "\r" in text:  # as a text-mode file reads CR LF and CR
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    plain = text.isascii() and not any(map(text.__contains__, _UNWRITTEN))
    lines = text.removesuffix("\n").split("\n")
    n = len(lines)
    ids = list(map(str, range(first, first + n)))
    rows = np.arange(n)  # the rows split into fields
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

    def fail(row, msg):
        return ValueError(f"{path}: line {first + rows[row] + 2}: {msg}")

    fields = _split_rows(lines, ids, fail)
    cols = {}
    for side, prefix, at in (("left", "l_", 1), ("right", "r_", 6)):
        recs = np.zeros(n, dtype=np.int8)
        times = np.full(n, np.nan)
        recs[rows], times[rows] = _parse_side(fields, at, side, fail, plain)
        cols[prefix + "rec"], cols[prefix + "time"] = recs, times
    return cols


def _line_ends(block: bytes) -> int:
    """The number of line ends (LF, CR LF or CR) in `block`."""
    n = block.count(b"\n")
    if b"\r" in block:
        n += block.count(b"\r") - block.count(b"\r\n")
    return n


def _blocks(fh, lo: int, hi: int):
    """Bytes lo..hi of the binary file `fh` in blocks of about _READ_CHARS,
    each ending after a newline or at hi."""
    fh.seek(lo)
    while lo < hi and (block := fh.read(min(_READ_CHARS, hi - lo))):
        if not block.endswith(b"\n"):
            block += fh.readline(hi - lo - len(block))
        lo += len(block)
        yield block


def _read_range(path, start: int, lo: int, hi: int) -> list[dict]:
    """The event columns of bytes lo..hi of the file, block by block, with
    lines split as a text-mode file splits them; its body starts at byte
    `start`."""
    blocks = []
    with open(path, "rb") as fh:
        first = sum(map(_line_ends, _blocks(fh, start, lo)))
        for block in _blocks(fh, lo, hi):
            try:
                text = block.decode()
            except UnicodeDecodeError as exc:
                line = first + 2 + _line_ends(block[:exc.start])
                raise ValueError(f"{path}: line {line}: {block[exc.start:exc.end]!r}"
                                 f" is not UTF-8 ({exc.reason})") from None
            blocks.append(_parse_block(text, first, path))
            first += len(blocks[-1]["l_rec"])
    return blocks


def _pickled_range(path, start: int, lo: int, hi: int) -> list[bytes]:
    try:
        result = _read_range(path, start, lo, hi)
    except Exception as exc:  # raised again by the parent
        result = exc
    return [pickle.dumps(result, pickle.HIGHEST_PROTOCOL)]


def read_events(path: str | Path, kind: str = "unknown") -> EventSet:
    """Parse an event file back into an EventSet, in byte ranges that forked
    workers parse (see the module docstring); a malformed row raises a
    ValueError naming the line number."""
    with open(path, "rb") as fh:
        head = fh.read(len(_HEAD) + 2)
        end = head[len(_HEAD):]
        if not head.startswith(_HEAD) or end[:1] not in (b"", b"\n", b"\r"):
            raise ValueError(f"{path}: line 1: missing or wrong header")
        start = len(_HEAD) + len(end[:1]) + (end == b"\r\n")
        size = os.fstat(fh.fileno()).st_size
        w = _workers(size - start, _READ_MIN_BYTES)
        bounds = [start]
        for j in range(1, w):  # cut after the newline at or past each offset
            fh.seek(max(start + (size - start) * j // w - 1, bounds[-1]))
            fh.readline()
            bounds.append(fh.tell())
    ranges = list(zip(bounds, bounds[1:] + [size]))
    results = _fan_out(partial(_read_range, path, start, *ranges[0]),
                       [partial(_pickled_range, path, start, *r) for r in ranges[1:]],
                       lambda pipe: pipe.read())
    blocks = results[0]
    for result in map(pickle.loads, results[1:]):
        if isinstance(result, Exception):
            raise result
        blocks += result
    if not blocks:
        raise ValueError(f"{path}: no event records")
    cols = {c: np.concatenate([block[c] for block in blocks])
            for c in blocks[0]}
    return EventSet(kind=kind, **cols)
