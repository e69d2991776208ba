"""Event file: golden bytes, a round-trip property and the strict reader.

The golden files were written by the original field-by-field writer, before
the block-wise one replaced it, from ``run_experiment`` with GOLDEN_CFG and
default constants.  A writer change that moves a single byte fails here.

Both directions run in row ranges, one per worker process; ``forced_workers``
makes them use w workers however small the file, so the tests below check
that bytes, columns and error messages are the same for every w and that no
worker process outlives a call.
"""

import os
import re
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kaoneraser
from kaoneraser import (EventSet, ExperimentKind, SimConfig, eventfile,
                        read_events, run_experiment, write_events)
from kaoneraser.cli import main
from kaoneraser.sim import RECORDS

DATA = Path(__file__).parent / "data"
GOLDEN_CFG = SimConfig(n_pairs=400, seed=20040212, partitions=2)

# (procedure, observable, outcome, channel) labels of the nine side records
# the format admits, in record-code order: discarded; active K0, K0bar
# (strangeness) and KS, KL (lifetime); passive 2pi->KS, 3pi->KL (lifetime)
# and sl+->K0, sl-->K0bar (strangeness)
NINE = [("discarded", "", "", ""),
        ("active", "strangeness", "K0", ""),
        ("active", "strangeness", "K0bar", ""),
        ("active", "lifetime", "KS", ""),
        ("active", "lifetime", "KL", ""),
        ("passive", "lifetime", "KS", "2pi"),
        ("passive", "lifetime", "KL", "3pi"),
        ("passive", "strangeness", "K0", "sl+"),
        ("passive", "strangeness", "K0bar", "sl-")]
EDGE_TIMES = [0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308]
WORKER_COUNTS = (1, 2, 3)


def forced_workers(w):
    """Event IO runs with w workers, whatever the CPUs and the work."""
    return mock.patch.multiple(eventfile, usable_cpus=lambda: w,
                               _WRITE_MIN_TIMES=1, _READ_MIN_BYTES=1)


def assert_no_children():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def golden(kind):
    return DATA / f"golden_events_{kind}.csv"


def assert_same_columns(got, want):
    for col in EventSet._COLS:
        a, b = getattr(got, col), getattr(want, col)
        assert a.dtype == b.dtype, col
        np.testing.assert_array_equal(a, b, err_msg=col)


def reference_line(ev, i):
    """One row formatted field by field: the writer's specification."""
    fields = [str(i)]
    for p in ("l_", "r_"):
        rec = getattr(ev, p + "rec")[i]
        proc, obs, out, chan = NINE[rec]
        time = "" if rec == 0 else repr(float(getattr(ev, p + "time")[i]))
        fields += [proc, obs, out, time, chan]
    return ",".join(fields)


def test_records_match_nine():
    assert [("discarded", "", "", "") if proc is None else
            (proc.value, out.observable.value, out.value,
             "" if chan is None else chan.value)
            for proc, out, chan in RECORDS] == NINE


class TestGolden:
    @pytest.mark.parametrize("kind", ExperimentKind.ALL)
    def test_writer_reproduces_golden_bytes(self, k, model, kind, tmp_path):
        path = tmp_path / "events.csv"
        write_events(run_experiment(kind, GOLDEN_CFG, k, model), path)
        assert path.read_bytes() == golden(kind).read_bytes()

    @pytest.mark.parametrize("kind", ExperimentKind.ALL)
    def test_reader_returns_generated_columns(self, k, model, kind):
        assert_same_columns(read_events(golden(kind)),
                            run_experiment(kind, GOLDEN_CFG, k, model))

    def test_blocks_do_not_change_bytes_or_columns(self, k, model, tmp_path,
                                                    monkeypatch):
        # tiny blocks put many block boundaries inside the golden rows, which
        # mix discarded and recorded sides
        monkeypatch.setattr(eventfile, "_WRITE_ROWS", 7)
        monkeypatch.setattr(eventfile, "_READ_CHARS", 300)
        for kind in ("A1", "B"):
            ev = run_experiment(kind, GOLDEN_CFG, k, model)
            path = tmp_path / f"events_{kind}.csv"
            write_events(ev, path)
            assert path.read_bytes() == golden(kind).read_bytes()
            assert_same_columns(read_events(path), ev)


sides = st.tuples(st.integers(0, len(NINE) - 1),
                  st.one_of(st.sampled_from(EDGE_TIMES),
                            st.floats(min_value=0.0, allow_nan=False,
                                      allow_infinity=False)))


@st.composite
def event_sets(draw):
    rows = draw(st.lists(st.tuples(sides, sides), min_size=1, max_size=40))
    cols = {}
    for at, p in ((0, "l_"), (1, "r_")):
        cols[p + "rec"] = np.array([row[at][0] for row in rows], dtype=np.int8)
        cols[p + "time"] = np.array([t if rec > 0 else np.nan
                                     for rec, t in (row[at] for row in rows)])
    return EventSet(kind="unknown", **cols)


def check_round_trip(ev, path):
    write_events(ev, path)
    lines = path.read_text().split("\n")
    assert lines[0] == eventfile.HEADER and lines[-1] == ""
    assert lines[1:-1] == [reference_line(ev, i) for i in range(len(ev))]
    assert_same_columns(read_events(path), ev)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(ev=event_sets())
    def test_lines_match_reference_and_read_back(self, ev, tmp_path_factory):
        check_round_trip(ev, tmp_path_factory.mktemp("prop") / "events.csv")

    @settings(max_examples=100, deadline=None)
    @given(ev=event_sets())
    def test_three_workers(self, ev, tmp_path_factory):
        """Sets of one or two rows leave some ranges empty."""
        with forced_workers(3):
            check_round_trip(ev, tmp_path_factory.mktemp("prop") / "events.csv")
        assert_no_children()

    @pytest.mark.parametrize("w", [1, 3])
    def test_every_record_pair(self, tmp_path, w):
        """One row per ordered pair of record codes, so that every text the
        writer puts between the two times is written and read back."""
        codes = np.array([(left, right) for left in range(len(NINE))
                          for right in range(len(NINE))], dtype=np.int8)
        times = np.resize(EDGE_TIMES, len(codes))
        ev = EventSet(kind="unknown",
                      l_rec=codes[:, 0],
                      l_time=np.where(codes[:, 0] > 0, times, np.nan),
                      r_rec=codes[:, 1],
                      r_time=np.where(codes[:, 1] > 0, times[::-1], np.nan))
        with forced_workers(w):
            check_round_trip(ev, tmp_path / "events.csv")
        assert_no_children()


class TestWriterBoundary:
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("code", [-1, 9])
    def test_record_code_out_of_range(self, tmp_path, side, code):
        """Rejected naming the side and the first bad row, and no file is
        left; unchecked, -1 would index the last record, a passive sl-
        decay."""
        recs = {"left": np.array([1, 5, 8, 5], dtype=np.int8),
                "right": np.array([2, 6, 7, 6], dtype=np.int8)}
        recs[side][2:] = code
        ev = EventSet(kind="unknown",
                      l_rec=recs["left"], l_time=np.full(4, 1.5),
                      r_rec=recs["right"], r_time=np.full(4, 2.5))
        path = tmp_path / "events.csv"
        with pytest.raises(ValueError, match=re.escape(
                f"{side} record code {code} at row 2 is outside 0..8")):
            write_events(ev, path)
        assert not path.exists()

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("time", [np.nan, np.inf, -1.0])
    def test_live_time_not_finite_or_negative(self, tmp_path, side, time):
        """Rejected naming the side and the first bad row, and no file is
        left; written, it would be a file the reader rejects."""
        times = {"left": np.full(4, 1.5), "right": np.full(4, 2.5)}
        times[side][2:] = time
        ev = EventSet(kind="unknown",
                      l_rec=np.array([1, 5, 8, 5], dtype=np.int8),
                      l_time=times["left"],
                      r_rec=np.array([2, 6, 7, 6], dtype=np.int8),
                      r_time=times["right"])
        path = tmp_path / "events.csv"
        with pytest.raises(ValueError, match=re.escape(
                f"{side} time {time!r} at row 2 is not a finite, "
                "non-negative number")):
            write_events(ev, path)
        assert not path.exists()


def corrupted(tmp_path, kind, edit):
    """Write golden_events_<kind>.csv with `edit` applied to its list of
    lines (header first) and return the path."""
    lines = golden(kind).read_text().splitlines()
    edit(lines)
    path = tmp_path / "events.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def set_side(row, side, text):
    """Edit replacing the five fields of one side of data row `row`."""
    def edit(lines):
        fields = lines[row + 1].split(",")
        at = 1 if side == "left" else 6
        fields[at:at + 5] = text.split(",")
        lines[row + 1] = ",".join(fields)
    return edit


def assert_rejected(path, line):
    """Rejected naming `line`, with the same message for every worker count;
    returns the message."""
    messages = set()
    for w in WORKER_COUNTS:
        with forced_workers(w), pytest.raises(
                ValueError, match=re.escape(f"{path}: line {line}: ")) as info:
            read_events(path)
        messages.add(str(info.value))
        assert_no_children()
    assert len(messages) == 1, messages
    return messages.pop()


class TestStrictReader:
    @pytest.mark.parametrize("side", [
        "active,lifetime,K0,1.5,",         # K0 outcome labelled lifetime
        "passive,strangeness,K0,1.5,2pi",  # 2pi channel on a K0 outcome
        "passive,lifetime,KS,1.5,3pi",     # channel identifies the other outcome
        "passive,strangeness,K0,1.5,",     # passive without a channel
        "active,strangeness,K0,1.5,sl+",   # active with a channel
        "active,lifetime,KS,1.5,2pi",
        "sideways,strangeness,K0,1.5,",
    ])
    def test_label_combination_outside_the_nine(self, tmp_path, side):
        assert_rejected(corrupted(tmp_path, "C", set_side(7, "right", side)), 9)

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf", "1e400", "-1.0",
                                      "-5e-324", "abc", "",
                                      # float() reads these, the writer never
                                      # writes them
                                      " 1.5", "1.5\x0b", "1_0", "\u0661.5"])
    def test_bad_time(self, tmp_path, time):
        path = corrupted(tmp_path, "D", set_side(11, "left",
                                                 f"passive,lifetime,KS,{time},2pi"))
        assert_rejected(path, 13)

    def test_duplicated_row(self, tmp_path):
        assert_rejected(corrupted(tmp_path, "D", lambda l: l.insert(6, l[5])), 7)

    def test_dropped_row(self, tmp_path):
        assert_rejected(corrupted(tmp_path, "D", lambda l: l.pop(5)), 6)

    def test_duplicated_discarded_row(self, tmp_path):
        lines = golden("A1").read_text().splitlines()
        assert lines[4] == "3,discarded,,,,,discarded,,,,"
        assert_rejected(corrupted(tmp_path, "A1", lambda l: l.insert(5, l[4])), 6)

    @pytest.mark.parametrize("side", ["discarded,strangeness,,,",
                                      "discarded,,K0,,", "discarded,,,1.5,",
                                      "discarded,,,,2pi", "discarded,,,0.0,"])
    def test_discarded_side_with_fields(self, tmp_path, side):
        assert_rejected(corrupted(tmp_path, "A1", set_side(3, "left", side)), 5)

    def test_error_in_a_later_block_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(eventfile, "_READ_CHARS", 300)
        assert_rejected(corrupted(tmp_path, "A2", set_side(
            301, "right", "active,lifetime,K0,4.8,")), 303)

    def test_file_without_final_newline(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(golden("B").read_text().rstrip("\n"))
        assert_same_columns(read_events(path), read_events(golden("B")))

    @pytest.mark.parametrize("row", [3, 380])
    def test_undecodable_byte(self, tmp_path, row):
        lines = golden("D").read_bytes().split(b"\n")
        lines[row + 1] = lines[row + 1][:9] + b"\xff" + lines[row + 1][10:]
        path = tmp_path / "events.csv"
        path.write_bytes(b"\n".join(lines))
        assert assert_rejected(path, row + 2).endswith(
            "b'\\xff' is not UTF-8 (invalid start byte)")

    def test_undecodable_header(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_bytes(b"\xff" + golden("D").read_bytes())
        assert_rejected(path, 1)


class TestLineEnds:
    """Lines end where a text-mode file ends them: LF, CR LF or CR."""

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"])
    def test_crlf_and_cr_copies_read_the_same(self, tmp_path, end):
        path = tmp_path / "events.csv"
        path.write_bytes(golden("D").read_bytes().replace(b"\n", end))
        for w in WORKER_COUNTS:
            with forced_workers(w):
                assert_same_columns(read_events(path), read_events(golden("D")))

    def test_cr_line_end_counts_before_a_cut(self, tmp_path):
        """A later range's first row counts the lone CR ending line 6 too."""
        path = corrupted(tmp_path, "A2", set_side(
            380, "right", "active,lifetime,K0,4.8,"))
        path.write_bytes(path.read_bytes().replace(b"\n5,", b"\r5,", 1))
        assert_rejected(path, 382)

    @pytest.mark.parametrize("char", ["\x85", "\x0b", "\x0c", "\x1c", "\u2028"])
    def test_other_line_breaks_stay_in_their_line(self, tmp_path, char):
        """str.splitlines would end line 13 after the channel, which would
        make it valid and the rest of it an empty line 14."""
        path = corrupted(tmp_path, "D", set_side(
            11, "right", f"passive,lifetime,KS,1.5,2pi{char}"))
        assert "line 13: right side labels" in assert_rejected(path, 13)


def cuts(path, w):
    """Where the reader cuts `path` for w workers: the start of the first
    line at or after each of w - 1 equally spaced offsets into the body."""
    data = path.read_bytes()
    start = data.index(b"\n") + 1
    starts = [i + 1 for i in range(start - 1, len(data)) if data[i] == 10]
    return [next(s for s in starts if s >= start + (len(data) - start) * j // w)
            for j in range(1, w)]


def row_start(path, row):
    """Byte offset of data row `row` of `path`."""
    return sum(map(len, path.read_bytes().split(b"\n")[:row + 1])) + row + 1


class TestWorkerCounts:
    """Bytes, columns, line numbers and messages do not depend on the number
    of workers."""

    @pytest.mark.parametrize("w", WORKER_COUNTS)
    def test_golden_bytes_and_columns(self, k, model, tmp_path, w):
        for kind in ExperimentKind.ALL:
            ev = run_experiment(kind, GOLDEN_CFG, k, model)
            path = tmp_path / f"events_{kind}.csv"
            with forced_workers(w):
                write_events(ev, path)
                back = read_events(golden(kind))
            assert path.read_bytes() == golden(kind).read_bytes()
            assert_same_columns(back, ev)

    @pytest.mark.parametrize("w", [2, 3])
    def test_small_blocks_across_cuts(self, k, model, tmp_path, monkeypatch, w):
        """A1's rows discarded on both sides take the reader's cheap path,
        which must also hold at the cuts and block ends."""
        monkeypatch.setattr(eventfile, "_WRITE_ROWS", 7)
        monkeypatch.setattr(eventfile, "_READ_CHARS", 300)
        for kind in ("A1", "B"):
            ev = run_experiment(kind, GOLDEN_CFG, k, model)
            path = tmp_path / f"events_{kind}.csv"
            with forced_workers(w):
                write_events(ev, path)
                assert_same_columns(read_events(path), ev)
            assert path.read_bytes() == golden(kind).read_bytes()

    def test_error_in_the_last_range(self, tmp_path):
        path = corrupted(tmp_path, "A2", set_side(
            380, "right", "active,lifetime,K0,4.8,"))
        assert cuts(path, 3)[-1] < row_start(path, 380)
        assert_rejected(path, 382)

    def test_first_failing_line_in_file_order(self, tmp_path):
        def edit(lines):
            set_side(150, "left", "active,lifetime,K0,4.8,")(lines)
            set_side(380, "right", "active,lifetime,K0,4.8,")(lines)
        path = corrupted(tmp_path, "A2", edit)
        assert cuts(path, 3)[0] < row_start(path, 150) < cuts(path, 3)[1]
        assert_rejected(path, 152)

    @pytest.mark.parametrize("kind", ["D", "A1"])
    @pytest.mark.parametrize("edit", ["drop", "duplicate"])
    def test_row_dropped_or_duplicated_at_a_cut(self, tmp_path, kind, edit):
        """Every row but the first and last of a 20-row file in turn, so that
        each cut of 2 and 3 workers falls exactly on the dropped or
        duplicated row once; A1's are mostly rows discarded on both sides."""
        lines = golden(kind).read_text().splitlines(keepends=True)[:21]
        path = tmp_path / "events.csv"
        at_cut = set()
        for row in range(1, 19):
            body = lines[1:]
            if edit == "drop":
                del body[row]
            else:
                body.insert(row, body[row - 1])
            path.write_text(lines[0] + "".join(body))
            at_cut |= {w for w in (2, 3) if row_start(path, row) in cuts(path, w)}
            assert_rejected(path, row + 2)
        assert at_cut == {2, 3}

    @pytest.mark.parametrize("w", WORKER_COUNTS)
    def test_file_without_final_newline(self, tmp_path, w):
        path = tmp_path / "events.csv"
        path.write_text(golden("B").read_text().rstrip("\n"))
        with forced_workers(w):
            assert_same_columns(read_events(path), read_events(golden("B")))

    def test_fit_reports_a_later_range_error(self, tmp_path, capsys):
        path = corrupted(tmp_path, "A2", set_side(
            380, "right", "active,lifetime,K0,4.8,"))
        with forced_workers(3):
            assert main(["fit", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 382: right side labels")
        assert "Traceback" not in err
        assert_no_children()


class TestProcesses:
    """No worker process outlives a call, whatever ends it."""

    def test_no_child_left(self, k, model, tmp_path):
        path = tmp_path / "written.csv"
        bad = corrupted(tmp_path, "C", set_side(
            390, "right", "active,lifetime,K0,4.8,"))
        with forced_workers(3):
            write_events(run_experiment("D", GOLDEN_CFG, k, model), path)
            assert_no_children()
            read_events(path)
            assert_no_children()
            with pytest.raises(ValueError, match="line 392: "):
                read_events(bad)
            assert_no_children()

    def test_failed_worker_raises(self, k, model, tmp_path, monkeypatch):
        parent, row_blocks = os.getpid(), eventfile._row_blocks

        def fail_in_a_child(*args):
            if os.getpid() != parent:
                raise MemoryError
            return row_blocks(*args)
        monkeypatch.setattr(eventfile, "_row_blocks", fail_in_a_child)
        with forced_workers(3), pytest.raises(
                RuntimeError, match="event file worker process failed"):
            write_events(run_experiment("D", GOLDEN_CFG, k, model),
                         tmp_path / "events.csv")
        assert_no_children()

    def test_interrupt_kills_running_workers(self, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt
        monkeypatch.setattr(eventfile, "_pickled_range", lambda *args: time.sleep(60))
        monkeypatch.setattr(eventfile, "_read_range", interrupted)
        started = time.monotonic()
        with forced_workers(3), pytest.raises(KeyboardInterrupt):
            read_events(golden("D"))
        assert_no_children()
        assert time.monotonic() - started < 30

    def test_no_fork_while_another_thread_runs(self, k, model, tmp_path,
                                               monkeypatch):
        def no_fork():
            raise AssertionError("forked with another thread alive")
        monkeypatch.setattr(os, "fork", no_fork)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        path = tmp_path / "events.csv"
        try:
            with forced_workers(3):
                write_events(run_experiment("D", GOLDEN_CFG, k, model), path)
                back = read_events(path)
        finally:
            stop.set()
            thread.join()
        assert path.read_bytes() == golden("D").read_bytes()
        assert_same_columns(back, read_events(golden("D")))

    def test_fork_warning_on_a_multithreaded_process_is_ignored(
            self, k, model, tmp_path, monkeypatch):
        """From Python 3.12 os.fork warns when the process has more than one
        OS thread, as it has once numpy has started OpenBLAS's; the tests
        run with warnings as errors.  Here every fork warns as 3.12 would,
        and each still happens with one Python thread running."""
        fork, threads = os.fork, []

        def warning_fork():
            threads.append(threading.active_count())
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, "
                          "use of fork() may lead to deadlocks in the child.",
                          DeprecationWarning, stacklevel=2)
            return fork()
        monkeypatch.setattr(os, "fork", warning_fork)
        path = tmp_path / "events.csv"
        with forced_workers(2):
            write_events(run_experiment("D", GOLDEN_CFG, k, model), path)
            back = read_events(path)
        assert threads == [1, 1]
        assert path.read_bytes() == golden("D").read_bytes()
        assert_same_columns(back, read_events(golden("D")))

    def test_import_leaves_multiprocessing_out(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import kaoneraser; "
                "print('multiprocessing' in sys.modules)")
        src = Path(kaoneraser.__file__).parents[1]
        out = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                             capture_output=True, text=True, check=True).stdout
        assert out == "False\n"
