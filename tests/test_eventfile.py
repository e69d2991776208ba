"""Event file: golden bytes, a round-trip property and the strict reader.

The golden files were written by the original field-by-field writer, before
the block-wise one replaced it, from ``run_experiment`` with GOLDEN_CFG and
default constants.  A writer change that moves a single byte fails here.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaoneraser import (EventSet, ExperimentKind, SimConfig, eventfile,
                        read_events, run_experiment, write_events)
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
    return EventSet(kind="unknown", config=SimConfig(n_pairs=len(rows)), **cols)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(ev=event_sets())
    def test_lines_match_reference_and_read_back(self, ev, tmp_path_factory):
        path = tmp_path_factory.mktemp("prop") / "events.csv"
        write_events(ev, path)
        lines = path.read_text().split("\n")
        assert lines[0] == eventfile.HEADER and lines[-1] == ""
        assert lines[1:-1] == [reference_line(ev, i) for i in range(len(ev))]
        assert_same_columns(read_events(path), ev)


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
        ev = EventSet(kind="unknown", config=SimConfig(n_pairs=4),
                      l_rec=recs["left"], l_time=np.full(4, 1.5),
                      r_rec=recs["right"], r_time=np.full(4, 2.5))
        path = tmp_path / "events.csv"
        with pytest.raises(ValueError, match=re.escape(
                f"{side} record code {code} at row 2 is outside 0..8")):
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
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: ")):
        read_events(path)


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
                                      "-5e-324", "abc", ""])
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
