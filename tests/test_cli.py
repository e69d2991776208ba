"""Command line surface: outputs, reproducibility and exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kaoneraser import (ExperimentKind, PhysicalConstants, SimConfig,
                        closed_form_joint, cli, pair_visibility, read_events,
                        strangeness_probs)
from kaoneraser.cli import main


def run(*argv):
    return main(list(argv))


# sha256 of the files `analytic` writes with the default config
PINNED_ANALYTIC_SHA256 = {
    "single_kaon.csv": "bb1088c9e28c95e6a7f2a4cc3924b1ce18920f995fdf4e181eeba0fab6b15def",
    "joint.csv": "5be7b20e333e75b4a99c2840a034d06b4a70109cdc795a817154f22bf63b5277",
}


class TestAnalytic:
    def test_writes_curve_files(self, tmp_path):
        assert run("analytic", "--out", str(tmp_path)) == 0
        single = (tmp_path / "single_kaon.csv").read_text().splitlines()
        joint = (tmp_path / "joint.csv").read_text().splitlines()
        assert single[0].startswith("# config:")
        assert single[1] == "tau,p_k0,p_k0bar,p_ks,p_kl,visibility"
        assert single[2] == "0,1,0,0.5,0.5,1"
        assert joint[1] == "delta_tau,p_like,p_unlike,p_s_ks,p_s_kl,visibility"
        # p_like vanishes at delta_tau = 0
        zero_row = [l for l in joint[2:] if l.startswith("0,") or l.startswith("-0,")]
        assert zero_row and zero_row[0].split(",")[1] == "0"

    def test_outputs_are_pinned(self, tmp_path):
        """Byte for byte, so a last-bit change of a closed form that reaches
        the 12 printed digits shows here (the digests of
        perfbench/workloads.PINNED)."""
        assert run("analytic", "--out", str(tmp_path)) == 0
        for name, digest in PINNED_ANALYTIC_SHA256.items():
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == digest, name

    def test_regeneration_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run("analytic", "--out", str(out)) == 0
        assert (a / "single_kaon.csv").read_bytes() == (b / "single_kaon.csv").read_bytes()
        assert (a / "joint.csv").read_bytes() == (b / "joint.csv").read_bytes()

    @pytest.mark.parametrize("doc,message", [
        ({"tau_grid": 3}, "'tau_grid' must be a list of numbers, got 3"),
        ({"delta_tau_grid": [0.5, float("inf")]},
         "'delta_tau_grid' entry must be a finite number, got inf"),
        ({"tau_grid": []}, "'tau_grid' must not be empty"),
        ({"delta_tau_grid": []}, "'delta_tau_grid' must not be empty"),
        ({"tau_grid": [0.5, -1]}, "'tau_grid' entry must be nonnegative, got -1.0")])
    def test_bad_grid_rejected_naming_key(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("analytic", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: config key {message}\n"
        assert not out.exists()

    def test_config_grids_match_the_float_oracles(self, tmp_path, k):
        """The grids are evaluated in array calls; each printed value is the
        float oracle's at that entry, to the 12 printed digits."""
        taus, dts = [0.0, 0.02627, 37.5], [-12.3, 0.0, 59.9]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau_grid": taus, "delta_tau_grid": dts}))
        assert run("analytic", "--config", str(cfg), "--out", str(tmp_path)) == 0
        # P[K_S] of a kaon born as K0 is twice the pair form with the
        # partner's K0bar at 0 on the left
        p_ks = [2.0 * closed_form_joint("s_ks", -t, k) for t in taus]
        want = {
            "single_kaon.csv": [
                (t, *strangeness_probs(t, k), ks, 1.0 - ks,
                 pair_visibility(t, k)) for t, ks in zip(taus, p_ks)],
            "joint.csv": [
                (dt, *(closed_form_joint(kind, dt, k) for kind in
                       ("ss_like", "ss_unlike", "s_ks", "s_kl")),
                 pair_visibility(dt, k)) for dt in dts]}
        for name, rows in want.items():
            got = np.loadtxt(tmp_path / name, delimiter=",", skiprows=2)
            np.testing.assert_allclose(got, rows, rtol=1e-11, atol=0)

    def test_grids_take_one_call_per_column(self, tmp_path, monkeypatch):
        """However long the grid, cmd_analytic calls each closed form the
        same number of times: no loop over the entries.  Four calls make the
        joint columns and one the K_S column of the single-kaon curve."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return closed_form_joint(*args, **kwargs)
        monkeypatch.setattr(cli, "closed_form_joint", counted)
        counts = []
        for n in (3, 300):
            cfg = tmp_path / f"cfg_{n}.json"
            grid = np.linspace(-30.0, 30.0, n).tolist()
            cfg.write_text(json.dumps({"delta_tau_grid": grid}))
            calls.clear()
            assert run("analytic", "--config", str(cfg),
                       "--out", str(tmp_path / f"out_{n}")) == 0
            counts.append(len(calls))
        assert counts[0] == counts[1] == 5

    def test_constants_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constants": {"delta_m": 0.0},
                                   "out": str(tmp_path)}))
        assert run("analytic", "--config", str(cfg)) == 0
        rows = (tmp_path / "single_kaon.csv").read_text().splitlines()[2:]
        # no mass difference, no oscillation: p_k0 stays above 1/2
        assert all(float(r.split(",")[1]) >= 0.5 for r in rows)


class TestSimulate:
    def test_event_file_and_summary(self, tmp_path):
        assert run("simulate", "--kind", "D", "--pairs", "1000", "--seed", "3",
                   "--out", str(tmp_path)) == 0
        lines = (tmp_path / "events_D.csv").read_text().splitlines()
        assert len(lines) == 1001  # header + one record per pair
        assert "discarded" not in (tmp_path / "events_D.csv").read_text()
        summary = json.loads((tmp_path / "summary_D.json").read_text())
        assert summary["counts"]["records"] == 1000
        assert summary["counts"]["classified"] + summary["counts"]["discarded"] == 1000
        assert summary["seed"] == 3
        assert summary["rng_scheme"]
        assert summary["estimates"]

    def test_run_defaults(self, tmp_path, monkeypatch):
        """Without --pairs and --out, SimConfig's 10 000 pairs, written to
        the working directory."""
        monkeypatch.chdir(tmp_path)
        assert run("simulate", "--kind", "A1") == 0
        summary = json.loads((tmp_path / "summary_A1.json").read_text())
        assert summary["n_pairs"] == summary["counts"]["records"] == 10_000
        assert (tmp_path / "events_A1.csv").exists()

    def test_b_summary_reports_half_split(self, tmp_path):
        assert run("simulate", "--kind", "B", "--pairs", "20000",
                   "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "summary_B.json").read_text())
        assert abs(summary["pre_detector_fraction"] - 0.5) < 0.02

    def test_missing_kind_is_validation_error(self, tmp_path, capsys):
        assert run("simulate", "--pairs", "10", "--out", str(tmp_path)) == 1
        assert "kind" in capsys.readouterr().err

    def test_bad_kind_flag(self, tmp_path):
        assert run("simulate", "--kind", "Z", "--out", str(tmp_path)) == 1

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}')
        assert run("simulate", "--kind", "D", "--config", str(cfg)) == 1

    @pytest.mark.parametrize("text,key", [
        ('{"kind": "A1", "n_pairs": 100, "seed": 1, "seed": 2}', "seed"),
        ('{"kind": "A1", "n_pairs": 100, "seed": 1, '
         '"constants": {"delta_m": 0.4737, "delta_m": 5}}', "delta_m")])
    def test_duplicate_config_key_rejected(self, tmp_path, capsys, text, key):
        """json.loads keeps a duplicated key's last value; the boundary
        rejects it instead, at the top level and inside 'constants'."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: duplicate JSON key {key!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("data,message", [
        (b'{"seed": 1,}', "Expecting property name enclosed in double quotes: "
                          "line 1 column 12 (char 11)"),
        (b'\xff{"seed": 1}', "'utf-8' codec can't decode byte 0xff in "
                             "position 0: invalid start byte"),
        (b'[{"seed": 1}]', "config file must hold a JSON object"),
        (b'{"seed": 1, "bogus": 2}', "unknown config key(s): ['bogus']")],
        ids=["invalid-json", "not-utf8", "not-an-object", "unknown-key"])
    def test_config_file_error_names_the_file(self, tmp_path, capsys, data,
                                              message):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        out = tmp_path / "out"
        assert run("simulate", "--kind", "A1", "--config", str(cfg),
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not out.exists()

    def test_invalid_pairs(self, tmp_path):
        assert run("simulate", "--kind", "D", "--pairs", "0",
                   "--out", str(tmp_path)) == 1

    @pytest.mark.parametrize("key,value", [
        ("n_pairs", 1.5), ("seed", "7"), ("partitions", True),
        ("n_pairs", float("nan")), ("partitions", [2])])
    def test_non_integer_setting_rejected(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run("simulate", "--kind", "A1", "--config", str(cfg),
                   "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            f"error: {key} must be an integer, got {value!r}\n")
        assert not (tmp_path / "events_A1.csv").exists()

    @pytest.mark.parametrize("doc,message", [
        ({"tau_l_grid": 5}, "tau_l_grid must be a nonempty list or tuple of "
                            "nonnegative numbers, got 5"),
        ({"tau_l_grid": [1e400]}, "tau_l_grid must be a finite number, got inf"),
        ({"tau_r0": float("nan")},
         "tau_r0 must be a finite number, got nan"),
        ({"tau_r0": "abc"}, "tau_r0 must be a finite number, got 'abc'"),
        ({"window": "w"}, "window must be a finite number, got 'w'"),
        ({"constants": []}, "constants must be a JSON object, got []"),
        ({"constants": None}, "constants must be a JSON object, got None"),
        ({"constants": {"gamma_S": "x"}},
         "constants field 'gamma_S' must be a finite number, got 'x'"),
        ({"constants": {"delta_m": float("nan")}},
         "constants field 'delta_m' must be a finite number, got nan"),
        ({"out": 5}, "config key 'out' must be a path string, got 5"),
        ({"constants": {"epsilon_overlap": 3.2e-3}},
         "unknown constants field(s): ['epsilon_overlap']"),
        ({"n_pairs": 1e19}, f"n_pairs must be at most {np.iinfo(np.intp).max}, "
                            f"got {10**19}"),
        # the nonleptonic branching ratios are the semileptonic complements
        ({"constants": {"br_2pi_S": 0.9989}},
         "unknown constants field(s): ['br_2pi_S']"),
        ({"constants": {"br_3pi_L": 0.34}},
         "unknown constants field(s): ['br_3pi_L']")])
    def test_bad_value_rejected_naming_key(self, tmp_path, monkeypatch, capsys,
                                           doc, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        pairs = [] if "n_pairs" in doc else ["--pairs", "10"]  # the flag wins
        assert run("simulate", "--kind", "A1", *pairs,
                   "--config", "cfg.json") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_negative_seed_flag_names_seed(self, tmp_path, capsys):
        assert run("simulate", "--kind", "A1", "--pairs", "10", "--seed", "-5",
                   "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -5\n"

    def test_numeric_settings_reach_the_events(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau_r0": 3, "window": 4.8,
                                   "tau_l_grid": [3, 5.5]}))
        assert run("simulate", "--kind", "B", "--pairs", "200", "--config",
                   str(cfg), "--out", str(tmp_path)) == 0
        ev = read_events(tmp_path / "events_B.csv")
        # record code 0 is a discarded side, 1 and 2 active K0 and K0bar
        assert set(ev.l_time[ev.l_rec > 0]) == {3.0, 5.5}
        assert set(ev.r_time[np.isin(ev.r_rec, (1, 2))]) == {3.0}

    def test_integral_float_setting_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_pairs": 1e3, "seed": 3.0, "partitions": 2.0}')
        assert run("simulate", "--kind", "A1", "--config", str(cfg),
                   "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "summary_A1.json").read_text())
        assert (summary["n_pairs"], summary["seed"], summary["partitions"]) == (1000, 3, 2)

    def test_sampler_failure_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("rejection envelope violated; amplitude math bug")
        monkeypatch.setattr("kaoneraser.sim._sample_pair_times", broken)
        assert run("simulate", "--kind", "D", "--pairs", "10",
                   "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            "error: rejection envelope violated; amplitude math bug\n")

    def test_out_of_memory_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        def too_big(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with "
                              "shape (1000000000000,) and data type float64")
        monkeypatch.setattr("kaoneraser.cli.run_experiment", too_big)
        out = tmp_path / "out"
        assert run("simulate", "--kind", "A1", "--pairs", "1000000000000",
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: not enough memory for this run (Unable "
                              "to allocate 7.28 TiB")
        assert "'n_pairs'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ExperimentKind.ALL)
    def test_regeneration_is_byte_identical(self, tmp_path, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"partitions": 3}))
        runs = [tmp_path / "a", tmp_path / "elsewhere" / "b"]
        for out in runs:
            assert run("simulate", "--kind", kind, "--pairs", "3000", "--seed",
                       "11", "--config", str(cfg), "--out", str(out)) == 0
        for name in (f"events_{kind}.csv", f"summary_{kind}.json"):
            a, b = (out / name for out in runs)
            assert a.read_bytes() == b.read_bytes(), name

    @pytest.mark.parametrize("kind", ExperimentKind.ALL)
    def test_integer_times_give_the_same_events(self, tmp_path, kind):
        """tau_r0, window and tau_l_grid reach SimConfig as JSON spells them:
        5 and 5.0, [3, 5] and [3.0, 5.0], and a grid entry beyond the int64
        range and its float each write the same event file."""
        for i, docs in enumerate((
                ({"tau_r0": 5, "window": 5}, {"tau_r0": 5.0, "window": 5.0}),
                ({"tau_l_grid": [3, 5]}, {"tau_l_grid": [3.0, 5.0]}),
                ({"tau_l_grid": [3, 10 ** 30]}, {"tau_l_grid": [3.0, 1e30]}))):
            for name, doc in zip(("int", "float"), docs):
                cfg = tmp_path / f"{name}{i}.json"
                cfg.write_text(json.dumps(doc))
                assert run("simulate", "--kind", kind, "--pairs", "20000",
                           "--seed", "3", "--config", str(cfg),
                           "--out", str(tmp_path / f"{name}{i}")) == 0
            a, b = (tmp_path / f"{name}{i}" / f"events_{kind}.csv"
                    for name in ("int", "float"))
            assert a.read_bytes() == b.read_bytes(), docs


# sha256 of the files `simulate` then `fit` write for 20 000 pairs, seed 5,
# config {"partitions": 3}; None where `fit` exits 1 (no strangeness-
# strangeness pairs: A2 by design, D at this size).  Taken with CPython 3.11
# and numpy 2.4 on x86-64 Linux.
PINNED_CLI_SHA256 = {
    "A1": ("16283211f6fe6cb846a3f5e33bb2d772fd1fb2bb6af77d342f3e4150230e7417",
           "7247b02147922a328a87c1aab6cd80ece490ee860655c9fd989c9819767f74a0",
           "f3f3701c034581352152cf32b0ed8ba99efc896cccb12a65b62370f951bbc8c7"),
    "A2": ("1d3a4f5b5c28819bdcbf26d2d24826baea761b339077d1e208fbf33aef77f43c",
           "e1a63eba7f12871855c4c36c24ccd210f4c84c0b7795c191fffd5d3abfe2f509",
           None),
    "B": ("822e729fa7eb90af2f5704dffe3c7c8d785841356c9f73a61fa385fe94e13325",
          "e6a43f46953898e59f6a310c5212f3e8929a4f728b515e0553b7b8ecfb6d81db",
          "84b7e4a21311b43d5085b478e0de3f790221cd52adcb50e287eb5a5c4626e301"),
    "C": ("376f57862dc8fb768c3085cbe22e5e315397822f0ee5df584ae2aa6d8c7db6d1",
          "7513074339d75d66deb4c30da8ef66b8aba6b874b84d795d6dc7849f0702322a",
          "3176ed7b5497ed76cc525514bffef817f356b4b51ebd9c68bfd0cb83edc7e604"),
    "D": ("5d019cfde007ca0690e99c36f1fc86b86a6fd001f1a059e1442414d6321a5148",
          "718481fa987b7d2bbf6e8ca575d71610e47c68011ad8487a3c1151a4fb4f13cf",
          None),
}


@pytest.mark.parametrize("kind", ExperimentKind.ALL)
def test_pinned_cli_outputs(tmp_path, capsys, kind):
    """Event file, summary and visibility table byte for byte."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"partitions": 3}))
    out = tmp_path / "out"
    assert run("simulate", "--kind", kind, "--pairs", "20000", "--seed", "5",
               "--config", str(cfg), "--out", str(out)) == 0
    events, summary, visibility = PINNED_CLI_SHA256[kind]
    assert run("fit", str(out / f"events_{kind}.csv"),
               "--out", str(out)) == (0 if visibility else 1)
    capsys.readouterr()
    got = [hashlib.sha256(path.read_bytes()).hexdigest() if path.exists()
           else None
           for path in (out / f"events_{kind}.csv", out / f"summary_{kind}.json",
                        out / "visibility.csv")]
    assert got == [events, summary, visibility]


# sha256 of `kaoneraser verify` stdout with the default constants and each
# worst deviation masked, so names, statuses, tolerances, details and line
# order are pinned; taken with CPython 3.11 on x86-64 Linux (the details print
# libm values, which another libm may round differently).  The deviations
# depend on the last bits of numpy's exp and cos, which its AVX512 (X86_V4)
# loops round otherwise than the AVX2 ones: active-passive-coincidence reads
# 1.176e-15 with them and 1.247e-15 without.  Each is held to its tolerance.
VERIFY_REPORT_SHA256 = "6e7787c8839729090776dec3e731a7ae7d89f3a95365701986b3ab3c81ab870c"
_WORST = re.compile(r"worst deviation (\S+) \(tolerance (\S+)\)")
_CHECK = re.compile(r"^(?:PASS|FAIL|WARN) (\S+): ", re.MULTILINE)


def _check_verify_report(out: str) -> None:
    """The report matches the pin once its deviations are masked, and each
    line's deviation is below its tolerance."""
    masked = _WORST.sub(r"worst deviation * (tolerance \2)", out)
    assert hashlib.sha256(masked.encode()).hexdigest() == VERIFY_REPORT_SHA256, out
    deviations = _WORST.findall(out)
    assert len(deviations) == len(out.splitlines())
    for worst, tolerance in deviations:
        assert float(worst) < float(tolerance), (worst, tolerance)


class TestVerify:
    def test_default_constants_pass(self, capsys):
        assert run("verify") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 8

    def test_report_is_pinned(self, capsys):
        assert run("verify") == 0
        _check_verify_report(capsys.readouterr().out)

    def test_report_is_pinned_without_avx512(self):
        """A fresh process with numpy's X86_V4 loops switched off gives the
        same masked report and exit status."""
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from kaoneraser.cli import main; sys.exit(main(['verify']))")
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code, str(Path(cli.__file__).parents[1])],
            env=os.environ | {"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        _check_verify_report(proc.stdout)

    @pytest.mark.parametrize("gamma_s, window", [(30, 0.2573), (0.05, 49.8865)])
    def test_equal_misid_window_for_far_widths(self, tmp_path, capsys, gamma_s,
                                               window):
        """The window is found from the widths, here outside [0.5, 20]
        tau_S, and the suite runs to its end; misid-window-4.8 is tuned to
        the measured widths and fails here, so the status is 2."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constants": {"gamma_S": gamma_s}}))
        assert run("verify", "--config", str(cfg)) == 2
        out = capsys.readouterr().out
        assert "PASS misid-equal-window: " in out
        assert f"-- equal-misid window at {window:.4f} tau_S\n" in out
        assert "FAIL misid-window-4.8: " in out

    @pytest.mark.parametrize("gamma_s", [1e3, 1e5])
    def test_huge_gamma_s_runs_every_check(self, tmp_path, capsys, gamma_s):
        """At (8, 8) tau_S both the passive rates and their survivor norm
        underflow; the quotients are taken with the earlier time at 0, so
        every check reports, and only the window tuned to the measured
        widths fails."""
        assert run("verify") == 0
        names = _CHECK.findall(capsys.readouterr().out)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constants": {"gamma_S": gamma_s}}))
        assert run("verify", "--config", str(cfg)) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert _CHECK.findall(captured.out) == names
        assert [line.partition(":")[0] for line in captured.out.splitlines()
                if line.startswith("FAIL")] == ["FAIL misid-window-4.8"]

    def test_inconsistent_branching_warns_but_passes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constants": {"br_sl_L": 0.9}}))
        assert run("verify", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "WARN" in out and "FAIL" not in out


class TestZeroSemileptonicWidths:
    """br_sl_L = br_sl_S = 0 passes the constants boundary: simulation runs
    with no semileptonic decays, and verify names the channel whose
    identifying width is zero and the constants field that makes it so."""

    DOC = {"constants": {"br_sl_L": 0.0, "br_sl_S": 0.0}}

    @pytest.mark.parametrize("kind", ExperimentKind.ALL)
    def test_simulate(self, tmp_path, capsys, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.DOC))
        assert run("simulate", "--kind", kind, "--pairs", "2000", "--config",
                   str(cfg), "--out", str(tmp_path)) == 0
        assert capsys.readouterr().err == ""
        ev = read_events(tmp_path / f"events_{kind}.csv")
        # record codes 7 and 8 are passive sl+ and sl- decays
        assert not np.isin(ev.l_rec, (7, 8)).any()
        assert not np.isin(ev.r_rec, (7, 8)).any()

    def test_verify(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.DOC))
        assert run("verify", "--config", str(cfg)) == 1
        assert capsys.readouterr().err == (
            "error: identifying width of channel 'sl+' is zero: "
            "constants field 'br_sl_L' is 0.0\n")

    def test_verify_without_three_pion_decays(self, tmp_path, capsys):
        """br_sl_L = 1 leaves br_3pi_L its complement, 0.  The message names
        br_sl_L, the field a config can set, with the value it was given."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constants": {"br_sl_L": 1}}))
        assert run("verify", "--config", str(cfg)) == 1
        assert capsys.readouterr().err == (
            "error: identifying width of channel '3pi' is zero: "
            "constants field 'br_sl_L' is 1\n")


class TestFit:
    def test_fit_from_simulated_events(self, tmp_path):
        assert run("simulate", "--kind", "A1", "--pairs", "200000", "--seed",
                   "5", "--out", str(tmp_path)) == 0
        assert run("fit", str(tmp_path / "events_A1.csv"),
                   "--out", str(tmp_path)) == 0
        lines = (tmp_path / "visibility.csv").read_text().splitlines()
        assert lines[1] == "delta_tau_bin,v_hat,stderr,excluded_flag"
        assert len(lines) > 3

    def test_malformed_file_names_line(self, tmp_path, capsys):
        p = tmp_path / "events.csv"
        p.write_text("wrong header\n")
        assert run("fit", str(p)) == 1
        assert "line 1" in capsys.readouterr().err

    def test_invalid_record_names_line(self, tmp_path, capsys):
        assert run("simulate", "--kind", "A1", "--pairs", "50", "--seed", "1",
                   "--out", str(tmp_path)) == 0
        path = tmp_path / "events_A1.csv"
        lines = path.read_text().splitlines()
        lines[7] = "6,discarded,,,,,active,lifetime,K0,4.8,"
        path.write_text("\n".join(lines) + "\n")
        assert run("fit", str(path), "--out", str(tmp_path)) == 1
        assert f"{path}: line 8:" in capsys.readouterr().err
        assert not (tmp_path / "visibility.csv").exists()

    def test_missing_file(self, tmp_path):
        assert run("fit", str(tmp_path / "nope.csv")) == 1

    def test_undecodable_byte_names_line(self, tmp_path, capsys):
        assert run("simulate", "--kind", "A1", "--pairs", "50", "--seed", "1",
                   "--out", str(tmp_path)) == 0
        path = tmp_path / "events_A1.csv"
        lines = path.read_bytes().split(b"\n")
        lines[25] = lines[25].replace(b"discarded", b"disc\xffrded", 1)
        path.write_bytes(b"\n".join(lines))
        assert run("fit", str(path), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {path}: line 26: b'\\xff' is not UTF-8 "
                       "(invalid start byte)\n")


class TestOneBoundary:
    """Every command checks every config key, also those it does not read,
    so a config one command rejects no command accepts."""

    GOLDEN_A1 = Path(__file__).parent / "data" / "golden_events_A1.csv"

    @pytest.mark.parametrize("doc,named", [
        ({"seed": "x"}, "seed must be an integer, got 'x'"),
        ({"tau_l_grid": 5}, "tau_l_grid must be a nonempty list or tuple"),
        ({"partitions": 0}, "partitions must be >= 1"),
        ({"window": -1}, "window length must be positive"),
        ({"kind": "Z"}, "kind must be one of")])
    @pytest.mark.parametrize("command", ["analytic", "verify", "fit"])
    def test_unread_bad_key_rejected(self, tmp_path, capsys, command, doc, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        events = [str(self.GOLDEN_A1)] if command == "fit" else []
        assert run(command, *events, "--config", str(cfg), "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {named}")
        assert captured.out == ""
        assert not out.exists()

    # each key whose value the CLI passes to its owner, and a value the
    # owner refuses
    OWNED = [("n_pairs", 1.5), ("seed", "x"), ("partitions", True),
             ("tau_r0", "abc"), ("window", float("nan")), ("constants", []),
             ("tau_l_grid", 5)]
    COMMANDS = ["analytic", "simulate", "verify", "fit"]

    @pytest.mark.parametrize("key,value", OWNED)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_message_per_bad_value(self, tmp_path, capsys, command, key,
                                       value):
        """The error line is the message of the owner's own check, on
        every command."""
        with pytest.raises(ValueError) as owner:
            if key == "constants":
                PhysicalConstants.from_json(value)
            else:
                SimConfig(**{key: value})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        events = [str(self.GOLDEN_A1)] if command == "fit" else []
        assert run(command, *events, "--kind", "A1", "--config", str(cfg),
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {owner.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_bad_kind_flag_and_key_print_one_line(self, tmp_path, capsys,
                                                  command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "Z"}))
        events = [str(self.GOLDEN_A1)] if command == "fit" else []
        lines = []
        for source in (["--kind", "Z"], ["--config", str(cfg)]):
            assert run(command, *events, *source,
                       "--out", str(tmp_path / "out")) == 1
            lines.append(capsys.readouterr().err)
        assert lines[0] == lines[1] == (
            f"error: kind must be one of {ExperimentKind.ALL}, got 'Z'\n")
        assert not (tmp_path / "out").exists()


class TestOneParser:
    """``main`` parses with the one parser built at import, and no call
    leaves state in it that a later call reads."""

    def test_main_builds_no_parser(self, tmp_path, monkeypatch):
        def build():
            raise AssertionError("main built a parser")
        monkeypatch.setattr(cli, "_build_parser", build)
        assert run("analytic", "--out", str(tmp_path)) == 0

    def test_flags_do_not_carry_over(self, tmp_path, monkeypatch):
        """A call without --config, --seed and --out writes the same files,
        its ``# config:`` line included, after a call with all three as
        before it."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau_grid": [0, 1],
                                   "constants": {"delta_m": 0.5}}))
        before, after = tmp_path / "before", tmp_path / "after"
        for out in (before, after):
            out.mkdir()
            monkeypatch.chdir(out)
            assert run("analytic") == 0
            assert run("analytic", "--config", str(cfg), "--seed", "9",
                       "--out", str(tmp_path / "flagged")) == 0
        monkeypatch.chdir(tmp_path)
        assert (tmp_path / "flagged" / "joint.csv").read_text().startswith(
            '# config: {"constants": {"delta_m": 0.5}, "seed": 9, ')
        for name, digest in PINNED_ANALYTIC_SHA256.items():
            text = (after / name).read_bytes()
            assert text == (before / name).read_bytes(), name
            assert text.startswith(b"# config: {}\n"), name
            assert hashlib.sha256(text).hexdigest() == digest, name

    def test_usage_error_does_not_carry_over(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("analytic", "--pairs", "x")
        assert exc.value.code == 1
        assert "argument --pairs: invalid int value: 'x'" in capsys.readouterr().err
        assert run("analytic", "--out", str(tmp_path)) == 0


class TestOutOfRange:
    """Finite inputs that no closed form can evaluate end in an error line,
    not a traceback, and leave no output directory behind.  Inputs far out
    in time evaluate: V and the logistic forms reach their limits there."""

    @pytest.mark.parametrize("doc,argv", [
        ({"constants": {"gamma_S": 1e308}}, ("verify",)),
        ({"constants": {"delta_m": 1e308}}, ("analytic",)),
        # delta_m * time beyond the float range: its cosine would be NaN
        ({"constants": {"delta_m": 1e308}}, ("simulate", "--kind", "A1")),
        ({"constants": {"delta_m": 1e308}}, ("simulate", "--kind", "A2")),
        ({"constants": {"delta_m": 1e308}}, ("simulate", "--kind", "B")),
        ({"constants": {"delta_m": 1e308}}, ("simulate", "--kind", "C")),
        ({"constants": {"delta_m": 1e308}}, ("simulate", "--kind", "D")),
        ({"constants": {"delta_m": 1e308}}, ("verify",)),
        # delta_m * (bin centre) beyond the float range: its cosine is NaN
        ({"constants": {"delta_m": 1e308}},
         ("fit", str(TestOneBoundary.GOLDEN_A1)))])
    def test_overflow_is_an_error_line(self, tmp_path, capsys, doc, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(*argv, "--pairs", "1000", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a configured value is outside the range "
                              "the closed forms can evaluate")
        assert "'constants'" in err and "'tau_l_grid'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc,name,far_rows", [
        ({"tau_grid": [1e5]}, "single_kaon.csv", ["100000,0.5,0.5,0,1,0"]),
        ({"tau_grid": [0.5, 1e5]}, "single_kaon.csv",
         ["100000,0.5,0.5,0,1,0"]),
        ({"tau_grid": [0.5, 1e5, 1.0]}, "single_kaon.csv",
         ["100000,0.5,0.5,0,1,0"]),
        ({"tau_grid": [0.5, 2e5, 1e5]}, "single_kaon.csv",
         ["200000,0.5,0.5,0,1,0", "100000,0.5,0.5,0,1,0"]),
        ({"delta_tau_grid": [2000, -2000]}, "joint.csv",
         ["2000,0.25,0.25,0.5,0,0", "-2000,0.25,0.25,0,0.5,0"]),
        ({"delta_tau_grid": [-1, 2000]}, "joint.csv",
         ["2000,0.25,0.25,0.5,0,0"])],
        ids=["tau-1e5", "tau-0.5-1e5", "tau-0.5-1e5-1", "tau-0.5-2e5-1e5",
             "dt-2000-minus2000", "dt-minus1-2000"])
    def test_far_grid_entries_print_their_limits(self, tmp_path, capsys, doc,
                                                 name, far_rows):
        """Far out, strangeness is even, every survivor is a K_L, V = 0 and
        each marked pair holds its strangeness partner's lifetime."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run("analytic", "--config", str(cfg),
                   "--out", str(tmp_path)) == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / name).read_text().splitlines()[2:]
        assert [r for r in rows if abs(float(r.split(",")[0])) >= 2000] == far_rows

    def test_huge_gamma_s_reaches_the_limits_one_step_out(self, tmp_path):
        """With gamma_S = 1e5, one grid step (0.1 tau_S) from 0 takes every
        curve of the default grids to its limit."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constants": {"gamma_S": 1e5}}))
        assert run("analytic", "--config", str(cfg),
                   "--out", str(tmp_path)) == 0
        single = (tmp_path / "single_kaon.csv").read_text().splitlines()[2:]
        assert single[0] == "0,1,0,0.5,0.5,1"
        assert all(r.partition(",")[2] == "0.5,0.5,0,1,0" for r in single[1:])
        limits = {-1: "0.25,0.25,0,0.5,0", 0: "0,0.5,0.25,0.25,1",
                  1: "0.25,0.25,0.5,0,0"}
        for r in (tmp_path / "joint.csv").read_text().splitlines()[2:]:
            dt, _, rest = r.partition(",")
            assert rest == limits[int(np.sign(float(dt)))], r

    @pytest.mark.parametrize("doc,kind", [
        ({"constants": {"gamma_S": 1e5}}, "A1"),
        ({"constants": {"gamma_S": 1e5}}, "B"),
        ({"tau_l_grid": [2000], "tau_r0": 0}, "A1"),
        # a tau_r0 no kaon survives to: both survivor norms underflow, and
        # every right kaon decays before tau_r0
        ({"tau_l_grid": [500000], "tau_r0": 500000}, "B")])
    def test_far_inputs_simulate(self, tmp_path, capsys, doc, kind):
        """Exit 0 and no warning (which the suite would raise)."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run("simulate", "--kind", kind, "--pairs", "1000", "--config",
                   str(cfg), "--out", str(tmp_path)) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((tmp_path / f"summary_{kind}.json").read_text())
        assert summary["counts"]["records"] == 1000
        if doc.get("tau_r0") == 500000:
            assert summary["pre_detector_fraction"] == 1.0
