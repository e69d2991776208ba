"""Command line surface: outputs, reproducibility and exit codes."""

import hashlib
import json

import pytest

from kaoneraser import ExperimentKind, read_events
from kaoneraser.cli import main


def run(*argv):
    return main(list(argv))


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
         "'delta_tau_grid' entry must be a finite number, got inf")])
    def test_bad_grid_rejected_naming_key(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("analytic", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: config key {message}\n"
        assert not out.exists()

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

    def test_b_summary_reports_half_split(self, tmp_path):
        assert run("simulate", "--kind", "B", "--pairs", "20000",
                   "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "summary_B.json").read_text())
        assert abs(summary["pre_detector_fraction"] - 0.5) < 0.02

    def test_missing_kind_is_validation_error(self, tmp_path, capsys):
        assert run("simulate", "--pairs", "10", "--out", str(tmp_path)) == 1
        assert "kind" in capsys.readouterr().err

    def test_bad_kind_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--kind", "Z", "--out", str(tmp_path))
        assert exc.value.code == 1

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}')
        assert run("simulate", "--kind", "D", "--config", str(cfg)) == 1

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
        assert f"'{key}' must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "events_A1.csv").exists()

    @pytest.mark.parametrize("doc,message", [
        ({"tau_l_grid": 5}, "config key 'tau_l_grid' must be a list of numbers, got 5"),
        ({"tau_l_grid": [1e400]},
         "config key 'tau_l_grid' entry must be a finite number, got inf"),
        ({"tau_r0": float("nan")},
         "config key 'tau_r0' must be a finite number, got nan"),
        ({"tau_r0": "abc"}, "config key 'tau_r0' must be a finite number, got 'abc'"),
        ({"window": "w"}, "config key 'window' must be a finite number, got 'w'"),
        ({"constants": []}, "config key 'constants' must be a JSON object, got []"),
        ({"constants": None}, "config key 'constants' must be a JSON object, got None"),
        ({"constants": {"gamma_S": "x"}},
         "constants field 'gamma_S' must be a finite number, got 'x'"),
        ({"constants": {"delta_m": float("nan")}},
         "constants field 'delta_m' must be a finite number, got nan"),
        ({"out": 5}, "config key 'out' must be a path string, got 5"),
        ({"constants": {"epsilon_overlap": 3.2e-3}},
         "unknown constants field(s): ['epsilon_overlap']")])
    def test_bad_value_rejected_naming_key(self, tmp_path, monkeypatch, capsys,
                                           doc, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert run("simulate", "--kind", "A1", "--pairs", "10",
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
        assert set(ev.l_time[ev.l_out >= 0]) == {3.0, 5.5}
        assert set(ev.r_time[ev.r_obs == 0]) == {3.0}

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


# sha256 of `kaoneraser verify` stdout with the default constants.  Worst
# deviations print to 3 digits, so a change in any check's result shows; taken
# with CPython 3.11 on x86-64 Linux (another libm may round differently).
VERIFY_REPORT_SHA256 = "c65b3ac90a4ce6f5cd1964d307f985171cda71565449c8e0757256038cdc932a"


class TestVerify:
    def test_default_constants_pass(self, capsys):
        assert run("verify") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 8

    def test_report_is_pinned(self, capsys):
        assert run("verify") == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_REPORT_SHA256, out

    def test_inconsistent_branching_warns_but_passes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constants": {"br_sl_L": 0.9}}))
        assert run("verify", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "WARN" in out and "FAIL" not in out


class TestZeroSemileptonicWidths:
    """br_sl_L = br_sl_S = 0 passes the constants boundary: simulation runs
    with no semileptonic decays, and verify names the channel whose
    identifying width is undefined."""

    DOC = {"constants": {"br_sl_L": 0.0, "br_sl_S": 0.0}}

    @pytest.mark.parametrize("kind", ExperimentKind.ALL)
    def test_simulate(self, tmp_path, capsys, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.DOC))
        assert run("simulate", "--kind", kind, "--pairs", "2000", "--config",
                   str(cfg), "--out", str(tmp_path)) == 0
        assert capsys.readouterr().err == ""
        ev = read_events(tmp_path / f"events_{kind}.csv")
        # channel codes 2 and 3 are sl+ and sl-
        assert not (ev.l_chan >= 2).any() and not (ev.r_chan >= 2).any()

    def test_verify(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.DOC))
        assert run("verify", "--config", str(cfg)) == 1
        assert capsys.readouterr().err == (
            "error: identifying width undefined for channel "
            "DecayChannel.SL_PLUS\n")


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


class TestOutOfRange:
    """Finite inputs that overflow a closed form end in an error line, not a
    traceback."""

    @pytest.mark.parametrize("doc,argv", [
        ({"constants": {"gamma_S": 1e5}}, ("simulate", "--kind", "A1")),
        ({"constants": {"gamma_S": 1e5}}, ("simulate", "--kind", "B")),
        ({"constants": {"gamma_S": 1e5}}, ("analytic",)),
        ({"constants": {"gamma_S": 1e5}}, ("verify",)),
        ({"tau_grid": [1e5]}, ("analytic",)),
        ({"delta_tau_grid": [2000]}, ("analytic",)),
        ({"tau_l_grid": [2000], "tau_r0": 0}, ("simulate", "--kind", "A1"))])
    def test_overflow_is_an_error_line(self, tmp_path, capsys, doc, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(*argv, "--pairs", "10", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a configured value is outside the range "
                              "the closed forms can evaluate")
        assert "'constants'" in err and "'tau_l_grid'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc,where", [
        ({"tau_grid": [0.5, 1e5]}, "config key 'tau_grid' entry 100000.0"),
        ({"delta_tau_grid": [-1, 2000]}, "config key 'delta_tau_grid' entry 2000.0"),
        ({"constants": {"gamma_S": 1e5}}, "default 'tau_grid' entry 0.1")])
    def test_grid_overflow_names_key_and_entry(self, tmp_path, capsys, doc, where):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run("analytic", "--config", str(cfg), "--out",
                   str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a configured value is outside the range "
                              "the closed forms can evaluate")
        assert f" at {where})" in err
        assert not (tmp_path / "out").exists()
