"""Command line surface.

Subcommands
    analytic  -- emit closed-form probability curves as CSV
    simulate  -- generate an event file plus a JSON summary
    verify    -- run the internal verification suite
    fit       -- reconstruct oscillation visibility from an event file

Exit status: 0 on success, 1 on configuration/validation errors and sampler
failures, 2 when the verification suite reports a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .core import PhysicalConstants, finite_number
from .decay import build_amplitude_model
from .eventfile import write_events, read_events
from .pairs import closed_form_joint, pair_visibility
from .sim import (RNG_SCHEME, Binning, ExperimentKind, SimConfig,
                  estimate_probs, fit_visibility, run_experiment)
from .single import (MisidWindow, lifetime_probs, strangeness_probs,
                     visibility_single)
from .verify import run_all

_CONFIG_KEYS = {"constants", "kind", "n_pairs", "tau_r0", "window", "seed",
                "partitions", "tau_l_grid", "tau_grid", "delta_tau_grid",
                "out"}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with status 1, not 2."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config key(s): {sorted(unknown)}")
    return doc


def _effective(args) -> dict:
    """Merge the config file with command-line overrides."""
    cfg = _load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "pairs", None) is not None:
        cfg["n_pairs"] = args.pairs
    if getattr(args, "kind", None) is not None:
        cfg["kind"] = args.kind
    if getattr(args, "out", None) is not None:
        cfg["out"] = args.out
    return cfg


def _constants(cfg: dict) -> PhysicalConstants:
    doc = cfg.get("constants", {})
    if not isinstance(doc, dict):
        raise ValueError(f"config key 'constants' must be a JSON object, got {doc!r}")
    return PhysicalConstants.from_json(doc)


def _integer(cfg: dict, key: str, default: int) -> int:
    """An integer setting; integral JSON numbers such as 1e6 are accepted."""
    value = cfg.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
    return int(value)


def _numbers(cfg: dict, key: str) -> list[float]:
    """A list of finite numbers; empty when the key is absent."""
    values = cfg.get(key, [])
    if not isinstance(values, list):
        raise ValueError(f"config key {key!r} must be a list of numbers, "
                         f"got {values!r}")
    return [finite_number(f"config key {key!r} entry", v) for v in values]


def _out_dir(cfg: dict) -> Path:
    out = cfg.get("out", ".")
    if not isinstance(out, str):
        raise ValueError(f"config key 'out' must be a path string, got {out!r}")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sim_config(cfg: dict) -> SimConfig:
    kwargs = {"n_pairs": _integer(cfg, "n_pairs", 10000),
              "seed": _integer(cfg, "seed", 0),
              "partitions": _integer(cfg, "partitions", 1)}
    if "tau_r0" in cfg:
        kwargs["tau_r0"] = finite_number("config key 'tau_r0'", cfg["tau_r0"])
    if "window" in cfg:
        kwargs["window"] = MisidWindow(finite_number("config key 'window'",
                                                     cfg["window"]))
    if "tau_l_grid" in cfg:
        kwargs["tau_l_grid"] = tuple(_numbers(cfg, "tau_l_grid"))
    sim = SimConfig(**kwargs)
    sim.validate()
    return sim


def _recorded(cfg: dict) -> dict:
    # the output location is plumbing, not configuration: identical runs into
    # different directories must produce byte-identical files
    return {key: val for key, val in cfg.items() if key != "out"}


def _config_comment(cfg: dict) -> str:
    return "# config: " + json.dumps(_recorded(cfg), sort_keys=True)


def _at_entry(exc: ArithmeticError, cfg: dict, key: str, value: float):
    """``exc`` restated with the grid entry it was raised at."""
    where = f"config key {key!r}" if key in cfg else f"default {key!r}"
    return type(exc)(f"{exc} at {where} entry {value!r}")


def _write_csv(path: Path, comment: str, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(comment + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def cmd_analytic(args) -> int:
    cfg = _effective(args)
    k = _constants(cfg)
    tau_grid = _numbers(cfg, "tau_grid") or np.arange(0, 121) * 0.1
    dt_grid = _numbers(cfg, "delta_tau_grid") or np.arange(-100, 101) * 0.1

    single = []
    try:
        for tau in tau_grid:
            tau = float(tau)
            p0, p0b = strangeness_probs(tau, k)
            ps, pl = lifetime_probs(tau, k)
            single.append((tau, p0, p0b, ps, pl, visibility_single(tau, k)))
    except ArithmeticError as exc:
        raise _at_entry(exc, cfg, "tau_grid", tau) from exc

    joint = []
    try:
        for dt in dt_grid:
            dt = float(dt)
            joint.append((dt,
                          closed_form_joint("ss_like", dt, k),
                          closed_form_joint("ss_unlike", dt, k),
                          closed_form_joint("s_ks", dt, k),
                          closed_form_joint("s_kl", dt, k),
                          pair_visibility(dt, k)))
    except ArithmeticError as exc:
        raise _at_entry(exc, cfg, "delta_tau_grid", dt) from exc

    # nothing is written unless every row evaluated
    out = _out_dir(cfg)
    comment = _config_comment(cfg)
    _write_csv(out / "single_kaon.csv", comment,
               "tau,p_k0,p_k0bar,p_ks,p_kl,visibility", single)
    _write_csv(out / "joint.csv", comment,
               "delta_tau,p_like,p_unlike,p_s_ks,p_s_kl,visibility", joint)
    print(f"wrote {out / 'single_kaon.csv'} and {out / 'joint.csv'}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _effective(args)
    kind = cfg.get("kind")
    if kind not in ExperimentKind.ALL:
        raise ValueError(f"kind must be one of {ExperimentKind.ALL}, got {kind!r}")
    k = _constants(cfg)
    sim = _sim_config(cfg)
    model = build_amplitude_model(k)
    out = _out_dir(cfg)

    events = run_experiment(kind, sim, k, model)
    events_path = out / f"events_{kind}.csv"
    write_events(events, events_path)

    estimates = estimate_probs(events)
    summary = {
        "kind": kind,
        "n_pairs": sim.n_pairs,
        "seed": sim.seed,
        "partitions": sim.partitions,
        "rng_scheme": RNG_SCHEME,
        "config": _recorded(cfg),
        "counts": {
            "records": len(events),
            "classified": len(events) - events.n_discarded,
            "discarded": events.n_discarded,
        },
        "estimates": [
            {"bin": e.bin, "pair": list(e.pair), "p_hat": e.p_hat,
             "stderr": e.stderr, "n": e.n}
            for e in estimates
        ],
    }
    if kind == "B":
        # pre-detector decays are the ones recorded as lifetime measurements
        summary["pre_detector_fraction"] = float(np.mean(events.r_obs == 1))
    summary_path = out / f"summary_{kind}.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {events_path} and {summary_path}")
    return 0


def cmd_verify(args) -> int:
    cfg = _effective(args)
    k = _constants(cfg)
    results = run_all(k)
    failed = False
    for r in results:
        status = "WARN" if r.warning else ("PASS" if r.passed else "FAIL")
        failed = failed or (not r.passed and not r.warning)
        line = (f"{status} {r.name}: worst deviation {r.worst:.3e} "
                f"(tolerance {r.tolerance:.0e})")
        if r.detail:
            line += f" -- {r.detail}"
        print(line)
    return 2 if failed else 0


def cmd_fit(args) -> int:
    cfg = _effective(args)
    k = _constants(cfg)
    events = read_events(args.events)
    estimates = estimate_probs(events, Binning())
    rows = fit_visibility(estimates, k)
    if not rows:
        raise ValueError("no strangeness-strangeness events to fit")
    path = _out_dir(cfg) / "visibility.csv"
    _write_csv(path, _config_comment(cfg),
               "delta_tau_bin,v_hat,stderr,excluded_flag",
               ((r.delta_tau, r.v_hat, r.stderr, int(r.excluded))
                for r in rows))
    print(f"wrote {path}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="kaoneraser")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run-configuration file")
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("--pairs", type=int, help="number of kaon pairs")
        p.add_argument("--kind", choices=ExperimentKind.ALL,
                       help="experiment kind")
        p.add_argument("--out", help="output directory (default: .)")

    common(sub.add_parser("analytic", help="emit closed-form curves"))
    common(sub.add_parser("simulate", help="generate simulated events"))
    common(sub.add_parser("verify", help="run the verification suite"))
    p_fit = sub.add_parser("fit", help="fit visibility from an event file")
    p_fit.add_argument("events", help="event file produced by 'simulate'")
    common(p_fit)
    return parser


_COMMANDS = {"analytic": cmd_analytic, "simulate": cmd_simulate,
             "verify": cmd_verify, "fit": cmd_fit}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print("error: a configured value is outside the range the closed "
              f"forms can evaluate ({exc}); check 'constants' and the grid "
              "keys 'tau_grid', 'delta_tau_grid', 'tau_l_grid' and 'tau_r0'",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
