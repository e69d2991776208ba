"""Command line surface.

Subcommands
    analytic  -- emit closed-form probability curves as CSV
    simulate  -- generate an event file plus a JSON summary
    verify    -- run the internal verification suite
    fit       -- reconstruct oscillation visibility from an event file

Every command passes the same boundary in `main`: the config file is merged
with the flags, and each key is checked once, by the object that owns it,
before any command runs.  `PhysicalConstants.from_json` checks `constants`;
`SimConfig` checks the keys named like its fields (`n_pairs`, `seed`,
`partitions`, `tau_r0`, `window`, `tau_l_grid`); the rules of `_RULES` (the
one list of config keys) check `kind`, `out` and the grids' JSON types.  So
a config that breaks a rule is rejected by whichever command reads it.

Exit status: 0 on success, 1 on configuration/validation errors and sampler
failures, 2 when the verification suite reports a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import PhysicalConstants, finite_number, load_json
from .decay import build_amplitude_model
from .estimate import estimate_probs, fit_visibility, lifetime_share
from .eventfile import write_events, read_events
from .pairs import (JOINT_KINDS, closed_form_joint, pair_visibility,
                    strangeness_probs)
from .sim import RNG_SCHEME, ExperimentKind, SimConfig, run_experiment
from .verify import run_all


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with status 1, not 2."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _integer(key: str, value):
    """An integral JSON float such as 1e6 as an int; `SimConfig` checks
    every value."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _as_given(key: str, value):
    return value


def _grid(key: str, value) -> tuple[float, ...]:
    """A nonempty list of finite numbers."""
    if not isinstance(value, list):
        raise ValueError(f"config key {key!r} must be a list of numbers, "
                         f"got {value!r}")
    if not value:
        raise ValueError(f"config key {key!r} must not be empty")
    return tuple(finite_number(f"config key {key!r} entry", v) for v in value)


def _times(key: str, value) -> tuple[float, ...]:
    """A grid of nonnegative times."""
    grid = _grid(key, value)
    for t in grid:
        if t < 0:
            raise ValueError(f"config key {key!r} entry must be nonnegative, "
                             f"got {t!r}")
    return grid


def _path(key: str, value) -> Path:
    if not isinstance(value, str):
        raise ValueError(f"config key {key!r} must be a path string, got {value!r}")
    return Path(value)


def _kind(key: str, value) -> str:
    if value not in ExperimentKind.ALL:
        raise ValueError(f"{key} must be one of {ExperimentKind.ALL}, got {value!r}")
    return value


# Each config key and the rule that checks or converts its JSON value; the
# values passed on as given are checked by SimConfig or the constants.
_RULES = {"constants": _as_given, "kind": _kind, "n_pairs": _integer,
          "seed": _integer, "partitions": _integer, "tau_r0": _as_given,
          "window": _as_given, "tau_l_grid": _grid, "tau_grid": _times,
          "delta_tau_grid": _grid, "out": _path}


def _effective(args) -> dict:
    """The config file merged with command-line overrides.  An error in the
    file's text, encoding or keys names the file."""
    cfg = {}
    if args.config is not None:
        try:
            cfg = load_json(Path(args.config).read_text(encoding="utf-8"))
            if not isinstance(cfg, dict):
                raise ValueError("config file must hold a JSON object")
            unknown = set(cfg) - _RULES.keys()
            if unknown:
                raise ValueError(f"unknown config key(s): {sorted(unknown)}")
        except ValueError as exc:  # a UnicodeDecodeError or JSONDecodeError too
            raise ValueError(f"{args.config}: {exc}") from None
    for key, flag in (("seed", args.seed), ("n_pairs", args.pairs),
                      ("kind", args.kind), ("out", args.out)):
        if flag is not None:
            cfg[key] = flag
    return cfg


def _recorded(cfg: dict) -> dict:
    # the output location is plumbing, not configuration: identical runs into
    # different directories must produce byte-identical files
    return {key: val for key, val in cfg.items() if key != "out"}


def _config_comment(cfg: dict) -> str:
    return "# config: " + json.dumps(_recorded(cfg), sort_keys=True)


def _write_csv(path: Path, comment: str, header: str, row: str,
               columns) -> None:
    """A CSV file: the comment line, the header, then one line per entry of
    the equal-length ``columns``, made by filling the %-template ``row``."""
    body = "".join(map(row.__mod__,
                       zip(*(np.asarray(c).tolist() for c in columns))))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"{comment}\n{header}\n{body}")


# the analytic curves' columns, each a float printed to 12 significant digits
_CURVE_ROW = ",".join(["%.12g"] * 6) + "\n"


def cmd_analytic(args, cfg, values, k, sim) -> int:
    # each grid is one array, so each column is one oracle call
    tau = np.asarray(values.get("tau_grid", np.arange(0, 121) * 0.1), float)
    dt = np.asarray(values.get("delta_tau_grid", np.arange(-100, 101) * 0.1),
                    float)
    # P[K_S] of a kaon born as K0: the partner's K0bar at 0 is the left side
    p_ks = 2.0 * closed_form_joint("s_ks", -tau, k)
    single = (tau, *strangeness_probs(tau, k), p_ks, 1.0 - p_ks,
              pair_visibility(tau, k))
    joint = (dt, *(closed_form_joint(kind, dt, k) for kind in JOINT_KINDS),
             pair_visibility(dt, k))

    # nothing is written unless every row evaluated
    out = values["out"]
    comment = _config_comment(cfg)
    _write_csv(out / "single_kaon.csv", comment,
               "tau,p_k0,p_k0bar,p_ks,p_kl,visibility", _CURVE_ROW, single)
    _write_csv(out / "joint.csv", comment,
               "delta_tau,p_like,p_unlike,p_s_ks,p_s_kl,visibility", _CURVE_ROW,
               joint)
    print(f"wrote {out / 'single_kaon.csv'} and {out / 'joint.csv'}")
    return 0


def cmd_simulate(args, cfg, values, k, sim) -> int:
    kind = _kind("kind", values.get("kind"))  # the one key a command requires
    model = build_amplitude_model(k)
    out = values["out"]
    events = run_experiment(kind, sim, k, model)
    out.mkdir(parents=True, exist_ok=True)
    events_path = out / f"events_{kind}.csv"
    write_events(events, events_path)
    discarded = events.n_discarded

    summary = {
        "kind": kind,
        "n_pairs": sim.n_pairs,
        "seed": sim.seed,
        "partitions": sim.partitions,
        "rng_scheme": RNG_SCHEME,
        "config": _recorded(cfg),
        "counts": {
            "records": len(events),
            "classified": len(events) - discarded,
            "discarded": discarded,
        },
        "estimates": [
            {"bin": e.bin, "pair": list(e.pair), "p_hat": e.p_hat,
             "stderr": e.stderr, "n": e.n}
            for e in estimate_probs(events)
        ],
    }
    if kind == "B":
        # pre-detector decays are recorded as lifetime measurements
        summary["pre_detector_fraction"] = lifetime_share(events.r_rec)
    summary_path = out / f"summary_{kind}.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {events_path} and {summary_path}")
    return 0


def cmd_verify(args, cfg, values, k, sim) -> int:
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


def cmd_fit(args, cfg, values, k, sim) -> int:
    events = read_events(args.events)
    rows = fit_visibility(estimate_probs(events), k)
    if not rows:
        raise ValueError("no strangeness-strangeness events to fit")
    path = values["out"] / "visibility.csv"
    _write_csv(path, _config_comment(cfg),
               "delta_tau_bin,v_hat,stderr,excluded_flag",
               "%.12g,%.12g,%.12g,%d\n",
               zip(*((r.delta_tau, r.v_hat, r.stderr, r.excluded)
                     for r in rows)))
    print(f"wrote {path}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="kaoneraser")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run-configuration file")
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("--pairs", type=int, help="number of kaon pairs")
        p.add_argument("--kind", help="experiment kind: "
                       + ", ".join(ExperimentKind.ALL))
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

# built once: parse_args keeps no state in the parser
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = _effective(args)
        values = {"out": Path(".")} | {key: _RULES[key](key, value)
                                       for key, value in cfg.items()}
        k = PhysicalConstants.from_json(values.get("constants", {}))
        sim = SimConfig(**{f.name: values[f.name] for f in fields(SimConfig)
                           if f.name in values})
        return _COMMANDS[args.command](args, cfg, values, k, sim)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print("error: a configured value is outside the range the closed "
              f"forms can evaluate ({exc}); check 'constants' and the grid "
              "keys 'tau_grid', 'delta_tau_grid', 'tau_l_grid' and 'tau_r0'",
              file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: not enough memory for this run ({exc}); lower 'n_pairs' "
              "(--pairs)", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
