"""Run one benchmark workload for one seed and report its metrics.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  With ``--trace 0`` the run
reports the end-to-end metrics that ``BENCHMARK.json`` declares; with
``--trace 1`` it alternates traced and untraced iterations and reports the
declared per-layer metrics, including the tracing overhead.

Output: one ``name value unit`` line per metric, one JSON line of details
(provenance, output checks, tail wall time) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``.  Exit status 0 when a
result was printed, 1 when no iteration completed, 2 when the checkout holds
no sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPS = 11

# A fresh interpreter imports the package from the given source directory and
# builds the constants and the amplitude model: what every entry point pays.
SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import kaoneraser
t1 = time.perf_counter()
kaoneraser.build_amplitude_model(kaoneraser.PhysicalConstants())
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "model_s": t2 - t1}))
"""

# per-layer metric -> span total it reports (see tracing.Tracer.totals)
SPAN_METRICS = {
    **{f"sim.generate_s.{k}": f"sim.run_experiment.{k}"
       for k in ("A1", "A2", "B", "C", "D")},
    "sim.estimate_s": "sim.estimate_probs",
    "sim.fit_s": "sim.fit_visibility",
    **{f"eventfile.{op}_s.{k}": f"eventfile.{op}_events.{k}"
       for op in ("write", "read") for k in ("A1", "D")},
    "cli.simulate_s": "cli.simulate",
    "cli.fit_s": "cli.fit",
    "cli.analytic_s": "cli.analytic",
    "verify.run_all_s": "verify.run_all",
}
# per-layer counts the workloads record at the layer boundaries
COUNT_METRICS = (*(f"sim.classified_ratio.{k}" for k in ("A1", "A2", "B", "C", "D")),
                 "eventfile.bytes.A1", "eventfile.bytes.D", "verify.checks_failed")
# cli.analytic calls none of the wrapped child names, so its whole time is
# self time; it is reported on its own as cli.analytic_s and left out here
CLI_SPANS = ("cli.simulate", "cli.fit", "cli.verify")
PER_CALL_SPANS = ("pairs.closed_form_joint", "pairs.joint_projective_prob",
                  "pairs.delayed_choice_norms", "decay.passive_joint_prob",
                  "decay.mixed_active_passive_prob", "single.strangeness_probs")


class SetupTimer:
    """Times fresh interpreters that import the package and build the model:
    wall time from spawn to exit, and the import and model build times the
    child measures itself.  One warm-up spawn, which may still compile
    bytecode, is discarded; the measured ones are spread evenly over the run,
    between iterations, so that their median does not hang on the host's
    load at a single moment."""

    def __init__(self, seconds: float):
        self.runs = []
        self.interval = seconds / SETUP_REPS
        self._spawn()
        self.runs.clear()
        self.next = time.perf_counter()

    def _spawn(self):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        self.runs.append((time.perf_counter() - start, json.loads(proc.stdout)))

    def poll(self):
        """Spawn one measured set-up if the next one is due."""
        now = time.perf_counter()
        if len(self.runs) < SETUP_REPS and now >= self.next:
            self._spawn()
            self.next = now + self.interval

    def medians(self) -> dict:
        while len(self.runs) < SETUP_REPS:
            self._spawn()
        return {
            "setup_s": statistics.median(w for w, _ in self.runs),
            "setup.import_s": statistics.median(r["import_s"] for _, r in self.runs),
            "decay.build_amplitude_model_s": statistics.median(
                r["model_s"] for _, r in self.runs),
        }


def tail(values):
    """(percentile, value) for the highest whole percentile above the median
    with at least ten samples beyond it (nearest rank), or None."""
    n = len(values)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return None
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def fastest_segments(samples) -> list[float]:
    """Each stopwatch segment's fastest time over the given iterations (the
    workload's fixed number of timed ones); their sum is the iteration wall
    time the benchmark reports."""
    return [min(column) for column in zip(*(seg for _, seg, _, _ in samples))]


def layer_metrics(totals: list[dict], counts: dict) -> dict:
    """Fastest per-iteration span totals over the traced iterations; counts
    as the workload recorded them.  A layer the workload never calls reads 0."""
    def fastest(fn):
        return min(fn(t) for t in totals)

    out = {name: fastest(lambda t, key=key: t.get(key, 0.0))
           for name, key in SPAN_METRICS.items()}
    out["cli.self_s"] = fastest(lambda t: sum(t.get(s + ".self", 0.0)
                                              for s in CLI_SPANS))
    for span in PER_CALL_SPANS:
        out[span + "_us"] = fastest(lambda t, s=span: 1e6 * t.get(s, 0.0)
                                    / t[s + ".calls"] if t.get(s + ".calls") else 0.0)
    out.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    return out


def summarize(ops) -> dict:
    """Per operation name: how often it passed and failed, and the last detail."""
    out = {}
    for name, passed, detail in ops:
        entry = out.setdefault(name, {"passed": 0, "failed": 0})
        entry["passed" if passed else "failed"] += 1
        entry["detail"] = detail
    return out


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def provenance(seed, workload) -> dict:
    import numpy
    import scipy

    import kaoneraser

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "kaoneraser_version": kaoneraser.__version__,
        "rng_scheme": kaoneraser.RNG_SCHEME,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload_seed": seed,
        "pairs": workload.pair_counts,
    }


def run(args, spec) -> int:
    sys.path.insert(0, str(SRC))
    from kaoneraser import cli
    from tracing import CLI_CHILDREN, Tracer
    from workloads import WORKLOADS, Stopwatch

    cls = WORKLOADS[args.workload]
    tracer = Tracer()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = cls(args.seed, args.pairs or cls.default_pairs, workdir, tracer)
        setup_timer = SetupTimer(args.seconds)
        ops, samples = [], {False: [], True: []}
        deadline = time.perf_counter() + args.seconds
        i = 0
        while True:
            # iteration 0 warms caches and is not timed; with tracing on,
            # traced (even) and untraced (odd) iterations alternate
            traced = bool(args.trace) and i > 0 and i % 2 == 0
            tracer.enabled, tracer.run_id = traced, i
            sw = Stopwatch()
            patch = (tracer.patched(cli, CLI_CHILDREN)
                     if traced and workload.uses_cli else nullcontext())
            try:
                with patch:
                    it_ops, pairs, classified = workload.iterate(sw)
            except Exception:
                traceback.print_exc()
                ops.append((f"iteration {i}", False, traceback.format_exc(limit=1)))
            else:
                ops.extend(it_ops)
                if i > 0:
                    samples[traced].append((i, sw.segments, pairs, classified))
            i += 1
            setup_timer.poll()
            # the minimum is taken over a fixed number of samples, so that a
            # faster program does not also get more draws; iterations past
            # them still run their output checks
            n = cls.timed_iterations
            enough = all(len(samples[mode]) >= n
                         for mode in ((False, True) if args.trace else (False,)))
            if time.perf_counter() >= deadline and (enough or i > 6 * n):
                break
        tracer.enabled = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup = setup_timer.medians()
        try:
            ops.extend(workload.finish())
        except Exception:
            traceback.print_exc()
            ops.append(("finish", False, traceback.format_exc(limit=1)))
        if args.trace:
            tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = samples[False]
    if not plain or (args.trace and not samples[True]):
        print("error: no iteration completed", file=sys.stderr)
        return 1
    walls = [sum(seg) for _, seg, _, _ in plain]
    timed = {mode: runs[:cls.timed_iterations] for mode, runs in samples.items()}
    segment_best = fastest_segments(timed[False])
    wall = sum(segment_best)
    if args.trace:
        totals = tracer.totals()
        values = layer_metrics([totals[i] for i, *_ in timed[True]], workload.counts)
        values["setup.import_s"] = setup["setup.import_s"]
        values["decay.build_amplitude_model_s"] = setup["decay.build_amplitude_model_s"]
        values["trace.overhead_s"] = sum(fastest_segments(timed[True])) - wall
        declared = spec["per_layer"]
    else:
        _, _, pairs, classified = plain[-1]   # the same in every iteration
        rate_s = sum(segment_best[cls.rate_segments])
        values = {
            "setup_s": setup["setup_s"],
            "wall_s": wall,
            "pairs_per_s": pairs / rate_s,
            "classified_pairs_per_s": classified / rate_s,
            "peak_rss_mb": peak_rss_mb,
        }
        declared = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    failed = [op for op in ops if not op[1]]
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':40s} {len(failed) / len(ops):.6g} "
          f"({len(failed)} of {len(ops)} operations failed)")
    print(f"output checks: {'PASS' if not failed else 'FAIL'}")
    for name, _, detail in failed[:20]:
        print(f"  FAIL {name}: {detail}")
    wall_tail = tail(walls)
    print(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed, workload),
        "iterations": i,
        "timed_iterations": len(timed[False]),
        "segment_best_s": segment_best,
        "iteration_wall_s": {"median": statistics.median(walls),
                             "samples": len(walls),
                             "tail": None if wall_tail is None else
                             {"percentile": wall_tail[0], "value": wall_tail[1]}},
        "error_rate": len(failed) / len(ops),
        "checks": summarize(ops),
        "known_defects": workload.notes,
    }))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("generate", "roundtrip", "analytic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the iterations run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pairs", type=int,
                        help="pairs per kind (default: the workload's size; "
                             "the smoke test uses tiny counts)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.pairs is not None and args.pairs < 1):
        parser.error("--seed must be >= 0, --seconds and --pairs positive")
    if not (SRC / "kaoneraser" / "__init__.py").is_file():
        print(f"error: no kaoneraser sources in {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
