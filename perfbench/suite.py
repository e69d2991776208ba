"""Run every workload for one or more seeds and summarize the results.

    python3 perfbench/suite.py                  # all workloads, seed 1
    python3 perfbench/suite.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace \\
        --write perfbench/baseline.json         # spreads, per-layer, baseline

Each run is a fresh ``run.py`` process.  Seeds are the outer loop, so drift
in the machine's load spreads over all workloads alike.  For each workload
and end-to-end metric the table gives the median over seeds, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
against the metric's bound, then the workload's output-check verdict and
error rate.  ``--trace`` adds one traced run per workload on the first seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace) -> tuple[dict, dict]:
    """(details, result) from the last two lines of one run's output."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--trace", action="store_true",
                        help="add one traced run per workload")
    parser.add_argument("--write", type=Path, help="write the summary as JSON")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            details, result = run_once(w, seed, spec["run_seconds"], 0)
            runs[w].append((details, result))
            print(f"{w:10s} seed {seed:<4d} correct {result['correct']}  " + "  ".join(
                f"{name} {m['value']:.4g}" for name, m in result["metrics"].items()),
                flush=True)

    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "provenance": runs[workloads[0]][0][0]["provenance"],
               "workloads": {}}
    print(f"\n{'workload':10s} {'metric':24s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s} unit")
    for w in workloads:
        attempted = sum(r["attempted"] for _, r in runs[w])
        failed = sum(r["failed"] for _, r in runs[w])
        entry = {"pairs": runs[w][0][0]["provenance"]["pairs"],
                 "correct": all(r["correct"] for _, r in runs[w]),
                 "error_rate": failed / attempted,
                 "known_defects": runs[w][-1][0]["known_defects"],
                 "end_to_end": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for _, r in runs[w]]
            stats = spread(values) if len(values) > 1 else {"values": values}
            stats.update(unit=m["unit"], bound=m["bound"])
            entry["end_to_end"][m["name"]] = stats
            if len(values) > 1:
                print(f"{w:10s} {m['name']:24s} {stats['median']:12.5g} "
                      f"{stats['q1']:12.5g} {stats['q3']:12.5g} "
                      f"{stats['spread']:7.3f} {m['bound']:6.2f} {m['unit']}")
            else:
                print(f"{w:10s} {m['name']:24s} {values[0]:12.5g} {'':12s} "
                      f"{'':12s} {'':7s} {m['bound']:6.2f} {m['unit']}")
        print(f"{w:10s} output checks {'PASS' if entry['correct'] else 'FAIL'}, "
              f"error_rate {entry['error_rate']:.3g} ({failed} of {attempted})")
        summary["workloads"][w] = entry

    if args.trace:
        print()
        for w in workloads:
            _, result = run_once(w, args.seeds[0], spec["run_seconds"], 1)
            layers = {name: m["value"] for name, m in result["metrics"].items()}
            summary["workloads"][w]["per_layer"] = layers
            summary["workloads"][w]["traced_correct"] = result["correct"]
            for m in spec["per_layer"]:
                print(f"{w:10s} {m['name']:40s} {layers[m['name']]:12.5g} {m['unit']}")

    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(e["correct"] for e in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
