#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--seeds 10] [--sets 1] [--workloads a,b]

For each workload, runs the benchmark once per seed (seeds 1..N, then N+1..2N
for a second set, ...) and prints, per end-to-end metric, the median and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median.  With --sets 2
it also prints how far the second set's median moved from the first's, in the
metric's worse direction.  Each figure is marked against the metric's bound
from BENCHMARK.json: every spread, setup_s included, must stay within the
bound, and no median may move worse by more than it.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    """Interquartile distance as a share of the median (0 if the median is 0)."""
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    ok = True
    for w in args.workloads.split(","):
        medians = []
        for s in range(args.sets):
            runs = [run_once(w, 1 + s * args.seeds + i, args.seconds)
                    for i in range(args.seeds)]
            print(f"\n{w} set {s + 1} (seeds {1 + s * args.seeds}..{(s + 1) * args.seeds})")
            print(f"  {'metric':<20} {'median':>14} {'spread':>8} {'bound':>6}")
            med = {}
            for m in bench["end_to_end"]:
                vals = [r[m["name"]] for r in runs]
                med[m["name"]] = statistics.median(vals)
                sp = spread(vals)
                flag = "" if sp <= m["bound"] else "  OVER BOUND"
                ok = ok and not flag
                print(f"  {m['name']:<20} {med[m['name']]:>14.6g} {sp:>8.3f} "
                      f"{m['bound']:>6.2f}{flag}  [" +
                      " ".join(f"{v:.4g}" for v in vals) + "]")
            medians.append(med)
        for s in range(1, len(medians)):
            print(f"  {w}: set {s + 1} vs set 1, median change in the worse direction")
            for m in bench["end_to_end"]:
                a, b = medians[0][m["name"]], medians[s][m["name"]]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = "  OVER BOUND" if worse > m["bound"] else ""
                ok = ok and not flag
                print(f"    {m['name']:<20} {worse:>+8.3f} {m['bound']:>6.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
