#!/usr/bin/env python3
"""Bench regression gate: diff a --bench-json run against a baseline.

Both files are the documents written by the benches' bench_json_reporter
(bench_common.hpp): {"bench": ..., "entries": [{"name", "threads",
"trials", "ops_per_ms": {"mean", "stddev", ...}}, ...]}.  Entries are
joined on their name; a candidate entry regresses when its mean throughput
drops below the baseline mean by more than BOTH the relative threshold and
the noise allowance:

    drop > max(threshold * base_mean,
               noise_sigma * hypot(base_stddev, cand_stddev))

(both runs' trial-to-trial stddevs combine in quadrature -- a drop has to
clear the noise of the run that measured it, not just the baseline's).

Checked-in baselines were recorded on some machine; yours is faster or
slower everywhere by roughly one factor.  --normalize estimates that
factor as the median candidate/baseline mean ratio across all joined
entries and divides it out, so the gate catches *relative* regressions
(one configuration sinking while the rest hold) rather than absolute
machine speed.  Without --normalize the comparison is absolute -- right
for same-machine before/after runs.

--self-test needs only the baseline: it replays the baseline against
itself (must pass) and against a copy with every mean scaled by 0.8 (a
synthetic 20% regression -- must fail), exiting nonzero if the gate logic
misbehaves.  CI runs this deterministic check plus a lenient --normalize
diff of the real run.

--check-metrics validates a --telemetry-json sidecar (the JSON-lines file
benches write next to their bench JSON; common/telemetry_export.hpp)
instead of diffing throughput.  Count and mark lines gate on their
"value"; every numeric field of a value or span line expands to a
synthetic metric named {event}.{field}, so sketch statistics gate like
counters.  --require NAME fails unless the metric exists with a nonzero
value -- use it to prove an instrumented path actually ran, e.g.
`--require skiptree.add.count`.  --require-under NAME=LIMIT additionally
bounds it: `--require-under ebr.limbo_bytes.max=1048576` fails the gate if
retired memory ever piled past 1 MiB, and `--require-under
skiptree.contains.p99_us=20000` if sampled contains latency passes 20 ms
at p99.

Exit status: 0 clean, 1 regression/check failure (or self-test logic
failure), 2 usage.
"""

import argparse
import copy
import io
import json
import math
import os
import statistics
import sys
import tempfile


def load(path):
    with open(path) as f:
        doc = json.load(f)
    entries = {e["name"]: e for e in doc.get("entries", [])}
    if not entries:
        raise SystemExit(f"bench_gate: no entries in {path}")
    return entries


def joined(base, cand):
    names = [n for n in base if n in cand]
    missing = [n for n in base if n not in cand]
    return names, missing


def scale_factor(base, cand, names):
    ratios = []
    for n in names:
        bm = base[n]["ops_per_ms"]["mean"]
        cm = cand[n]["ops_per_ms"]["mean"]
        if bm > 0 and cm > 0:
            ratios.append(cm / bm)
    return statistics.median(ratios) if ratios else 1.0


def diff(base, cand, threshold, noise_sigma, normalize, out=sys.stdout):
    """Returns the list of regressed entry names (missing entries count)."""
    names, missing = joined(base, cand)
    factor = scale_factor(base, cand, names) if normalize else 1.0
    if normalize:
        print(f"bench_gate: machine factor (median ratio) = {factor:.3f}",
              file=out)
    regressed = list(missing)
    for n in missing:
        print(f"  MISSING  {n}: in baseline but not in candidate", file=out)
    for n in names:
        b = base[n]["ops_per_ms"]
        c = cand[n]["ops_per_ms"]
        cand_mean = c["mean"] / factor
        drop = b["mean"] - cand_mean
        allowance = max(threshold * b["mean"],
                        noise_sigma * math.hypot(b["stddev"],
                                                 c["stddev"] / factor))
        if drop > allowance:
            regressed.append(n)
            print(f"  REGRESSED {n}: baseline {b['mean']:.1f} -> "
                  f"candidate {cand_mean:.1f} ops/ms "
                  f"(drop {drop:.1f} > allowance {allowance:.1f})", file=out)
    print(f"bench_gate: {len(names)} entries compared, "
          f"{len(missing)} missing, "
          f"{len(regressed) - len(missing)} regressed", file=out)
    return regressed


def load_metrics(path):
    """Parse a JSON-lines telemetry sidecar into {name: value}.

    Count and mark lines carry "value".  Value and span lines expand into
    one metric per numeric field, named {event}.{field}
    (skiptree.add.p99_us, ebr.limbo_bytes.max, ...).  Other lines (schema,
    samples, heatmaps) are ignored.  Later lines win on a name collision.
    """
    by_name = {}
    total = 0
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            total += 1
            kind = rec.get("type")
            if kind in ("count", "mark"):
                by_name[rec["name"]] = rec.get("value", 0)
            elif kind in ("value", "span"):
                for field, v in rec.items():
                    if field in ("type", "name"):
                        continue
                    if isinstance(v, (int, float)) and v == v:
                        by_name[f"{rec['name']}.{field}"] = v
    if total == 0:
        raise SystemExit(f"bench_gate: metrics sidecar {path} is empty")
    return by_name, total


def check_metrics(path, require, require_under, out=sys.stdout):
    """Returns the number of failed requirements."""
    by_name, total = load_metrics(path)
    print(f"bench_gate: {total} sidecar records, "
          f"{len(by_name)} named metrics in {path}", file=out)
    failures = 0
    for name in require:
        value = by_name.get(name)
        if value is None:
            failures += 1
            print(f"  MISSING  {name}: not in sidecar", file=out)
        elif value <= 0:
            failures += 1
            print(f"  ZERO     {name}: present but never recorded", file=out)
        else:
            print(f"  ok       {name} = {value}", file=out)
    for spec in require_under:
        name, sep, limit = spec.rpartition("=")
        if not sep:
            raise SystemExit(
                f"bench_gate: --require-under wants NAME=LIMIT, got {spec!r}")
        limit = float(limit)
        value = by_name.get(name)
        if value is None:
            failures += 1
            print(f"  MISSING  {name}: not in sidecar", file=out)
        elif value > limit:
            failures += 1
            print(f"  EXCEEDED {name} = {value} > limit {limit:g}", file=out)
        else:
            print(f"  ok       {name} = {value} <= {limit:g}", file=out)
    print(f"bench_gate: {failures} metric requirement(s) failed", file=out)
    return failures


def self_test(base, threshold, noise_sigma):
    clean = diff(base, base, threshold, noise_sigma, normalize=False)
    if clean:
        print("bench_gate self-test: FAIL (clean self-compare regressed)")
        return 1
    slowed = copy.deepcopy(base)
    for e in slowed.values():
        e["ops_per_ms"]["mean"] *= 0.8
    # The synthetic regression must trip even with normalization on: a
    # uniform 20% slowdown with --normalize would be absorbed into the
    # machine factor, so self-test exercises the absolute path.
    broken = diff(base, slowed, threshold, noise_sigma, normalize=False)
    if not broken:
        print("bench_gate self-test: FAIL "
              "(synthetic 20% regression slipped through)")
        return 1
    sink = io.StringIO()

    # Sketch expansion: span and value lines must gate like counters.
    with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                     delete=False) as f:
        f.write(json.dumps({"type": "span", "name": "skiptree.add",
                            "count": 42, "p50_us": 1.5, "p99_us": 12.0,
                            "max_us": 30.0, "mean_us": 2.0}) + "\n")
        f.write(json.dumps({"type": "value", "name": "ebr.limbo_bytes",
                            "count": 9, "max": 4096}) + "\n")
        f.write(json.dumps({"type": "count",
                            "name": "skiptree.cas_failures",
                            "value": 7}) + "\n")
        f.write(json.dumps({"type": "mark", "name": "ebr.advance",
                            "value": 0}) + "\n")
        sketch_path = f.name
    try:
        passed = check_metrics(sketch_path,
                               ["skiptree.add.count", "skiptree.cas_failures",
                                "ebr.limbo_bytes.max"],
                               ["skiptree.add.p99_us=100",
                                "ebr.limbo_bytes.max=8192"], out=sink) == 0
        tripped = check_metrics(sketch_path, [],
                                ["skiptree.add.p99_us=1"], out=sink) == 1
        zero = check_metrics(sketch_path, ["ebr.advance"], [], out=sink) == 1
    finally:
        os.unlink(sketch_path)
    if not passed:
        print("bench_gate self-test: FAIL (sketch fields not gateable)")
        return 1
    if not tripped:
        print("bench_gate self-test: FAIL "
              "(p99 over --require-under limit slipped through)")
        return 1
    if not zero:
        print("bench_gate self-test: FAIL (zero mark passed --require)")
        return 1

    print("bench_gate self-test: OK "
          "(clean run passes, 20% synthetic regression fails, "
          "sketch quantiles gate)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline",
                    help="checked-in BENCH_*.json baseline")
    ap.add_argument("--candidate",
                    help="bench JSON from the run under test")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="relative drop tolerated (default 0.15)")
    ap.add_argument("--noise-sigma", type=float, default=2.0,
                    help="stddev multiples tolerated (default 2.0)")
    ap.add_argument("--normalize", action="store_true",
                    help="divide out the median machine-speed ratio")
    ap.add_argument("--max-regressions", type=int, default=0,
                    help="entries allowed to regress before the gate fails "
                         "(default 0; CI uses a small slack for noisy "
                         "shared runners)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate trips on a synthetic 20%% "
                         "regression and passes a clean self-compare")
    ap.add_argument("--check-metrics", metavar="PATH",
                    help="validate a --telemetry-json sidecar instead of "
                         "(or alongside) a throughput diff")
    ap.add_argument("--require", nargs="+", default=[], metavar="NAME",
                    help="sidecar metrics that must exist with a nonzero "
                         "value (e.g. skiptree.add.count)")
    ap.add_argument("--require-under", nargs="+", default=[],
                    metavar="NAME=LIMIT",
                    help="sidecar metrics that must exist and stay at or "
                         "below LIMIT (e.g. ebr.limbo_bytes.max=1048576)")
    args = ap.parse_args()

    if args.check_metrics:
        failed = check_metrics(args.check_metrics, args.require,
                               args.require_under)
        if failed:
            sys.exit(1)
        if not args.baseline:
            sys.exit(0)
    if not args.baseline:
        ap.error("--baseline is required unless --check-metrics")

    base = load(args.baseline)
    if args.self_test:
        sys.exit(self_test(base, args.threshold, args.noise_sigma))
    if not args.candidate:
        ap.error("--candidate is required unless --self-test")
    cand = load(args.candidate)
    regressed = diff(base, cand, args.threshold, args.noise_sigma,
                     args.normalize)
    if len(regressed) > args.max_regressions:
        sys.exit(1)
    if regressed:
        print(f"bench_gate: {len(regressed)} regression(s) within "
              f"--max-regressions {args.max_regressions}; passing")
    sys.exit(0)


if __name__ == "__main__":
    main()
