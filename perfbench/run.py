#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload read_mostly --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another
    python3 perfbench/run.py --self-test

Run from the repository root.  The benchmark binary is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output goes
to stderr so that the last line of stdout is the binary's JSON summary.  The
exit code is the binary's: non-zero when the build fails or any correctness
check fails.
"""
import argparse
import json
import math
import os
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def build_root():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build():
    """Configure (once) and build the benchmark binary; return its path or None."""
    bdir = build_root() / "perfbench"
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--parallel", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return bdir / "perfbench"


def revision():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def bench_command(binary, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(build_root() / "work"), "--revision", revision()]
    if trace:
        cmd += ["--trace-out", str(build_root() / f"trace-{workload}-seed{seed}.json")]
    return cmd


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    """Unit checks of the binary and of spread.py, then a short smoke run of
    every workload in both modes against the declarations in BENCHMARK.json."""
    import spread  # perfbench/spread.py

    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    check(subprocess.run([str(binary), "--self-test"]).returncode == 0,
          "binary self-test (percentiles, metric names, oracle)")
    check(spread.spread(list(range(1, 11))) == 1.0,
          "spread of 1..10 is IQR 5.5 / median 5.5")
    check(spread.spread([2.0, 2.0, 2.0, 2.0]) == 0.0, "spread of a constant is 0")
    check(abs(spread.spread([9, 10, 10, 10, 11]) - 0.1) < 1e-12,
          "spread of 9,10,10,10,11 is IQR 1 / median 10")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    check(all(NAME_RE.fullmatch(n) for n in e2e + layer),
          "every declared metric name matches [A-Za-z0-9_.-]+")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for w in (x["name"] for x in bench["workloads"]):
        for trace, declared in ((0, e2e), (1, layer)):
            cmd = bench_command(binary, w, 1, 1, trace)
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            res = last_json(out.stdout) if out.returncode == 0 else None
            what = f"smoke {w} trace={trace}"
            check(res is not None, f"{what}: exits 0")
            if res is None:
                print(out.stderr[-2000:])
                continue
            check(res["failed"] == 0 and res["correct"] and res["attempted"] > 0,
                  f"{what}: error_rate == 0 over {res['attempted']} checked results")
            got = res["metrics"]
            check(list(got) == declared, f"{what}: reports exactly the declared metrics")
            check(all(got[n]["unit"] == units[n] and math.isfinite(got[n]["value"])
                      for n in got), f"{what}: units match and values are finite")
            if trace:
                storage = [l for l in out.stdout.splitlines() if l.startswith("metric storage.")]
                enters = w == "durable_mixed"
                check(bool(storage) == enters,
                      f"{what}: storage.* metrics {'present' if enters else 'absent'}")
    print("self-test " + ("passed" if not failures else f"FAILED ({len(failures)})"))
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        sys.path.insert(0, str(HERE))
        return self_test(binary)
    names = [args.workload]
    if args.workload == "all":
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in bench["workloads"]]
    worst = 0
    for name in names:
        sys.stdout.flush()
        cmd = bench_command(binary, name, args.seed, args.seconds, args.trace)
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
