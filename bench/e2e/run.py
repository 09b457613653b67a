#!/usr/bin/env python3
"""Build bench_e2e from this checkout, then run it.

One workload; the last line of standard output is the result object:
  python3 bench/e2e/run.py --workload crd_dense --seed 1 --seconds 20 --trace 0
Whole sets of untraced runs (every workload of BENCHMARK.json, seeds
--seed, --seed + 1, ...), merged into one results file:
  python3 bench/e2e/run.py --sets 2 --out bench/e2e/results/baseline.json
Compare two results files against the bounds in BENCHMARK.json:
  python3 bench/e2e/run.py --compare base.json new.json

The build goes to $CARGO_TARGET_DIR/e2e (default .bench_build/e2e) under the
checkout root, and its output to standard error. Traced runs write their
Chrome traces next to it, in traces/.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_TIMEOUT_S = 175


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: the library sources (src/) are not in this checkout")
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2e"
    steps = [["cmake", "--build", str(out), "--target", "bench_e2e",
              "-j", str(os.cpu_count() or 1)]]
    if not (out / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: building bench_e2e failed")
    return out


def call(exe, args):
    try:
        return subprocess.run([str(exe)] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: bench_e2e ran over {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def run_sets(exe, out, bench, a):
    runs = []
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        record = Path(tmp) / "run.json"
        for s in range(a.sets):
            for w in bench["workloads"]:
                rc = call(exe, [f"--workload={w['name']}", f"--seed={a.seed + s}",
                                f"--seconds={a.seconds}", f"--json={record}"])
                if rc != 0:
                    return rc
                runs.append(json.loads(record.read_text()))
    Path(a.out).parent.mkdir(parents=True, exist_ok=True)
    Path(a.out).write_text(json.dumps({"host": runs[0]["host"], "runs": runs},
                                      indent=1) + "\n")
    return 0


def main():
    bench_path = ROOT / "BENCHMARK.json"
    bench = json.loads(bench_path.read_text()) if bench_path.is_file() else {}
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench.get("run_seconds", 20))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sets", type=int, help="run this many sets of all workloads")
    p.add_argument("--out", help="results file for --sets")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    a = p.parse_args()
    if a.sets and not a.out:
        p.error("--sets needs --out")
    if not (a.workload or a.sets or a.compare):
        p.error("give --workload, --sets or --compare")

    out = build()
    exe = out / "bench_e2e"
    if a.compare:
        return call(exe, ["--compare", *a.compare])
    if a.sets:
        return run_sets(exe, out, bench, a)
    args = [f"--workload={a.workload}", f"--seed={a.seed}", f"--seconds={a.seconds}"]
    if a.trace:
        args.append(f"--trace={out / 'traces'}")
    return call(exe, args)


if __name__ == "__main__":
    sys.exit(main())
