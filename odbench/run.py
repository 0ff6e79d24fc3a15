#!/usr/bin/env python3
"""Builds and runs the repository benchmark (odbench).

One workload (from the repository root):

    python3 odbench/run.py --workload olap_ods --seed 1 --seconds 12 --trace 0

builds odbench from source into .bench_build/, runs its self-tests, runs the
workload and prints the workload's output; the last line is the result JSON
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).

Every workload, then the ODs-on/off ablation table, in one command:

    python3 odbench/run.py --all --seed 1 --seconds 12

Exit status: 0 when every answer checked out, 1 when a check failed, 2 when
the benchmark could not build or run.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "odbench"
BINARY = BUILD / "odbench"
WORKLOADS = ["olap_ods", "olap_no_ods", "implies_churn", "onboard"]
TEMPLATES = 13


def die(message):
    print(f"odbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; dies if it fails."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        die(f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", str(BUILD), "--target", "odbench",
               "-j", str(min(4, os.cpu_count() or 1))])
    proc = subprocess.run([str(BINARY), "--self-test"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("self-test failed")


def expected_metrics(trace):
    """The metric catalogue of BENCHMARK.json for one mode."""
    with open(ROOT / "BENCHMARK.json") as f:
        entries = json.load(f)["per_layer" if trace else "end_to_end"]
    return {e["name"]: e["unit"] for e in entries}


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, output lines, result dict)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        for line in lines:
            print(line)
        die(f"{workload} exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        for line in lines[:-1]:
            print(line)
        die(f"{workload} reported metrics {sorted(got)} but BENCHMARK.json "
            f"lists {sorted(want)} (names and units must match)")
    return proc.returncode, lines, result


def kind_medians(lines):
    for line in lines:
        if line.startswith('{"kind_medians_ms"'):
            return json.loads(line)["kind_medians_ms"]
    die("no per-kind medians in the olap output")


def print_ablation(seed, seconds, ods, no_ods):
    """The paper's Section 2.3 report: % faster with ODs, per query kind."""
    print(f"\nODs-on/off ablation, seed {seed}, {seconds} s per arm "
          "(median Plan+Execute latency per request kind)")
    print(f"{'kind':<26}{'ODs off ms':>12}{'ODs on ms':>12}{'% faster':>10}")
    template_gains = []
    for kind, off in no_ods.items():
        on = ods[kind]
        gain = (off - on) / off * 100.0 if off > 0 else 0.0
        if kind.startswith("q"):
            template_gains.append(gain)
        print(f"{kind:<26}{off:>12.3f}{on:>12.3f}{gain:>10.1f}")
    if len(template_gains) != TEMPLATES:
        die(f"expected {TEMPLATES} templates, saw {len(template_gains)}")
    mean = sum(template_gains) / len(template_gains)
    print(f"{'mean over the 13 templates':<50}{mean:>10.1f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true",
                       help="run every workload, then the ablation table")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    seconds = int(args.seconds) if args.seconds.is_integer() else args.seconds

    build()
    if args.workload:
        code, lines, _ = run_workload(args.workload, args.seed, seconds,
                                      args.trace == 1)
        for line in lines:
            print(line)
        return code

    worst = 0
    medians = {}
    for workload in WORKLOADS:
        code, lines, result = run_workload(workload, args.seed, seconds,
                                           args.trace == 1)
        worst = max(worst, code)
        if workload.startswith("olap"):
            medians[workload] = kind_medians(lines)
        print(f"\n{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<42}{metric['value']:>16.6g} {metric['unit']}")
    print_ablation(args.seed, seconds, medians["olap_ods"],
                   medians["olap_no_ods"])
    return worst


if __name__ == "__main__":
    sys.exit(main())
