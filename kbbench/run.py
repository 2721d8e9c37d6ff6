#!/usr/bin/env python3
"""Builds the kbbench program from source and runs one benchmark workload.

Usage (from the repository root):

    python3 kbbench/run.py --workload serial_rw --seed 1 --seconds 10 --trace 0

Workloads: serial_rw, shared_read, closure (see kbbench/workloads.json);
--workload all runs the three in turn, each printing its own report.
The build goes to .bench_build/kbbench and scratch files (database images,
Chrome traces) to .bench_work, both under the root. Build output goes to
stderr; the program's report goes to stdout, its last line one JSON object
with the keys correct, attempted, failed and metrics. That line must hold
exactly the metrics BENCHMARK.json lists for the mode (end_to_end with
--trace 0, per_layer with --trace 1), in their units. Exits non-zero,
without a result line, when the build or the run fails or that check does.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serial_rw", "shared_read", "closure")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(root: Path) -> Path:
    """Configures (once) and builds the kbbench target; returns the binary."""
    source = root / "kbbench"
    build_dir = root / ".bench_build" / "kbbench"
    binary = build_dir / "kbbench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(source), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "kbbench", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return binary


def manifest_metrics(root: Path, trace: bool) -> dict:
    """The metrics BENCHMARK.json says a run prints, by name, with units."""
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def check_result(line: str, expected: dict) -> str:
    """Returns what is wrong with a result line, or "" when nothing is."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "the last line is not a JSON result"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "the result line has the wrong keys"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        return (f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"extra {extra}, wrong unit {units}")
    return ""


def main() -> int:
    # A SIGTERM becomes SystemExit, on which subprocess.run kills the build
    # or the benchmark program and waits for it before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if shutil.which("cmake") is None:
        print("kbbench: cmake not found", file=sys.stderr)
        return 2
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"kbbench: build failed: {err}", file=sys.stderr)
        return 2

    expected = manifest_metrics(root, args.trace == "1")
    work = root / ".bench_work"
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work", str(work)]
        try:
            run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                                 stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            # subprocess.run kills the child and waits for it before raising.
            print(f"kbbench: {workload} timed out", file=sys.stderr)
            return 2
        lines = run.stdout.splitlines()
        problem = (f"exit code {run.returncode}" if run.returncode != 0
                   else check_result(lines[-1] if lines else "", expected))
        if problem:
            # The report without its result line, so no result is printed.
            print("\n".join(lines[:-1]))
            print(f"kbbench: {workload}: {problem}", file=sys.stderr)
            return run.returncode or 2
        print(run.stdout, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
