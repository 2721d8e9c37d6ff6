#!/usr/bin/env python3
"""CI perf-regression gate over the benches' machine-readable output.

Compares every bench/baselines/BENCH_*.json against the same-named file
in a results directory produced by scripts/run_benches.sh, and exits
non-zero when a guarded metric drifts outside its tolerance.

Only *count-based* metrics are guarded (solutions, pages read, clauses
decoded, cache misses, governor decisions): counts are deterministic
properties of the engine's algorithms, so a drift is a real behavioural
regression — more I/O, more decoding, a cache that stopped hitting.
Wall-clock metrics (*_ms, *_ns, speedups, overhead ratios) are skipped:
CI hosts are noisy and shared, and the benches already enforce their own
timing acceptance bars (which are paired-ratio based where the margin is
tight) by aborting, so a green bench run covers the timing side.

Tolerances are per-metric (see TOLERANCES): exact for solution/row
counts, a default relative band for page/decode counters whose exact
values may shift benignly with ordering, and looser bands for metrics
downstream of scheduling (e.g. the governor's decision counts).

Refreshing baselines after an intentional perf change:

    scripts/run_benches.sh bench-results
    cp bench-results/BENCH_*.json bench/baselines/
    git add bench/baselines/ && git commit

Review the diff of the baseline files in the same PR as the change that
moved them, and say in the commit message why the counts moved.

Usage:
    scripts/check_bench_regression.py <results-dir> [--baselines <dir>]
"""

import argparse
import json
import re
import sys
from pathlib import Path

# Wall-clock and machine-shape metrics: never guarded. Time ratios
# (speedups, overheads, `a_vs_b`) count as wall clock.
SKIP_PATTERNS = [
    r"_ms$",
    r"_ns$",
    r"_s$",
    r"_ns_per_iter$",
    r"speedup",
    r"overhead",
    r"_vs_",
    r"^cores$",
    r"^host_cores$",
]

# Metrics whose *values* (even count-based ones) are shaped by how many
# cores the host has: parallel-worker outcomes, admission queueing/shed
# counts, per-worker splits. When the baseline and the results were
# recorded on hosts with different host_cores, comparing these is
# comparing the machines, not the engine — they are skipped with a note.
# This closes the gating hole of a baseline recorded on a 1-core host
# silently failing (or vacuously passing) on a many-core CI runner.
CORE_DEPENDENT_PATTERNS = [
    r"speedup",
    r"_w\d+",        # per-worker-count columns (wisc_w4_ms style)
    r"worker",
    r"shed",
    r"waited",
    r"queue",
]

# Metrics compared exactly: a solution-count change means the engine
# answered differently, which is a correctness bug, not a perf drift.
# The *_ok keys are a bench's own pass/fail verdicts (dormant_ok,
# overhead_ok, rank_ok): any flip from 1 is a gate miss, never a drift.
EXACT_PATTERNS = [
    r"^solutions",
    r"_rows$",
    r"_goals$",
    r"_count$",
    r"_ok$",
]

# (bench-file pattern, metric pattern) -> (relative tolerance, absolute
# slack). First match wins; the absolute slack keeps near-zero counters
# (baseline 0 or 1) from failing on a +1 wobble. Checked before DEFAULT.
TOLERANCES = [
    # The governor's decision/rebalance counts and final split depend on
    # where retirement windows land relative to phase boundaries; small
    # shifts are benign, halving/doubling is not.
    (r"governor", r"^adaptive_(decisions|rebalances)$", (0.50, 3)),
    (r"governor", r"^adaptive_final_(pool|cache)_bytes$", (0.25, 0)),
    (r"governor", r"pages_read|cache_misses", (0.50, 16)),
]

# Everything else numeric: 15% relative, +/-2 absolute.
DEFAULT_TOLERANCE = (0.15, 2)


def matches_any(patterns, key):
    return any(re.search(p, key) for p in patterns)


def tolerance_for(bench_name, key):
    for bench_pat, key_pat, tol in TOLERANCES:
        if re.search(bench_pat, bench_name) and re.search(key_pat, key):
            return tol
    return DEFAULT_TOLERANCE


def core_counts_differ(baseline, results):
    """True when both sides recorded host_cores and they disagree."""
    base_cores = baseline.get("host_cores")
    result_cores = results.get("host_cores")
    return (base_cores is not None and result_cores is not None
            and base_cores != result_cores)


def check_dicts(bench_name, baseline, results, notes=None):
    """Compares two parsed bench dicts; returns failure strings."""
    failures = []
    skip_core_dependent = core_counts_differ(baseline, results)
    if skip_core_dependent and notes is not None:
        notes.append(
            f"{bench_name}: host_cores {baseline['host_cores']} (baseline) != "
            f"{results['host_cores']} (results); core-dependent metrics "
            f"skipped")

    for key, expected in baseline.items():
        if matches_any(SKIP_PATTERNS, key):
            continue
        if skip_core_dependent and matches_any(CORE_DEPENDENT_PATTERNS, key):
            continue
        if key not in results:
            failures.append(f"{bench_name}.{key}: missing from results")
            continue
        actual = results[key]
        if isinstance(expected, str):
            if actual != expected:
                if key.startswith("toolchain_"):
                    # Provenance, not a gauge: a different compiler,
                    # -O level or dispatch mode makes the *timing*
                    # baselines incomparable, but is not itself a
                    # regression. Surface it so a human reading a
                    # borderline run knows the machines differ.
                    if notes is not None:
                        notes.append(
                            f"{bench_name}.{key}: '{actual}' != baseline "
                            f"'{expected}' (toolchain mismatch; timing "
                            f"baselines not comparable)")
                else:
                    failures.append(
                        f"{bench_name}.{key}: '{actual}' != baseline "
                        f"'{expected}'")
            continue
        if matches_any(EXACT_PATTERNS, key):
            if actual != expected:
                failures.append(
                    f"{bench_name}.{key}: {actual} != baseline {expected} "
                    f"(exact match required)")
            continue
        rel, abs_slack = tolerance_for(bench_name, key)
        allowed = max(abs(expected) * rel, abs_slack)
        if abs(actual - expected) > allowed:
            failures.append(
                f"{bench_name}.{key}: {actual} vs baseline {expected} "
                f"(allowed drift {allowed:g})")
    return failures


def check_file(baseline_path, results_path, notes=None):
    """Returns a list of failure strings for one bench file."""
    bench_name = baseline_path.stem
    baseline = json.loads(baseline_path.read_text())
    if not results_path.exists():
        return [f"{bench_name}: results file missing ({results_path})"]
    results = json.loads(results_path.read_text())
    return check_dicts(bench_name, baseline, results, notes)


def self_test():
    """Checks the checker itself — in particular that a host_cores
    mismatch (injected here) suppresses exactly the core-dependent
    metrics and nothing else. Run by CI as a test."""
    base = {
        "host_cores": 1,
        "solutions": 100,          # exact
        "pages_read": 50,          # tolerant count
        "warm_ms": 12.5,           # wall-clock: never guarded
        "wisc_speedup_w4": 0.49,   # core-dependent
        "shed_timeout": 3,         # core-dependent count
        "toolchain_compiler": "gcc 12.2.0",   # provenance: note, not gate
        "bench": "selftest",                  # other strings still gate
        "dormant_ok": 1,           # bench self-verdict: exact
        "overhead_ratio": 1.001,   # matches 'overhead': never guarded
        "raw_ns_per_iter": 441.0,  # wall-clock per iteration: never guarded
    }

    def run(results):
        return check_dicts("selftest", base, results)

    failures = []

    def expect(label, got, want_substrings):
        got_text = "\n".join(got)
        if len(got) != len(want_substrings):
            failures.append(f"{label}: expected {len(want_substrings)} "
                            f"failure(s), got {len(got)}: [{got_text}]")
            return
        for want in want_substrings:
            if want not in got_text:
                failures.append(f"{label}: missing '{want}' in [{got_text}]")

    # Identical results on the same machine shape: clean.
    expect("identical", run(dict(base)), [])

    # Same cores: a core-dependent count drift IS flagged...
    same_cores = dict(base, shed_timeout=30)
    expect("same-cores drift", run(same_cores), ["selftest.shed_timeout"])

    # ...but with mismatched cores the same drift is skipped, including
    # the speedup-ish keys, while machine-independent counts still gate.
    diff_cores = dict(base, host_cores=8, shed_timeout=30,
                      wisc_speedup_w4=3.1)
    expect("core-mismatch skip", run(diff_cores), [])
    diff_cores_real_bug = dict(diff_cores, solutions=99)
    expect("core-mismatch still gates counts", run(diff_cores_real_bug),
           ["selftest.solutions"])

    # Wall-clock never gates, whatever the machine shape.
    expect("wall-clock skip", run(dict(base, warm_ms=9999.0)), [])
    expect("per-iteration wall-clock skip",
           run(dict(base, raw_ns_per_iter=553.0)), [])

    # Exact metrics tolerate nothing.
    expect("exact", run(dict(base, solutions=101)), ["selftest.solutions"])

    # A bench's own pass/fail verdict flipping is exact too (the +/-2
    # absolute slack of the default band must never swallow a 1 -> 0).
    expect("ok-verdict flip", run(dict(base, dormant_ok=0)),
           ["selftest.dormant_ok"])

    # ...while its timing ratio stays unguarded however far it moves.
    expect("overhead ratio skip", run(dict(base, overhead_ratio=97.0)), [])

    # A toolchain_* mismatch is a note, never a failure...
    toolchain_notes = []
    expect("toolchain mismatch is a note",
           check_dicts("selftest", base,
                       dict(base, toolchain_compiler="clang 17.0.1"),
                       toolchain_notes), [])
    if not any("toolchain_compiler" in n for n in toolchain_notes):
        failures.append("toolchain mismatch: expected a note, got "
                        f"{toolchain_notes}")
    # ...while other string metrics still gate exactly.
    expect("non-toolchain string gates",
           run(dict(base, bench="renamed")), ["selftest.bench"])

    # A missing metric is a failure (a bench silently dropped a gauge).
    missing = dict(base)
    del missing["pages_read"]
    expect("missing key", run(missing), ["selftest.pages_read"])

    if failures:
        print("self-test FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results_dir", type=Path, nargs="?",
                        help="directory holding BENCH_*.json from run_benches.sh")
    parser.add_argument("--baselines", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "bench" / "baselines",
                        help="baseline directory (default: bench/baselines)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the checker's own skip/gate logic "
                        "(including the host_cores mismatch rules) and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.results_dir is None:
        parser.error("results_dir is required unless --self-test")

    baseline_files = sorted(args.baselines.glob("BENCH_*.json"))
    if not baseline_files:
        print(f"error: no baselines under {args.baselines}", file=sys.stderr)
        return 2

    all_failures = []
    checked = 0
    for baseline_path in baseline_files:
        results_path = args.results_dir / baseline_path.name
        notes = []
        failures = check_file(baseline_path, results_path, notes)
        all_failures.extend(failures)
        checked += 1
        status = "FAIL" if failures else "ok"
        print(f"{status:>4}  {baseline_path.name}")
        for note in notes:
            print(f"note  {note}")

    # New result files without a baseline are fine (a new bench lands
    # before its first baseline refresh) but worth surfacing.
    baseline_names = {p.name for p in baseline_files}
    for results_path in sorted(args.results_dir.glob("BENCH_*.json")):
        if results_path.name not in baseline_names:
            print(f"note  {results_path.name} has no baseline "
                  f"(add one via the refresh procedure in this script)")

    if all_failures:
        print(f"\n{len(all_failures)} regression(s) across "
              f"{checked} bench file(s):", file=sys.stderr)
        for failure in all_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall {checked} bench files within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
