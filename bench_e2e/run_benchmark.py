#!/usr/bin/env python3
"""End-to-end benchmark of the paper's workloads (README.md in this directory).

    python3 bench_e2e/run_benchmark.py             every workload, 5 processes
                                                   of run_seconds each
    python3 bench_e2e/run_benchmark.py --traced    the per-layer split
    python3 bench_e2e/run_benchmark.py --quick     harness smoke test (< 15 s)
    python3 bench_e2e/run_benchmark.py --json out.json   keep the samples
    python3 bench_e2e/run_benchmark.py compare a.json b.json

One process of a single workload, the `command` of BENCHMARK.json:

    python3 bench_e2e/run_benchmark.py --workload NAME --seed N \\
        --seconds S --trace 0|1

prints the host fingerprint, then, as its last line, one JSON object with the
keys correct, attempted, failed and metrics (the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1).

Every mode builds bench_e2e first (cmake, into $CARGO_TARGET_DIR or
.bench_build at the repository root) and exits non-zero when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each binary run ends well inside this; a hung run must not hang the bench.
RUN_TIMEOUT_S = 170
# Processes per workload in the default mode.
REPS = 5
# Absolute changes no larger than these are never a regression: set-up
# takes a few milliseconds or less, where scheduling noise alone moves the
# median by more than its relative bound (README.md).
ABS_FLOOR = {"setup_s": 0.005}


def fail(message):
    print(f"run_benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Builds bench_e2e from the checkout's sources; returns its path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "dcc")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at {ROOT}: bench_e2e builds the repository's "
                 "own sources and cannot run without them")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "bench_e2e")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "--target", "bench_e2e",
              "-j", jobs]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bench_e2e")


def run_binary(binary, workload, seed, seconds, trace, quick):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    # Exit code 1 is a failed check and still carries the result line.
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


# Printed beside the end-to-end metrics of BENCHMARK.json but not gated: on
# a fixed set of networks rounds_total is fixed, so rounds_per_s moves
# exactly inversely to wall_s, and raw_wall_s carries the host's slowdowns
# (README.md).
UNGATED = [{"name": "rounds_per_s", "unit": "1/s"},
           {"name": "raw_wall_s", "unit": "s"}]

# The reference kernel's time (bench_e2e.cc, ReferenceKernel) on a quiet
# stretch of the host in baseline.json. Times are divided by the kernel's
# time in the same process and multiplied by this constant, so they read as
# seconds on that host while its slowdowns cancel out (README.md).
REF_SECONDS = 100e-6


def end_to_end(result):
    if not result["ref_s"] > 0:
        fail(f"{result['workload']}: no reference kernel samples")
    scale = REF_SECONDS / result["ref_s"]
    nets = result["networks"]
    raw_wall = statistics.fmean(net["best_s"] for net in nets)
    wall = raw_wall * scale
    rounds = statistics.fmean(net["rounds_total"] for net in nets)
    return {
        "wall_s": wall,
        "rounds_per_s": rounds / wall,
        "raw_wall_s": raw_wall,
        "setup_s": min(result["setup_s"]) * scale,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def pin_mismatches(result, pins):
    """Networks whose outputs differ from the pinned ones (default seed)."""
    key = "quick" if result["quick"] else "full"
    pinned = pins.get(key, {}).get(result["workload"])
    if result["seed"] != 1 or pinned is None:
        return []
    if len(result["networks"]) != len(pinned):
        return [f"{result['workload']}: {len(result['networks'])} networks, "
                f"{len(pinned)} pinned"]
    bad = []
    for got, want in zip(result["networks"], pinned):
        fields = [f"{field} {got[field]} != pinned {value}"
                  for field, value in want.items()
                  if field in got and got[field] != value]
        if fields:
            bad.append(f"{result['workload']} network {got['seed']}: "
                       + ", ".join(fields))
    return bad


def check(result, pins):
    """(correct, attempted, failed, problems) of one binary result."""
    problems = result["errors"] + pin_mismatches(result, pins)
    return not problems, result["attempted"], len(problems), problems


def load_pins():
    path = os.path.join(HERE, "baseline.json")
    return load_json(path).get("pins", {}) if os.path.exists(path) else {}


def single_main(args, bench):
    """One workload, one seed: the result line of BENCHMARK.json's command."""
    binary = build()
    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace, args.quick)
    correct, attempted, failed, problems = check(result, load_pins())
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    values = result["per_layer"] if args.trace else end_to_end(result)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    print("fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }))
    return 0 if correct else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def fmt(value):
    return f"{value:.6g}"


def human_main(args, bench):
    e2e_specs, layer_specs = bench["end_to_end"], bench["per_layer"]
    workloads = [w["name"] for w in bench["workloads"]]
    pins = load_pins()
    binary = build()
    seconds, reps = bench["run_seconds"], REPS
    if args.quick:
        seconds, reps = 0.5, 1
    fingerprint = None
    reported = e2e_specs + UNGATED
    samples = {w: {m["name"]: [] for m in reported} for w in workloads}
    per_layer = {}
    totals = {w: [0, 0] for w in workloads}  # attempted, failed
    all_ok = True

    def note(workload, result):
        nonlocal fingerprint, all_ok
        fingerprint = result["fingerprint"]
        ok, attempted, failed, problems = check(result, pins)
        totals[workload][0] += attempted
        totals[workload][1] += failed
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        all_ok = all_ok and ok

    # Round-robin over workloads, one process per (workload, rep), so slow
    # phases of a shared host spread over every workload alike.
    if not args.traced or args.quick:
        for _ in range(reps):
            for w in workloads:
                result = run_binary(binary, w, args.seed, seconds, False,
                                    args.quick)
                note(w, result)
                for name, value in end_to_end(result).items():
                    samples[w][name].append(value)
    if args.traced or args.quick:
        for w in workloads:
            result = run_binary(binary, w, args.seed, seconds, True,
                                args.quick)
            note(w, result)
            per_layer[w] = result["per_layer"]
            per_layer[w]["replay_match"] = result["replay_match"]

    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    if any(samples[w][e2e_specs[0]["name"]] for w in workloads):
        print(f"\nend-to-end (seed {args.seed}, {seconds} s per process)")
        print(f"{'workload':18} {'metric':14} {'unit':6} {'median':>12} "
              f"{'IQR':>12} {'IQR%':>7} {'n':>3}")
        for w in workloads:
            for m in reported:
                values = samples[w][m["name"]]
                q1, q3 = quartiles(values)
                median = statistics.median(values)
                print(f"{w:18} {m['name']:14} {m['unit']:6} "
                      f"{fmt(median):>12} {fmt(q3 - q1):>12} "
                      f"{100 * (q3 - q1) / median:6.2f}% {len(values):3}")
            attempted, failed = totals[w]
            print(f"{w:18} {'error_rate':14} {'ratio':6} "
                  f"{fmt(failed / max(attempted, 1)):>12}   "
                  f"({failed} of {attempted} attempts failed)")
    if per_layer:
        print(f"\nper layer (seed {args.seed}, traced pass)")
        print(f"{'metric':28} {'unit':6}" +
              "".join(f" {w:>16}" for w in per_layer))
        for m in layer_specs + [{"name": "replay_match", "unit": "bool"}]:
            print(f"{m['name']:28} {m['unit']:6}" +
                  "".join(f" {fmt(per_layer[w][m['name']]):>16}"
                          for w in per_layer))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"fingerprint": fingerprint, "seed": args.seed,
                       "seconds": seconds, "quick": args.quick,
                       "end_to_end": samples, "per_layer": per_layer},
                      f, indent=1, sort_keys=True)
    print("\nall checks passed" if all_ok else "\nCHECKS FAILED")
    return 0 if all_ok else 1


def compare_main(path_a, path_b, bench):
    """Each end-to-end metric x workload of B against A, with the bounds."""
    e2e_specs = bench["end_to_end"]
    a, b = load_json(path_a), load_json(path_b)
    if a["fingerprint"] != b["fingerprint"]:
        print("refusing to compare: the host fingerprints differ\n"
              f"  {path_a}: {json.dumps(a['fingerprint'], sort_keys=True)}\n"
              f"  {path_b}: {json.dumps(b['fingerprint'], sort_keys=True)}",
              file=sys.stderr)
        return 2
    if (a["seconds"], a["quick"]) != (b["seconds"], b["quick"]):
        print("refusing to compare: the outputs were measured with different "
              "settings", file=sys.stderr)
        return 2
    regressed = False
    print(f"{'workload':18} {'metric':14} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for w in sorted(set(a["end_to_end"]) & set(b["end_to_end"])):
        for m in e2e_specs:
            va, vb = a["end_to_end"][w][m["name"]], b["end_to_end"][w][m["name"]]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            floor = ABS_FLOOR.get(m["name"], 0.0)
            iqrs = [quartiles(v)[1] - quartiles(v)[0] for v in (va, vb)]
            spread = max(iqr / statistics.median(v)
                         for iqr, v in zip(iqrs, (va, vb)))
            if worse > m["bound"] and worse * ma > floor:
                verdict = "REGRESSED"
                regressed = True
            elif spread > m["bound"] and max(iqrs) > floor:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "ok"
            print(f"{w:18} {m['name']:14} {fmt(ma):>12} {fmt(mb):>12} "
                  f"{100 * worse:8.2f}% {100 * m['bound']:5.0f}%  {verdict}")
    return 1 if regressed else 0


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run_benchmark.py compare A.json B.json")
        return compare_main(sys.argv[2], sys.argv[3], bench)
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads,
                        help="run one workload once and print its result line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="with --workload: measurement time "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --workload: 1 for the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="n <= 128 versions of the workloads")
    parser.add_argument("--traced", action="store_true",
                        help="print the per-layer split")
    parser.add_argument("--json", help="write the samples to this file")
    args = parser.parse_args()
    if args.workload:
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        args.trace = args.trace == 1
        return single_main(args, bench)
    if args.seconds is not None or args.trace is not None:
        parser.error("--seconds and --trace apply to --workload only")
    return human_main(args, bench)


if __name__ == "__main__":
    sys.exit(main())
