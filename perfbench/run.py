#!/usr/bin/env python3
"""Build and run the repository's benchmark; print one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep|node_reads|routed_survey \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds the `perfbench` binary (the
repository's libraries from ./src plus perfbench/src) into
$CARGO_TARGET_DIR, default `.bench_build`; later calls only re-run the
no-op build. The binary runs in `work/` inside that directory, where it
writes its generated field files; its calibration is fixed in
perfbench/src/bench.h. This script checks its result line against
BENCHMARK.json: with --trace 0 the metrics are
exactly the `end_to_end` list, with --trace 1 exactly the `per_layer` list
(a layer a workload never runs reads 0). A failed output check prints the
result with "correct": false and exits 1. Anything else that goes wrong
exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configure once, then build the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit(f"perfbench: no repository sources under {ROOT}/src")
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def binary_args(workload, seed, seconds, trace, tiny):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    return args + ["--tiny", "1"] if tiny else args


def run_binary(binary, args, work_dir):
    """Run the binary; returns (exit code, parsed last stdout line)."""
    proc = subprocess.run([binary] + args, cwd=work_dir,
                          stdout=subprocess.PIPE,
                          stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                          text=True, check=False)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise SystemExit(f"perfbench: the binary printed no result "
                         f"(exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def shape(result, declared, fill_missing):
    """Exactly the declared metrics, in declared order, with declared units."""
    got = result["metrics"]
    names = [m["name"] for m in declared]
    extra = sorted(set(got) - set(names))
    if extra:
        raise SystemExit(f"perfbench: metrics not in BENCHMARK.json: {extra}")
    metrics = {}
    for m in declared:
        if m["name"] in got:
            if got[m["name"]]["unit"] != m["unit"]:
                raise SystemExit(f"perfbench: unit of {m['name']} is "
                                 f"{got[m['name']]['unit']}, declared "
                                 f"{m['unit']}")
            value = got[m["name"]]["value"]
        elif fill_missing:
            value = 0.0  # this workload never runs the layer
        else:
            raise SystemExit(f"perfbench: no value for {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def selftest(binary, bench, work_dir):
    """Every workload at minimal length with all checks on, plus the
    byte-identity check of the timing decorators."""
    failures = []
    code, result = run_binary(binary, ["--workload", "selftest"], work_dir)
    if code != 0 or not result["correct"]:
        failures.append("selftest: decorators changed reply bytes")
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            started = time.monotonic()
            code, result = run_binary(
                binary, binary_args(workload, 1, 4, trace, True), work_dir)
            declared = bench["per_layer"] if trace else bench["end_to_end"]
            shaped = shape(result, declared, fill_missing=bool(trace))
            ok = code == 0 and shaped["correct"] and shaped["failed"] == 0
            log(f"selftest {workload} trace {trace}: "
                f"{'ok' if ok else 'FAILED'} "
                f"({time.monotonic() - started:.1f} s)")
            if not ok:
                failures.append(f"{workload} trace {trace}")
    if failures:
        log("selftest FAILED: " + ", ".join(failures))
        return 1
    log("selftest passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    out_dir = build_dir()
    binary = build(out_dir)
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    if opts.selftest:
        return selftest(binary, bench, work_dir)

    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workload not in workloads:
        parser.error(f"--workload must be one of {workloads}")
    seconds = bench["run_seconds"] if opts.seconds is None else opts.seconds
    code, result = run_binary(binary, binary_args(
        opts.workload, opts.seed, seconds, opts.trace, False), work_dir)
    declared = bench["per_layer"] if opts.trace else bench["end_to_end"]
    shaped = shape(result, declared, fill_missing=bool(opts.trace))
    if code not in (0, 1):
        raise SystemExit(f"perfbench: the binary exited {code}")
    print(json.dumps(shaped), flush=True)
    return 0 if code == 0 and shaped["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
