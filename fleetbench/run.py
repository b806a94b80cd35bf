#!/usr/bin/env python3
"""Fleet co-simulation benchmark: builds the benchmark program from the
sources in this checkout, runs one workload in its own process, checks its
outputs and prints the result as the last line of standard output.

    python3 fleetbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 fleetbench/run.py --self-test

`--trace 0` (the timed run) prints every end-to-end metric of BENCHMARK.json;
`--trace 1` first makes a timed run of the same seed, then the traced run, which
must reproduce its checksum; it prints every per-layer metric and writes the
span file to .bench_build/spans/. Build output and program logs also go under
.bench_build/. Every run steps the workload's fixed epoch count, so `--seconds`
is accepted but does not change the work measured. The exit status is 0 only
when every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "fleetbench"
RECORDS = HERE / "records.json"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
# Terminal I/O is not the program: campaign fault latches dump flight
# recorders at warn level.
LOG_LEVEL = "error"


def fail(message):
    print(f"fleetbench: {message}", file=sys.stderr)
    sys.exit(2)


def available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; fails the benchmark on error."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        fail(f"{cmd[0]} failed: {exc}")
    if done.returncode != 0:
        fail(f"command failed ({done.returncode}): {' '.join(map(str, cmd))}")


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to the benchmark")
    started = time.monotonic()
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    left = BUILD_TIMEOUT_S - (time.monotonic() - started)
    run_quiet(["cmake", "--build", str(BUILD), "-j", str(available_cpus()),
               "--target", target], max(left, 1))
    return BUILD / target


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


def run_program(binary, args, log_name):
    """Runs the benchmark program; returns (exit code, parsed JSON or None)."""
    logs = BUILD_ROOT / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, AQUA_LOG_LEVEL=LOG_LEVEL)
    with open(logs / log_name, "w", encoding="utf-8") as err:
        try:
            done = subprocess.run([str(binary)] + args, cwd=ROOT, env=env,
                                  stdout=subprocess.PIPE, stderr=err, text=True,
                                  timeout=RUN_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            return 124, None
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    try:
        return done.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return done.returncode, None


def run_once(binary, workload, seed, trace, scratch, spans=None):
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(trace),
            "--scratch", str(scratch)]
    if spans is not None:
        args += ["--spans", str(spans)]
    return run_program(binary, args, f"{workload}-{seed}-trace{trace}.log")


def check(result, code, workload, seed, records):
    """Correctness findings of one program run (empty list = correct)."""
    if result is None:
        return [f"program exited {code} without a result"]
    problems = list(result.get("errors", []))
    if code != 0 and not problems:
        problems.append(f"program exited {code}")
    if result["box"]["log_level"] != LOG_LEVEL:
        problems.append("AQUA_LOG_LEVEL was not applied")
    expected = records["checksums"].get(workload, {}).get(str(seed))
    if expected is not None and result["checksum"] != expected:
        problems.append(f"checksum {result['checksum']} != recorded {expected}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()

    bench = load_json(ROOT / "BENCHMARK.json")
    records = load_json(RECORDS)

    if opts.self_test:
        binary = build("fleetbench_selftest")
        env = dict(os.environ, AQUA_LOG_LEVEL=LOG_LEVEL)
        sys.exit(subprocess.run([str(binary)], cwd=ROOT, env=env,
                                check=False).returncode)

    names = [w["name"] for w in bench["workloads"]]
    if opts.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    seed = records["default_seed"] if opts.seed is None else opts.seed
    binary = build("fleetbench")

    scratch = BUILD_ROOT / "runs" / f"{opts.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        timed, problems, spans = None, [], None
        if opts.trace == 1:
            # The traced run is compared with a timed run of the same seed and
            # build, made by this invocation.
            code, timed = run_once(binary, opts.workload, seed, 0, scratch)
            problems = ["timed run: " + p for p in
                        check(timed, code, opts.workload, seed, records)]
            spans = BUILD_ROOT / "spans" / f"{opts.workload}-seed{seed}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            spans.unlink(missing_ok=True)
        code, result = run_once(binary, opts.workload, seed, opts.trace, scratch,
                                spans)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems += check(result, code, opts.workload, seed, records)
    metric_specs = bench["per_layer"] if opts.trace == 1 else bench["end_to_end"]
    metrics = {}
    if result is not None:
        values = dict(result["metrics"])
        if opts.trace == 1:
            if timed is not None:
                if timed["checksum"] != result["checksum"]:
                    problems.append(f"traced checksum {result['checksum']} != "
                                    f"timed run's {timed['checksum']}")
                values["bench.trace_overhead_share"] = 1.0 - (
                    result["details"]["traced_sensor_sim_s_per_wall_s"]
                    / timed["metrics"]["sensor_sim_s_per_wall_s"])
            if not spans.is_file():
                problems.append("span file was not written")
        for spec in metric_specs:
            if spec["name"] not in values:
                problems.append(f"metric {spec['name']} missing")
                continue
            metrics[spec["name"]] = {"value": values[spec["name"]],
                                     "unit": spec["unit"]}
        result["problems"] = problems
        print(json.dumps(result))

    attempted = max(1, result["attempted"]) if result is not None else 1
    correct = not problems
    failed = result["failed"] if correct else attempted
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    for p in problems:
        print(f"fleetbench: check failed: {p}", file=sys.stderr)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
