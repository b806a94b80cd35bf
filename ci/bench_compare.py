#!/usr/bin/env python3
"""Gate the channel hot-path throughput against the committed baseline.

Reads the per-stage section bench_fleet writes into BENCH_fleet.json and
compares it with ci/bench_baseline.json (committed alongside the code, the
same machinery as ci/tier1_baseline_seconds.txt). The job fails when the
block-path channel throughput regresses more than the allowed fraction, or
when the block path loses its edge over the scalar reference path entirely.

Every gate is a ratio of two rates measured in the same binary seconds apart,
so the runner's speed cancels:

* channel_block_over_scalar ratio >= 1.0      — structural. The fused frame
  loop (InputChannel::process_frame) running SLOWER than per-tick tick() calls
  in the same binary is a regression no amount of runner variance explains.
* channel_block_over_scalar >= 80 % of the baseline ratio — catches "someone
  deoptimised the fused frame loop": tick() does not run that loop, so a
  slower loop moves the ratio.
* channel_tracing_off_over_block ratio >= 0.8 — the two frame-path
  measurements of one binary must agree; a >20 % gap means the measurement,
  not the code, is broken.
* channel_batch_over_block ratio >= 2.0       — machine-independent. The
  cross-sensor SIMD lanes aggregate channel-samples/s against the per-channel
  frame path in the same binary; on any vector host (lane width >= 2) losing
  the 2x edge means the lanes stopped paying for themselves. Skipped with a
  notice when the binary compiled to lane width 1 (AQUA_SIMD=OFF or a
  no-vector host) — there the batch path IS the scalar arithmetic.
* channel_batch_over_scalar >= 80 % of the baseline ratio — compared only
  when the measured lane width equals the baseline's recorded lane width.
  The lanes and process_frame share one loop, so a slower shared loop leaves
  channel_batch_over_block flat; against tick() it shows.
* serial trace checksum == 63ffe924fe51d05e   — the scalar path is the
  bit-identity reference: bench_fleet's serial 32-sensor run must reproduce
  it, not just agree with its own pool runs.
* fleet_ckpt_over_nockpt ratio >= 0.9         — machine-independent. The same
  32-sensor epoch loop with a durable checkpoint (serialize + atomic
  temp/fsync/rename) every 100 epochs, against the plain loop in the same
  binary; losing more than 10 % of throughput means checkpointing got too
  expensive for its production cadence. Each side is the best of three
  runs taken in turn, so one run slowed by a neighbour on a shared box
  does not fail the gate.
* hydro.hydro_solve_10k_over_1k <= 20        — machine-independent. Warm
  hydraulic solves of the replicated district at 10,016 and 1,024 pipes in
  the same binary; identical districts converge in identical sweep counts,
  so the ratio is the per-sweep cost ratio: ~10 for a solve linear in the
  network, >= 100 for a dense elimination.
* scaling.fleet_scaling_efficiency >= 0.8     — machine-independent. The fleet
  sweep normalises each pool mode's speedup by min(threads, hardware threads),
  so ideal is 1.0 whether the runner has 1 core or 64; dropping below 0.8
  means the sharded epoch loop stopped scaling (serialisation, queue overhead,
  imbalance), not that the runner is slow. Each mode is the best of three
  runs taken in turn (serial, pool(2), pool(4), pool(8), repeated), as for
  the checkpoint pair. scaling.deterministic must also be
  true — a checksum mismatch at 1k sensors is a broken determinism contract.
  With fewer than 2 hardware threads the normalisation divides by 1, so a
  fully serialised loop still scores ~1.0: the script then prints a
  ::warning:: that the gate was not exercised.
* scaling.bytes_per_sensor <= 48 KiB         — independent of runner speed. The
  resident-set growth across building and stepping the serial 1k-sensor sweep
  fleet, over its sensor count: what one more sensor costs in memory. A lean
  sensor reads 45 KiB, 32 KiB of it the one driven DAC's mismatch table; the
  platform's six DACs drawing their tables eagerly read ~293 KiB, so a change
  that makes every part allocate what it never reads fails here. A reading of
  0 means the resident set could not be read and fails too. A 100k-sensor
  fleet at 48 KiB a sensor needs ~5 GB.

A slowdown common to both sides of a ratio (say, in util::Rng::gaussian,
which both the frame loop and tick() call) cancels out of these gates; the
fleetbench end-to-end throughput is where that shows. The absolute stage
rates are reported and some warn below the baseline: they feed the artifact
for trend-watching, not the gate.

The trajectory across changes lives in ci/bench_history.jsonl, since the
BENCH_*.json files are not committed. It holds one JSON object per line,
appended by hand with each change that moves these numbers:
  change, commit, date  what was measured; "commit" is the commit, or
                        "<hash>+" for a change not yet committed on top of it
  box, nproc, lane_width  the machine and the compiled SIMD lane width
  fleet_scaling_efficiency  from this report's "scaling" block
  completion_sensors, completion_wall_s, completion_checksum
                        bench_fleet's 10k-sensor completion run on pool(nproc)
  district_1k_sensor_sim_s_per_wall_s, city_1_5k_sensor_sim_s_per_wall_s
                        fleetbench throughput (median over runs)
  bytes_per_sensor, district_1k_peak_rss_mb  memory, where recorded
  note                  how many runs, which seed, anything unusual
This script does not read it.

Usage: ci/bench_compare.py BENCH_fleet.json ci/bench_baseline.json
"""

import json
import sys

REGRESSION_SLACK = 0.20  # ratio gates fail below 80 % of the baseline ratio
SCALING_EFFICIENCY_FLOOR = 0.80  # hardware-normalised, so machine-independent
BYTES_PER_SENSOR_CEILING = 48 * 1024
RATIO_KEY = "channel_block_over_scalar"
TRACING_RATIO_KEY = "channel_tracing_off_over_block"
TRACING_RATIO_FLOOR = 0.80
BATCH_RATIO_KEY = "channel_batch_over_block"
BATCH_RATIO_FLOOR = 2.0
BATCH_SCALAR_RATIO_KEY = "channel_batch_over_scalar"
LANE_WIDTH_KEY = "lane_width"
CKPT_RATIO_KEY = "fleet_ckpt_over_nockpt"
CKPT_RATIO_FLOOR = 0.90
HYDRO_RATIO_KEY = "hydro_solve_10k_over_1k"
HYDRO_RATIO_CEILING = 20.0
SERIAL_CHECKSUM = "63ffe924fe51d05e"
WARN_KEYS = [
    "amp_scalar_sps",
    "channel_scalar_sps",
    "thermal_step_sps",
]


def load_report(path, role):
    """Loads a report JSON; emits ::error and returns None on a missing,
    unreadable, or unparsable file (instead of a traceback)."""
    try:
        with open(path) as f:
            report = json.load(f)
    except OSError as exc:
        print(f"::error::cannot read {role} file {path}: {exc} — "
              "did bench_fleet run and write its JSON report?")
        return None
    except json.JSONDecodeError as exc:
        print(f"::error::{role} file {path} is not valid JSON ({exc}) — "
              "truncated bench run or corrupted artifact")
        return None
    return report


def load_stages(path, role):
    """The "stages" object of a report, or None (with ::error) if absent."""
    report = load_report(path, role)
    if report is None:
        return None
    stages = report.get("stages")
    if not isinstance(stages, dict):
        print(f"::error::{role} file {path} has no \"stages\" object — "
              "bench_fleet did not write its per-stage section")
        return None
    return stages


def gated_ratio(measured, path, key, section="stages"):
    """A gated ratio metric, or None with a ::error that NAMES the missing
    key. Folding "missing" into 0.0 would fail the gate with a message
    blaming a perf regression that never happened — a missing key means the
    bench didn't write it (stale binary, renamed metric), which is its own
    failure and needs its own message."""
    value = measured.get(key)
    if value is None:
        print(f"::error::{path} has no {section}.{key} — bench_fleet did not "
              "write this gated metric (stale bench binary or renamed key?)")
        return None
    return value


def check_serial_checksum(path):
    """The serial 32-sensor run's trace checksum must be the committed scalar
    reference: the pool runs only prove agreement with the serial run."""
    report = load_report(path, "measured")
    if report is None:
        return True
    serial = [m for m in report.get("modes", []) if m.get("mode") == "serial"]
    if not serial:
        print(f"::error::{path} has no serial mode — bench_fleet did not run "
              "its determinism proof")
        return True
    got = serial[0].get("checksum")
    print(f"serial trace checksum: {got} (must be {SERIAL_CHECKSUM})")
    if got != SERIAL_CHECKSUM:
        print("::error::the scalar path no longer reproduces the committed "
              f"checksum {SERIAL_CHECKSUM} — a bit-identity regression in "
              "the scalar reference chain")
        return True
    return False


def check_baseline_ratio(measured, baseline, path, key):
    """A same-binary ratio against 80 % of its committed baseline value."""
    got = gated_ratio(measured, path, key)
    if got is None:
        return True
    want = baseline.get(key, 0.0)
    floor = want * (1.0 - REGRESSION_SLACK)
    print(f"{key}: {got:.2f}, baseline {want:.2f}, floor {floor:.2f} "
          f"({100 * (1 - REGRESSION_SLACK):.0f} %)")
    if got < floor:
        print(f"::error::{key} fell >{100 * REGRESSION_SLACK:.0f} % below "
              "the committed baseline ratio — both rates come from the same "
              "binary, so the numerator's code path got slower, not the "
              "runner")
        return True
    return False


def check_hydro(path):
    """Gates the warm-solve ratio between the 10k- and 1k-pipe networks: a
    property of the measured run alone, so runner speed never enters it."""
    report = load_report(path, "measured")
    if report is None:
        return True
    hydro = report.get("hydro")
    if not isinstance(hydro, dict):
        hydro = {}
    ratio = gated_ratio(hydro, path, HYDRO_RATIO_KEY, section="hydro")
    if ratio is None:
        return True
    print(f"{HYDRO_RATIO_KEY}: {ratio:.2f} "
          f"(must stay <= {HYDRO_RATIO_CEILING:.0f}; ~10 when linear)")
    if ratio > HYDRO_RATIO_CEILING:
        print("::error::a warm hydraulic solve on 10x the pipes costs "
              f"more than {HYDRO_RATIO_CEILING:.0f}x as much — the solve "
              "stopped scaling with the network (a dense or quadratic path), "
              "not a slow runner")
        return True
    return False


def check_scaling(path):
    """Gates the fleet scaling sweep: determinism plus the hardware-normalised
    efficiency floor. Both are properties of the measured run alone — no
    baseline needed, so runner hardware never enters the comparison."""
    report = load_report(path, "measured")
    if report is None:
        return True
    scaling = report.get("scaling")
    if not isinstance(scaling, dict):
        print(f"::error::{path} has no \"scaling\" object — bench_fleet did "
              "not run its fleet scaling sweep")
        return True

    failed = False
    sensors = scaling.get("sensors", 0)
    hw = scaling.get("hardware_threads", 0)
    if not scaling.get("deterministic", False):
        print(f"::error::fleet scaling sweep at {sensors} sensors produced "
              "divergent trace checksums across thread counts — the "
              "determinism contract is broken")
        failed = True
    efficiency = scaling.get("fleet_scaling_efficiency", 0.0)
    print(f"fleet_scaling_efficiency: {efficiency:.2f} at {sensors} sensors, "
          f"{hw} hardware threads "
          f"(must stay >= {SCALING_EFFICIENCY_FLOOR:.1f}; ideal 1.0)")
    if hw < 2:
        print(f"::warning::fleet_scaling_efficiency was measured on {hw} "
              "hardware thread(s): every pool mode is normalised by 1, so "
              "even a fully serialised epoch loop passes — the scaling gate "
              "was not exercised on this runner")
    if efficiency < SCALING_EFFICIENCY_FLOOR:
        print("::error::the sharded fleet epoch loop fell below "
              f"{SCALING_EFFICIENCY_FLOOR:.0%} of ideal thread scaling — "
              "the ratio is normalised by available hardware threads, so "
              "this is a scheduling/serialisation regression, not a slow "
              "runner")
        failed = True

    per_sensor = gated_ratio(scaling, path, "bytes_per_sensor",
                             section="scaling")
    if per_sensor is None:
        return True
    if per_sensor <= 0:
        print("::error::scaling.bytes_per_sensor is not positive — bench_fleet "
              "could not read its resident set (/proc/self/statm), so the "
              "memory ceiling measured nothing")
        return True
    print(f"bytes_per_sensor: {per_sensor / 1024:.1f} KiB "
          f"(must stay <= {BYTES_PER_SENSOR_CEILING / 1024:.0f} KiB)")
    if per_sensor > BYTES_PER_SENSOR_CEILING:
        print("::error::one sensor's resident footprint grew past "
              f"{BYTES_PER_SENSOR_CEILING / 1024:.0f} KiB — a byte count is "
              "the same on any runner, so something now allocates per sensor "
              "what it did not before (a table drawn eagerly, a buffer sized "
              "to the fleet)")
        failed = True
    return failed


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    measured = load_stages(argv[1], "measured")
    baseline = load_stages(argv[2], "baseline")
    if measured is None or baseline is None:
        return 1

    failed = check_scaling(argv[1])
    failed = check_hydro(argv[1]) or failed
    failed = check_serial_checksum(argv[1]) or failed

    ratio = gated_ratio(measured, argv[1], RATIO_KEY)
    if ratio is None:
        failed = True
    else:
        print(f"{RATIO_KEY}: {ratio:.2f} (must stay >= 1.0)")
        if ratio < 1.0:
            print("::error::the fused block path is slower than the scalar "
                  "reference path in the same binary — structural regression")
            failed = True

    tracing_ratio = gated_ratio(measured, argv[1], TRACING_RATIO_KEY)
    if tracing_ratio is None:
        failed = True
    else:
        print(f"{TRACING_RATIO_KEY}: {tracing_ratio:.2f} "
              f"(must stay >= {TRACING_RATIO_FLOOR:.1f})")
        if tracing_ratio < TRACING_RATIO_FLOOR:
            print("::error::the two measurements of the same frame path "
                  f"differ by more than {100 * (1 - TRACING_RATIO_FLOOR):.0f} "
                  "% — the tracing kill-switch changed the hot path, or the "
                  "stage timing is broken")
            failed = True

    ckpt_ratio = gated_ratio(measured, argv[1], CKPT_RATIO_KEY)
    if ckpt_ratio is None:
        failed = True
    else:
        interval = measured.get("checkpoint_interval_epochs", 0)
        print(f"{CKPT_RATIO_KEY}: {ckpt_ratio:.2f} at a {interval}-epoch "
              f"cadence (must stay >= {CKPT_RATIO_FLOOR:.1f})")
        if ckpt_ratio < CKPT_RATIO_FLOOR:
            print("::error::durable checkpointing every "
                  f"{interval} epochs costs more than "
                  f"{100 * (1 - CKPT_RATIO_FLOOR):.0f} % of fleet throughput "
                  "— both sides run in the same binary, so this is the "
                  "serialize/fsync path getting expensive, not runner "
                  "variance")
            failed = True

    failed = check_baseline_ratio(measured, baseline, argv[1], RATIO_KEY) \
        or failed

    # The cross-sensor SIMD lane gates, only meaningful when the binary
    # actually compiled vector lanes.
    lane_width = measured.get(LANE_WIDTH_KEY, 0)
    batch_ratio = measured.get(BATCH_RATIO_KEY, 0.0)
    if lane_width >= 2:
        print(f"{BATCH_RATIO_KEY}: {batch_ratio:.2f} at lane width "
              f"{lane_width} (must stay >= {BATCH_RATIO_FLOOR:.1f})")
        if batch_ratio < BATCH_RATIO_FLOOR:
            print("::error::the cross-sensor SIMD lanes deliver less than "
                  f"{BATCH_RATIO_FLOOR:.0f}x the per-channel frame path in "
                  "the same binary — the lanes stopped paying for the "
                  "gather/scatter overhead (structural regression, not "
                  "runner variance)")
            failed = True
    else:
        print(f"{BATCH_RATIO_KEY}: skipped — binary compiled to lane width "
              f"{lane_width} (AQUA_SIMD=OFF or no vector ISA), the batch "
              "path is the scalar arithmetic there")

    # Lanes against tick(): the ratio scales with the lane width, so it is
    # only comparable at the baseline's width.
    base_width = baseline.get(LANE_WIDTH_KEY, 0)
    if lane_width == base_width:
        failed = check_baseline_ratio(measured, baseline, argv[1],
                                      BATCH_SCALAR_RATIO_KEY) or failed
    else:
        print(f"{BATCH_SCALAR_RATIO_KEY}: skipped — measured lane width "
              f"{lane_width} vs baseline {base_width}, not comparable")

    for key in WARN_KEYS:
        got = measured.get(key)
        want = baseline.get(key)
        if got is None or want is None or want <= 0.0:
            continue
        if got < want * (1.0 - REGRESSION_SLACK):
            print(f"::warning::{key} below baseline: "
                  f"{got:.3e} vs {want:.3e} (informational)")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
