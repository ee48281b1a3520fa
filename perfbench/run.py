#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the multi-session allocator.

    python3 perfbench/run.py --workload pareto-32k --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout. Builds perfbench/ (and the library it
compiles from src/) into $CARGO_TARGET_DIR or .bench_build, then runs the
workload one repeat per process, single-threaded, in whole rounds for
about --seconds (at least two rounds). A round is one repeat of each of the
workload's inputs; the inputs are generated from --seed (see ROUND). Every repeat
checks its own outputs (perfbench_run.cc); this script also checks that
repeats of one input agree exactly on every simulated statistic.

--trace 0 prints the end-to-end metrics; --trace 1 makes one more repeat
with layer timers installed and prints the per-layer metrics instead. The
metric names and units are those of BENCHMARK.json. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

--plant-bit-drop makes the first repeat lose one arriving bit inside the
system; that repeat must fail its conservation check (the negative
control, run by perfbench/test_bench.py).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")

# Inputs per round. A run covers several inputs so that its figures do not
# hang on one draw: churn-audited admits a few hundred of ~6500 offered
# sessions, and one input's statistics move by about 18% (interquartile
# range) from seed to seed, against about 4% for the mean of 24 inputs.
ROUND = {"hotspot-faulted-4k": 4, "pareto-32k": 8, "churn-audited": 24}

# Two rounds always run, so every input is repeated and its statistics are
# compared; no later round starts unless it should end within --seconds
# and within this limit.
MIN_ROUNDS = 2
RUN_LIMIT_S = 150
REPEAT_TIMEOUT_S = 170
Q16 = 65536  # total_allocated_raw is in Q16 fixed point


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_run", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir, os.path.join(build_dir, "perfbench_run")


def run_repeat(exe, workload, seed, tmp, timed=False, plant=False):
    """One repeat in its own process. Returns (record, error)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--tmp", tmp]
    if timed:
        cmd.append("--timed")
    if plant:
        cmd.append("--plant-bit-drop")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=REPEAT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if p.returncode != 0:
        return None, "exit %d: %s" % (p.returncode, p.stderr.strip()[-300:])
    try:
        rec = json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "unreadable output"
    if rec["errors"]:
        return rec, "; ".join(rec["errors"])
    return rec, None


def fingerprint(rec):
    return rec["stats"], rec["result_digest"], rec["audit_digest"]


def load_metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def end_to_end(passed, refs):
    """Medians of the timings over every passing repeat; the simulated
    statistics averaged over the round's inputs (the delay is the worst)."""
    med = statistics.median
    stats = list(refs.values())

    def mean(key):
        return statistics.fmean(s[key] for s in stats)

    return {
        "wall_s": med(r["wall_ns"] / 1e9 for r in passed),
        "setup_s": med(r["setup_ns"] / 1e9 for r in passed),
        "slots_per_s": med(r["stats"]["slots"] / (r["engine_ns"] / 1e9)
                           for r in passed),
        "peak_rss_mb": med(r["peak_rss_kb"] / 1024 for r in passed),
        "local_changes": mean("local_changes"),
        "max_delay_slots": max(s["max_delay_slots"] for s in stats),
        "delivered_bits": mean("delivered_bits"),
        "delivered_util": mean("delivered_bits") * Q16 /
        mean("total_allocated_raw"),
        "sessions_served": mean("sessions_served"),
    }


def per_layer(timed, untimed_walls):
    lay, st = timed["layers"], timed["stats"]
    out = {name[:-3] + "_s": v / 1e9 for name, v in lay.items()
           if name.endswith("_ns") and not name.startswith("core.step_p")}
    out["core.step_p50_us"] = lay["core.step_p50_ns"] / 1e3
    out["core.step_p99_us"] = lay["core.step_p99_ns"] / 1e3
    for name in ("state.checkpoints", "state.checkpoint_bytes",
                 "core.step_calls", "core.lifecycle_calls",
                 "core.admission_decisions", "obs.events"):
        out[name] = lay[name]
    for layer, stat in (("traffic", "dense_session_slots"),
                        ("traffic", "arrival_records"),
                        ("net", "signal_requests"), ("net", "retries"),
                        ("net", "timeouts"),
                        ("sim", "touched_session_slots"),
                        ("sim", "arrival_events"), ("sim", "dense_fallback")):
        out[layer + "." + stat] = st[stat]
    out["timed_wall_s"] = timed["wall_ns"] / 1e9
    out["timing_overhead_s"] = out["timed_wall_s"] - statistics.median(
        untimed_walls)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-bit-drop", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    e2e_units, layer_units = load_metric_units()
    try:
        build_dir, exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("run.py: build failed: %s" % e)
        return 1
    tmp = os.path.join(build_dir, "tmp-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    try:
        result = measure(exe, tmp, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if result is None:
        log("run.py: no repeat passed its checks")
        return 1
    attempted, failed, metrics = result
    units = layer_units if args.trace else e2e_units
    missing = set(units) ^ set(metrics)
    if missing:
        log("run.py: metrics and BENCHMARK.json disagree on %s"
            % sorted(missing))
        return 1
    for name in units:
        log("  %-28s %.9g %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in units}}))
    return 0


def measure(exe, tmp, args):
    n = ROUND[args.workload]
    seeds = [args.seed * n + j for j in range(n)]
    refs = {}  # input seed -> fingerprint of its first passing repeat
    passed, attempted, failed = [], 0, 0
    plant = args.plant_bit_drop

    def attempt(seed, timed=False):
        nonlocal attempted, failed, plant
        attempted += 1
        rec, err = run_repeat(exe, args.workload, seed, tmp, timed, plant)
        plant = False
        if err is None:
            ref = refs.setdefault(seed, fingerprint(rec))
            if fingerprint(rec) != ref:
                err = "statistics differ from an earlier repeat of seed %d" \
                    % seed
        if err is not None:
            failed += 1
            log("repeat of %s seed %d failed: %s" % (args.workload, seed, err))
            return None
        return rec

    start = time.monotonic()
    round_s = 0.0
    rounds = 0
    while True:
        rounds += 1
        t0 = time.monotonic()
        for seed in seeds:
            rec = attempt(seed)
            if rec is not None:
                passed.append(rec)
        round_s = max(round_s, time.monotonic() - t0)
        # Start another round only if it should end within --seconds.
        if rounds >= MIN_ROUNDS and (time.monotonic() - start + round_s >
                                     min(args.seconds, RUN_LIMIT_S)):
            break
    if not passed:
        return None
    # Every input's statistics come from a passing repeat.
    if set(refs) != set(seeds):
        return None
    if not args.trace:
        return attempted, failed, end_to_end(passed, {s: refs[s][0]
                                                      for s in seeds})
    timed = attempt(seeds[0], timed=True)
    if timed is None:
        return None
    walls = [r["wall_ns"] / 1e9 for r in passed if r["seed"] == seeds[0]]
    return attempted, failed, per_layer(timed, walls)


if __name__ == "__main__":
    sys.exit(main())
