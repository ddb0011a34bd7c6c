#!/usr/bin/env python3
"""medsim benchmark: build the harness, run one workload, print one JSON line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --fast [--workload W] [--seed N]

Run from the root of a checkout. The harness (a Cargo package in this
directory) is built from the checkout's sources into $CARGO_TARGET_DIR,
or `.bench_build` when that is unset. Every child runs with all
`MEDSIM_*` variables removed and `MEDSIM_JOBS=1`.

--trace 0 reports the end-to-end metrics of a timed run that measures
for --seconds. --trace 1 splits --seconds between a timed run, for the
host diagnostics, and a separate traced run, for the per-layer metrics.
--fast runs one repetition per workload at a tiny scale, with every
check and the traced run, as a smoke test.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("smt8_mmx_ideal", "smt8_mom_conv", "cmp4x2_mom_dec")
END_TO_END = ("sim_minsts_per_s", "setup_s", "peak_rss_mb")
# Per-layer metrics the timed run contributes to a traced result.
FROM_TIMED = ("trace.setup_peak_rss_mb", "host.rep_s_p50", "host.rep_s_p90",
              "host.interference", "host.reps")
# Share of --seconds the timed run gets when --trace 1.
TIMED_SHARE_WHEN_TRACED = 0.5
# The children of one run, build excluded, must end inside 180 s.
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Build the harness from the checkout's sources; return its path."""
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        die(f"simulator sources not found under {ROOT}; run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    # Cargo's output goes to stderr: stdout carries only results.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        die("harness build failed")
    return target / "release" / "medsim-perfbench"


def scrubbed_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("MEDSIM_")}
    env["MEDSIM_JOBS"] = "1"
    return env


def harness(binary, mode, workload, seed, seconds, fast, deadline):
    """Run one harness invocation and return its JSON record."""
    cmd = [str(binary), mode, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if fast:
        cmd.append("--fast")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=scrubbed_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die(f"{mode} run of {workload} timed out")
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(f"{mode} run of {workload} printed no record (exit {done.returncode})")
    if record.get("correct") and done.returncode != 0:
        die(f"{mode} run of {workload} exited {done.returncode}")
    return record


def cross_check(timed, traced):
    """The traced run must reproduce the timed run's simulated outcome."""
    a, b = timed.get("fingerprint"), traced.get("fingerprint")
    if a is None or b is None:
        return ["no simulated outcome to compare"]
    return [f"traced {k} {b[k]} != untraced {a[k]}" for k in sorted(a) if a[k] != b.get(k)]


def assemble(timed, traced):
    """The benchmark result from a timed record and an optional traced one."""
    records = [timed] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    breaches = [b for r in records for b in r["breaches"]]
    tm = timed["metrics"]
    if traced is None:
        wanted = {k: tm.get(k) for k in END_TO_END}
    else:
        mismatch = cross_check(timed, traced)
        if mismatch:
            breaches += mismatch
            # Every traced repetition then reproduced a different run.
            failed += traced["attempted"]
        wanted = {k: v for k, v in traced["metrics"].items() if k != "host.traced_s"}
        wanted.update({k: tm.get(k) for k in FROM_TIMED})
        traced_s = traced["metrics"].get("host.traced_s")
        fastest = tm.get("host.rep_s_min")
        if traced_s and fastest:
            wanted["host.trace_overhead"] = {
                "value": traced_s["value"] / fastest["value"], "unit": "ratio"}
        else:
            wanted["host.trace_overhead"] = None
    missing = sorted(k for k, v in wanted.items() if v is None or v["value"] is None)
    if missing:
        breaches.append("no value for " + ", ".join(missing))
    metrics = {k: v for k, v in wanted.items() if k not in missing}
    correct = failed == 0 and not breaches
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, breaches


def run_one(binary, workload, seed, seconds, trace, fast):
    """Run one workload, print its diagnostics and result; return correctness."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        timed = harness(binary, "timed", workload, seed,
                        seconds * TIMED_SHARE_WHEN_TRACED, fast, deadline)
        traced = harness(binary, "traced", workload, seed,
                         seconds * (1 - TIMED_SHARE_WHEN_TRACED), fast, deadline)
    else:
        timed = harness(binary, "timed", workload, seed, seconds, fast, deadline)
        traced = None
    result, breaches = assemble(timed, traced)
    print("settings: " + json.dumps(timed["settings"], sort_keys=True))
    print("timed: " + json.dumps(timed["metrics"], sort_keys=True))
    print(f"fail_ratio: {result['failed'] / result['attempted']}")
    for b in breaches:
        print(f"breach: {b}")
    print(json.dumps(result, sort_keys=True))
    return result["correct"]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fast", action="store_true",
                   help="one repetition per workload at a tiny scale, traced and untraced")
    a = p.parse_args()
    if a.seed is not None and a.seed < 0:
        p.error("--seed must be non-negative")
    if a.seconds is not None and not a.seconds > 0:
        p.error("--seconds must be positive")
    if not a.fast and (a.workload is None or a.seed is None or a.seconds is None):
        p.error("--workload, --seed and --seconds are required without --fast")
    binary = build()
    if a.fast:
        ok = True
        for w in [a.workload] if a.workload else WORKLOADS:
            for trace in (0, 1):
                ok &= run_one(binary, w, 1 if a.seed is None else a.seed, 1.0, trace, True)
    else:
        ok = run_one(binary, a.workload, a.seed, a.seconds, a.trace, False)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
