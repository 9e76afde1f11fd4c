#!/usr/bin/env python3
"""Controller-day benchmark for eprons-rs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `eprons-perfbench` binary (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs every measurement in
a fresh process of it, so that no process-wide state of the program carries
from one measurement into the next:

* `--trace 0`: context builds (`setup_s`), then a panel of untraced days
  with seeds drawn from `--seed`, then repeats of panel days while
  `--seconds` lasts; prints the end-to-end metrics. Each repeat must be
  bit-identical to the first run of its day.
* `--trace 1`: an untraced and a traced day of each panel seed in turn
  while `--seconds` lasts; prints the per-layer metrics. Fails unless each
  traced day is bit-identical to its untraced twin, its journal audits
  clean, nothing was dropped from the journal and leaf spans cover at
  least 95% of the day.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
provenance (host cores, thread budget, seeds). README.md describes the
workloads and metrics.
"""

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("replay_k8", "diurnal_k8", "flashcrowd_k4")
# Days per run, each with its own seed drawn from --seed. One seed's day
# is a single draw of demand and failures; the panel averages the
# day-to-day spread of those draws out of the run's figures.
PANEL_DAYS = {"replay_k8": 8, "diurnal_k8": 12, "flashcrowd_k4": 8}
# Context builds timed per run, one fresh process each.
SETUP_SAMPLES = 21
# Wall-clock limit for one run, after the build.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """A failed build, crashed process or failed correctness check."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seed >= 2**63:
        p.error("--seed must be in [0, 2^63)")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def thread_budget():
    """The EPRONS_THREADS budget (default: every core), at most nproc."""
    cores = len(os.sched_getaffinity(0))
    raw = os.environ.get("EPRONS_THREADS", str(cores))
    try:
        threads = int(raw)
    except ValueError:
        raise BenchError(f"EPRONS_THREADS={raw!r} is not an integer")
    if not 1 <= threads <= cores:
        raise BenchError(f"EPRONS_THREADS={threads} must be between 1 and nproc={cores}")
    return cores, threads


def build():
    """Builds the measured binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"build failed with exit code {done.returncode}")
    return os.path.abspath(os.path.join(target, "release", "eprons-perfbench"))


class Runner:
    """Starts one fresh process of the binary per measurement."""

    def __init__(self, binary, workload, threads, deadline):
        self.binary = binary
        self.workload = workload
        self.env = dict(os.environ, EPRONS_THREADS=str(threads))
        self.deadline = deadline

    def __call__(self, mode, seed):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its wall-clock limit")
        try:
            done = subprocess.run(
                [self.binary, mode, self.workload, str(seed)],
                env=self.env, capture_output=True, text=True, timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} process exceeded the run's wall-clock limit")
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise BenchError(f"{mode} process exited with code {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


# Fields of a day's output that must repeat exactly for a given seed.
DETERMINISTIC = (
    "epochs", "sla_miss_epochs", "energy_j", "churn", "deferred_mbps_min",
    "drained_mbps_min", "dropped_mbps_min", "admitted_mbps_min", "fingerprint",
)


def day_seeds(seed, workload):
    """The panel's day seeds: `seed * 1000 + i` for day i."""
    return [(seed * 1000 + i) % 2**63 for i in range(PANEL_DAYS[workload])]


def check_day(day, twin):
    """Sanity checks on one day, and bit-identity with `twin`, an earlier
    run of the same seed (or None)."""
    problems = []
    epochs = day["epochs"]
    if epochs < 1 or len(day["fingerprint"]) != epochs:
        problems.append(f"{epochs} epochs but {len(day['fingerprint'])} fingerprints")
    if not 0 <= day["sla_miss_epochs"] <= epochs:
        problems.append(f"{day['sla_miss_epochs']} SLA misses in {epochs} epochs")
    if not (math.isfinite(day["energy_j"]) and day["energy_j"] > 0):
        problems.append(f"day energy {day['energy_j']} J")
    if day["admitted_mbps_min"] <= 0 or day["dropped_mbps_min"] < 0:
        problems.append("background books do not balance")
    if twin is not None:
        for key in DETERMINISTIC:
            if day[key] != twin[key]:
                problems.append(f"{key} differs between two runs of the same day")
                break
    return problems


def metric(value, unit):
    return {"value": value, "unit": unit}


class Tally:
    """Days run so far, and the checks they failed."""

    def __init__(self):
        self.days, self.problems, self.failed_epochs = [], [], 0

    def add(self, day, problems):
        self.days.append(day)
        if problems:
            self.problems += problems
            self.failed_epochs += day["epochs"]


def end_to_end(run, workload, seed, seconds, start, tally):
    """Untraced run: setup samples, the panel's days, then repeats of
    panel days (each checked bit-identical to its first run) while
    `seconds` lasts."""
    seeds = day_seeds(seed, workload)
    setups = [run("setup", seeds[0])["setup_s"] for _ in range(SETUP_SAMPLES)]
    panel = []
    for s in seeds:
        day = run("day", s)
        tally.add(day, check_day(day, None))
        panel.append(day)
    for i in itertools.count():
        spent = time.monotonic() - start
        if spent + statistics.median(d["day_s"] for d in tally.days) > seconds:
            break
        day = run("day", seeds[i % len(seeds)])
        tally.add(day, check_day(day, panel[i % len(seeds)]))

    def total(key):
        return sum(d[key] for d in panel)

    admitted, dropped = total("admitted_mbps_min"), total("dropped_mbps_min")
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "day_s": metric(statistics.median(d["day_s"] for d in tally.days), "s"),
        "peak_rss_mb": metric(statistics.median(d["peak_rss_mb"] for d in tally.days), "MB"),
        "energy_mj": metric(total("energy_j") / len(panel) / 1e6, "MJ"),
        "churn": metric(total("churn") / len(panel), "count"),
        "sla_met_frac": metric(1 - total("sla_miss_epochs") / total("epochs"), "ratio"),
        "bg_served_frac": metric(admitted / (admitted + dropped), "ratio"),
    }


def per_layer(run, workload, seed, seconds, start, tally):
    """Traced run: an untraced and a traced day of each panel seed in
    turn, while `seconds` lasts (one pair at the least)."""
    samples, ratios = [], []
    for s in day_seeds(seed, workload):
        plain = run("day", s)
        tally.add(plain, check_day(plain, None))
        traced = run("traced", s)
        tally.add(traced, check_day(traced, plain) + traced["problems"])
        samples.append(traced["layers"])
        ratios.append(traced["day_s"] / plain["day_s"])
        spent = time.monotonic() - start
        if spent * (len(samples) + 1) / len(samples) > seconds:
            break
    metrics = {
        name: metric(statistics.median(s[name]["value"] for s in samples), m["unit"])
        for name, m in samples[0].items()
    }
    metrics["obs.overhead_ratio"] = metric(statistics.median(ratios), "ratio")
    return metrics


def main(argv):
    args = parse_args(argv)
    tally = Tally()
    try:
        cores, threads = thread_budget()
        binary = build()
        start = time.monotonic()
        run = Runner(binary, args.workload, threads, start + RUN_LIMIT_S)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(run, args.workload, args.seed, args.seconds, start, tally)
    except (BenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for p in tally.problems:
        print(f"check failed: {p}", file=sys.stderr)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "day_seeds": day_seeds(args.seed, args.workload),
        "host.cores": cores,
        "threads": threads,
        "days_run": len(tally.days),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": sum(d["epochs"] for d in tally.days),
        "failed": tally.failed_epochs,
        "metrics": metrics,
    }))
    return 0 if not tally.problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
