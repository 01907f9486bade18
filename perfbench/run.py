#!/usr/bin/env python3
"""End-to-end benchmark of thermoplace: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It works in the repository root, wherever it is started from. It builds
perfbench/bench.exe with dune, then repeats the workload in fresh
processes (so every cache starts empty) until S seconds have passed, at
least MIN_REPS times. With --trace 0 it reports
the end-to-end metrics as medians over the repetitions; with --trace 1 it
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXE = Path("_build/default/perfbench/bench.exe")
DEFAULT_SEED = 42
# The workloads, each with its fewest repetitions per run: untraced
# (trace 0) and untraced + traced (trace 1, which alternates the two).
MIN_REPS = {
    "fig6_sweep": {0: 3, 1: 2},
    "optimize_160": {0: 3, 1: 2},
    "serve_mix": {0: 2, 1: 2},
}
REP_TIMEOUT_S = 120.0
RUN_BUDGET_S = 165.0  # the whole run must end well within 180 s

# Results recorded at the default seed. optimize_160: the committed plan
# and its peaks; serve_mix: the committed-plan hash of every ERI and
# optimize job. Other seeds are checked by invariants and by identity
# between repetitions.
REFS_PATH = Path(__file__).resolve().parent / "refs.json"


# Per guide: (technique, overhead or row budget) for each fingerprint's 12
# jobs. The first entry, a 6-row optimize, leads its fingerprint's batch
# and so pays the flow-cache miss. Warm jobs then sort into three clusters:
# 28 default/eri (~0.1 s), 4 hw, and 12 one-round optimize jobs. The
# median falls inside the first cluster and the 75th percentile inside
# the last, never on a boundary between them, where a small change in the
# mix would make the percentile jump.
SERVE_MIX = {
    "peak": [("optimize", 6), ("optimize", 2), ("optimize", 3),
             ("optimize", 4), ("hw", 0.30), ("default", 0.05),
             ("default", 0.20), ("default", 0.35), ("eri", 0.05),
             ("eri", 0.15), ("eri", 0.25), ("eri", 0.40)],
    "gradient": [("optimize", 6), ("optimize", 2), ("optimize", 3),
                 ("optimize", 4), ("hw", 0.15), ("default", 0.10),
                 ("default", 0.25), ("default", 0.40), ("eri", 0.10),
                 ("eri", 0.20), ("eri", 0.30), ("eri", 0.35)],
}


def serve_requests(seed):
    """The serve_mix traffic: 48 jobs over 4 fingerprints (test set x guide),
    12 per fingerprint as in SERVE_MIX. Every job prepares with the seed.
    The seed orders the four batch leaders and interleaves the other jobs
    behind them. The job mix itself is fixed, so the work, and the mean
    reduction, barely move from seed to seed."""
    rng = random.Random(seed)
    leaders, jobs = [], []
    for test_set in ("scattered", "concentrated"):
        for guide, mix in SERVE_MIX.items():
            for i, (technique, amount) in enumerate(mix):
                req = {"test_set": test_set, "technique": technique,
                       "seed": seed, "cycles": 1000, "precond": "mg",
                       "guide": guide}
                req["rows" if technique == "optimize" else "overhead"] = amount
                (jobs if i else leaders).append(req)
    rng.shuffle(leaders)
    rng.shuffle(jobs)
    jobs = leaders + jobs
    lines = []
    for i, req in enumerate(jobs):
        lines.append(json.dumps({"id": "job-%02d" % i, **req},
                                 separators=(",", ":")))
    return "\n".join(lines) + "\n"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "perfbench/bench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0 or not EXE.is_file():
        fail("build failed (exit %d)" % proc.returncode)


def run_rep(workload, seed, traced, stdin_text):
    try:
        proc = subprocess.run(
            [str(EXE), workload, str(seed), "1" if traced else "0"],
            input=stdin_text, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s repetition timed out after %.0f s" % (workload, REP_TIMEOUT_S))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("%s repetition exited with %d" % (workload, proc.returncode))
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("%s repetition printed no report" % workload)


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def check_refs(workload, rep):
    """Failures against the default-seed references, as messages."""
    refs = json.loads(REFS_PATH.read_text()).get(workload)
    if refs is None:
        return []
    got = rep["results"]
    problems = []
    if workload == "optimize_160":
        if got["inserted_after"] != refs["inserted_after"]:
            problems.append("plan %s differs from reference %s"
                            % (got["inserted_after"], refs["inserted_after"]))
        for key in ("predicted_peak_k", "peak_rise_k"):
            if abs(got[key] - refs[key]) > 1e-6 * abs(refs[key]):
                problems.append("%s %.9f differs from reference %.9f"
                                % (key, got[key], refs[key]))
    elif workload == "serve_mix":
        hashes = {row[0]: row[2] for row in got if row[2] is not None}
        for job in sorted(set(hashes) | set(refs["plan_hashes"])):
            if hashes.get(job) != refs["plan_hashes"].get(job):
                problems.append("%s plan hash %s differs from reference %s"
                                % (job, hashes.get(job),
                                   refs["plan_hashes"].get(job)))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(MIN_REPS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be >= 1")
    os.chdir(ROOT)
    # BENCHMARK.json names the metrics to report, with their units
    try:
        spec = json.loads(Path("BENCHMARK.json").read_text())
        end_to_end_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read the metric list from BENCHMARK.json: %s" % e)
    build()

    stdin_text = serve_requests(args.seed) if args.workload == "serve_mix" else ""
    # Repeat until --seconds have passed; past MIN_REPS, skip a repetition
    # that would end more than a quarter beyond them.
    reps = []
    start = time.monotonic()
    longest = 0.0
    min_reps = MIN_REPS[args.workload][args.trace]
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        t = time.monotonic()
        reps.append(run_rep(args.workload, args.seed, traced, stdin_text))
        longest = max(longest, time.monotonic() - t)
        elapsed = time.monotonic() - start
        if len(reps) >= min_reps and (
                elapsed >= args.seconds
                or elapsed + longest > 1.25 * args.seconds):
            break
        if elapsed + 1.5 * longest > RUN_BUDGET_S:
            break

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    # checks across repetitions and against the references are output
    # checks too: each mismatch counts as one failed operation
    cross = []
    if len({r["digest"] for r in reps}) != 1:
        cross.append("results differ between repetitions of one seed")
    if args.seed == DEFAULT_SEED:
        cross += check_refs(args.workload, reps[0])
    attempted = sum(r["attempted"] for r in reps)
    failed = min(attempted, sum(len(r["failures"]) for r in reps) + len(cross))
    problems = [m for r in reps for m in r["failures"]] + cross

    if args.trace == 0:
        if args.workload == "serve_mix":
            jobs = [ms for r in plain for ms in r["jobs_ms"]]
        else:
            jobs = [r["wall_s"] * 1e3 for r in plain]
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "job_p50_ms": quantile(jobs, 0.50),
            "job_p75_ms": quantile(jobs, 0.75),
            "peak_heap_mb": statistics.median(r["peak_heap_mb"] for r in plain),
            "ok_frac": 1.0 - failed / attempted,
            "reduction_pct": statistics.median(r["reduction_pct"] for r in plain),
        }
        units = end_to_end_units
        print("%s seed %d: %d repetitions, %d job latency samples"
              % (args.workload, args.seed, len(plain), len(jobs)))
        for key in ("setup_s", "wall_s"):
            print("  %s samples: %s"
                  % (key, " ".join("%.3f" % r[key] for r in plain)))
    else:
        values = {}
        for name in layer_units:
            if name == "trace.overhead_pct":
                untraced_s = statistics.median(r["total_s"] for r in plain)
                traced_s = statistics.median(r["total_s"] for r in traced)
                values[name] = (traced_s - untraced_s) / untraced_s * 100.0
            elif all(name in r["layers"] for r in traced):
                values[name] = statistics.median(r["layers"][name] for r in traced)
        for r in traced:
            if r["attribution_gap"] > 0.05:
                problems.append("span self times explain the traced wall-clock "
                                "only within %.1f%%" % (100 * r["attribution_gap"]))
        units = layer_units
        print("%s seed %d: %d untraced + %d traced repetitions"
              % (args.workload, args.seed, len(plain), len(traced)))
        varying = [n for n, u in units.items() if u == "count"
                   and len({r["layers"].get(n) for r in traced}) > 1]
        if varying:
            print("  counts that differ between traced repetitions: "
                  + ", ".join(varying))

    missing = [n for n in units
               if not isinstance(values.get(n), (int, float))
               or not math.isfinite(values[n])]
    if missing:
        fail("no finite value for " + ", ".join(missing))
    for msg in problems:
        print("check failed: " + msg)
    for name, unit in units.items():
        print("  %-36s %14.4f %s" % (name, values[name], unit))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))


if __name__ == "__main__":
    main()
