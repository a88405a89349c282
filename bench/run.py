"""Benchmark of quivdef: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of the repository:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh child process (bench/child.py), one at a
time.  With --trace 0 the children run the program as users do and the
run reports the end-to-end metrics of BENCHMARK.json: the medians of
wall and CPU time of the timed region, of set-up time (also sampled by
set-up-only children) and of peak RSS.  Times are corrected for
contention on a shared host (contention.py): they are reference seconds,
measured against a kernel timed while the workload runs.  With --trace 1
the run adds traced children, whose spans give the per-layer metrics;
counts must repeat exactly across traced children started under
different PYTHONHASHSEED values, and `tracing_overhead_s` is the
difference of the traced and untraced median wall times.

Repetitions continue while the next one is expected to end within
--seconds, and at least two run.  The second-to-last line of stdout is the full record
(provenance, every sample, failures, failed_ratio); the last line is the
result object with `correct`, `attempted`, `failed` and `metrics`.  The
exit code is 0 exactly when every output checked out.

DESIGN.md describes the workloads, metrics and what each should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import contention

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKDIR = ROOT / ".bench_work"
WORKLOADS = ("verify_all", "psi_tower", "lattice", "cohomology")
SETUP_PROBES_PER_REP = 3  # set-up-only children before each untraced repetition
HARD_LIMIT_S = 170.0  # a run must end well within the 180 s allowed
UNTRACED_HASH_SEED = 0
TRACED_HASH_SEEDS = (0, 1)


class ChildFailed(Exception):
    pass


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload, seed, timeout, trace=False, setup_only=False, hash_seed=UNTRACED_HASH_SEED):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONHASHSEED"] = str(hash_seed)
    cmd = [
        sys.executable,
        str(BENCH / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--workdir", str(WORKDIR),
    ]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    # the host's speed just before the spawn, to correct the child's set-up
    reference = contention.reference_time()
    start = clock()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(start)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise ChildFailed("child exceeded %.0f s" % timeout) from None
    if proc.returncode != 0:
        raise ChildFailed("child exited %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed("child printed no result: %r" % proc.stdout[-500:]) from None
    out["elapsed_s"] = clock() - start
    if setup_only:  # and just after, when that is still close to the set-up
        reference = (reference + contention.reference_time()) / 2
    out["reference_s"] = reference
    out["hash_seed"] = hash_seed
    out["traced"] = trace
    return out


def load_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def layer_value(name, trace):
    """A per-layer metric from one traced child's spans and counts."""
    spans, counts = trace["spans"], trace["counts"]
    if name in counts:
        return counts[name]
    base, _, field = name.rpartition(".")
    if field == "calls":
        return spans[base][0]
    if field == "self_s":
        return spans[base][2]
    if field == "useful_ratio":
        calls = spans[base][0]
        return counts[base + ".useful"] / calls if calls else 0.0
    raise KeyError("no rule for per-layer metric %r" % name)


def repeatable(trace):
    """The parts of a trace that must repeat exactly: counts and call counts."""
    return trace["counts"], {k: v[0] for k, v in trace["spans"].items()}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def schedule(trace):
    """(traced, hash seed) of each repetition, in order."""
    if trace:
        yield False, UNTRACED_HASH_SEED
        for hs in TRACED_HASH_SEEDS:
            yield True, hs
        while True:
            yield False, UNTRACED_HASH_SEED
            yield True, TRACED_HASH_SEEDS[0]
    while True:
        yield False, UNTRACED_HASH_SEED


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "quivdef" / "__init__.py").is_file():
        print("no quivdef sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    end_to_end, per_layer = load_metrics()
    WORKDIR.mkdir(exist_ok=True)

    provenance = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_before": os.getloadavg(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    # untraced runs report medians of at least two repetitions; traced runs
    # need one untraced and two traced children
    min_reps = 1 + len(TRACED_HASH_SEEDS) if args.trace else 2
    start = clock()
    failures = []
    attempted = 0
    setups = []
    reps = []

    def remaining():
        return HARD_LIMIT_S - (clock() - start)

    try:
        plan = schedule(args.trace)
        while True:
            traced, hash_seed = next(plan)
            if not args.trace:
                # spread the set-up samples over the whole run
                for _ in range(SETUP_PROBES_PER_REP):
                    setups.append(spawn(args.workload, args.seed, remaining(), setup_only=True))
            rep = spawn(args.workload, args.seed, remaining(), trace=traced, hash_seed=hash_seed)
            reps.append(rep)
            attempted += rep["attempted"]
            failures += rep["failures"]
            durations = [r["elapsed_s"] for r in reps]
            if remaining() < 1.5 * max(durations):
                break
            expected_end = clock() - start + statistics.median(durations)
            if len(reps) >= min_reps and expected_end > args.seconds:
                break
    except ChildFailed as exc:
        attempted += 1
        failures.append(str(exc))

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    digests = {r["digest"] for r in reps}
    if len(digests) > 1:
        attempted += 1
        failures.append("outputs differ between repetitions: %s" % sorted(map(str, digests)))
    if len({json.dumps(repeatable(r["trace"]), sort_keys=True) for r in traced}) > 1:
        attempted += 1
        failures.append("trace counts differ between traced repetitions")

    for r in setups + reps:
        r["setup_s"] = contention.adjusted_setup(r["raw_setup_s"], r["reference_s"])

    metrics = {}
    if untraced and (traced or not args.trace):
        med = statistics.median
        values = {
            "wall_s": med(r["wall_s"] for r in untraced),
            "cpu_s": med(r["cpu_s"] for r in untraced),
            "setup_s": med(r["setup_s"] for r in setups + untraced),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced),
        }
        if args.trace:
            values["tracing_overhead_s"] = med(r["wall_s"] for r in traced) - values["wall_s"]
            for m in per_layer:
                if m["name"] != "tracing_overhead_s":
                    got = [layer_value(m["name"], r["trace"]) for r in traced]
                    # counts repeat exactly (checked above); times take the median
                    values[m["name"]] = got[0] if isinstance(got[0], int) else med(got)
        for m in per_layer if args.trace else end_to_end:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    correct = not failures and bool(metrics)
    attempted = max(attempted, 1)
    provenance["loadavg_after"] = os.getloadavg()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance,
        "run_s": clock() - start,
        "setup_probes": setups,
        "repetitions": [{k: v for k, v in r.items() if k != "trace"} for r in reps],
        "failed_ratio": {"value": len(failures) / attempted, "unit": "ratio"},
        "failures": failures,
    }
    if traced:
        record["trace"] = traced[0]["trace"]
    print(json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
