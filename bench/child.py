"""One measured repetition of a workload, in a fresh process.

Run by run.py, from the root of the repository, with src/ on PYTHONPATH:

    python3 bench/child.py --workload NAME --seed N --spawned-at T --workdir DIR \
        [--trace] [--setup-only]

Set-up is everything from the spawn (T, read on CLOCK_MONOTONIC by the
parent just before it started this process) to the start of the timed
region: interpreter start, `import quivdef`, input generation and, with
--trace, patching the program.  The timed region runs the workload and
checks its outputs, while contention.Sampler times its reference kernel
every 20 ms.  The child reports the region's wall and CPU times in
reference seconds (see contention.py), and as read off the clocks.  It
prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import quivdef

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(quivdef.__file__).startswith(src + os.sep):
        print("quivdef imported from %s, not from %s" % (quivdef.__file__, src), file=sys.stderr)
        return 2

    import contention
    import instrument
    import workloads

    make_inputs, run = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed, args.workdir)
    sampler = contention.Sampler()
    tracer = None
    if args.trace:
        tracer = instrument.Tracer(clock=sampler.clock)
        instrument.install(tracer)
    gc.collect()
    t0 = clock()
    out = {"raw_setup_s": t0 - args.spawned_at}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    gate = workloads.Gate()
    observed = {}
    sampler.start()
    w0, c0 = sampler.clock(), sampler.cpu_clock()
    try:
        digest = run(inputs, gate, observed)
        w1, c1 = sampler.clock(), sampler.cpu_clock()
    finally:
        sampler.stop()

    ref_s = contention.REFERENCE_S
    out.update(
        wall_s=contention.adjusted_units(w0, w1, sampler.wall, sampler.refs) * ref_s,
        cpu_s=contention.adjusted_units(c0, c1, sampler.cpu, sampler.refs) * ref_s,
        raw_wall_s=w1 - w0,
        raw_cpu_s=c1 - c0,
        samples=len(sampler.refs),
        median_reference_s=statistics.median(sampler.refs),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        digest=digest,
    )
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        counts = out["trace"]["counts"]
        # the counts the spans collected must equal those the workload read
        # from the functions' return values
        for key, value in sorted(observed.items()):
            gate.record(
                "trace count " + key,
                counts.get(key) == value,
                "spans give %s, return values give %s" % (counts.get(key), value),
            )
    out.update(attempted=gate.attempted, failures=gate.failures)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
