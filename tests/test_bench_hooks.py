"""The benchmark calls program functions and methods by name.

bench/instrument.py patches names such as `StarProduct.mu_pair` and
`hochschild.is_associative_cochain`, and its graded-component hook reads
`GradedQuotient.paths_of_degree` and the "basis" entry of `_component`;
bench/workloads.py calls names such as `linalg.mat_mul` and
`slnlab.verify_relations`.  A refactor that removes one of them must fail
here, not only in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_BHAT = """
import instrument
from quivdef.families import make_bhat

tracer = instrument.Tracer()
instrument.install(tracer)
gq = make_bhat(2)
for d in range(5):
    gq.dim(d)
print(tracer.counts["quiver.basis_dim"])
"""


RUN_WORKLOADS = """
import json
import sys
import workloads

runs = {}
for name, (inputs, run) in workloads.WORKLOADS.items():
    gate = workloads.Gate()
    run(inputs(1, sys.argv[1]), gate, {})
    runs[name] = [gate.attempted, gate.failures]
print(json.dumps(runs))
"""


def _run_on_bench_path(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bench_tracer_installs_on_the_program():
    _run_on_bench_path("import instrument; instrument.install(instrument.Tracer())")


def test_bench_tracer_counts_graded_components():
    # B(2) has dimensions 2, 2, 4, 2, 4 in degrees 0..4
    assert _run_on_bench_path(TRACED_BHAT).split() == ["14"]


def test_bench_workloads_run_without_failures(tmp_path):
    # each workload once, untraced, at seed 1: every operation passes its gate
    runs = json.loads(_run_on_bench_path(RUN_WORKLOADS, str(tmp_path)))
    assert sorted(runs) == ["cohomology", "lattice", "psi_tower", "verify_all"]
    for name, (attempted, failures) in runs.items():
        assert attempted > 0 and failures == [], name
