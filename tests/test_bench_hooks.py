"""The traced benchmark wraps program functions and methods by name.

bench/instrument.py patches names such as `StarProduct.mu_pair` and
`hochschild.is_associative_cochain`, and its graded-component hook reads
`GradedQuotient.paths_of_degree` and the "basis" entry of `_component`; a
refactor that removes one of them must fail here, not only in a traced
benchmark run.
"""

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


def _run_with_tracer(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bench_tracer_installs_on_the_program():
    _run_with_tracer("import instrument; instrument.install(instrument.Tracer())")


def test_bench_tracer_counts_graded_components():
    # B(2) has dimensions 2, 2, 4, 2, 4 in degrees 0..4
    assert _run_with_tracer(TRACED_BHAT).split() == ["14"]
