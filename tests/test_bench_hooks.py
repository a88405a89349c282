"""The benchmark calls program functions and methods by name.

bench/instrument.py patches names such as `StarProduct.mu_pair` and
`hochschild.is_associative_cochain`, and its graded-component hook reads
`GradedQuotient.paths_of_degree` and the "basis" entry of `_component`;
bench/workloads.py calls names such as `linalg.mat_mul` and
`slnlab.verify_relations`.  A refactor that removes one of them, or
changes a signature so that a wrapped call fails, must fail here, not
only in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType

from quivdef.families import make_bhat
from quivdef.quiver import CentralQuotient, FiniteDimAlgebra, GradedQuotient

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


TRACED_PROGRAM = """
import instrument
from quivdef import deformation, families

tracer = instrument.Tracer()
instrument.install(tracer)
print(deformation.verify_psi(2, 2)["ok"], families.atilde_cut_isomorphic_to_a(3))
spans = tracer.snapshot()["spans"]
print(spans["quiver.FiniteDimAlgebra.init"][0], spans["families"][0], spans["quiver.GradedQuotient"][0] > 0)
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


TRACED_WORKLOAD = """
import json
import sys
import instrument
import workloads

inputs, run = workloads.WORKLOADS[sys.argv[1]]
inp = inputs(1, sys.argv[2])
tracer = instrument.Tracer()
instrument.install(tracer)
gate = workloads.Gate()
observed = {}
run(inp, gate, observed)
snapshot = tracer.snapshot()
calls = {name: span[0] for name, span in snapshot["spans"].items()}
result = {"failures": gate.failures, "observed": observed, "counts": snapshot["counts"], "calls": calls}
print(json.dumps(result))
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


def test_quotient_classes_define_plain_functions_only():
    """instrument.install wraps every callable of vars(GradedQuotient) and
    vars(CentralQuotient) and sets it back as a plain function, so a
    staticmethod there would receive self and a classmethod would lose
    its class under --trace 1.  The names the bench reads stay."""
    for cls in (GradedQuotient, CentralQuotient):
        odd = [name for name, value in vars(cls).items() if isinstance(value, (staticmethod, classmethod))]
        assert odd == [], cls.__name__
    assert isinstance(vars(GradedQuotient)["paths_of_degree"], FunctionType)
    assert isinstance(vars(FiniteDimAlgebra)["mul"], FunctionType)
    assert make_bhat(2)._component(1)["basis"] == make_bhat(2).component(1)


def test_bench_tracer_counts_graded_components():
    # B(2) has dimensions 2, 2, 4, 2, 4 in degrees 0..4
    assert _run_on_bench_path(TRACED_BHAT).split() == ["14"]


def test_bench_tracer_wraps_a_traced_program_run():
    # A(2) and the psi target, then A(3), Atilde(3) and its cut: five
    # finite algebras, each built through the traced constructors
    out = _run_on_bench_path(TRACED_PROGRAM).split()
    assert out[:3] == ["True", "True", "5"] and int(out[3]) > 0 and out[4] == "True"


def test_bench_workloads_run_without_failures(tmp_path):
    # each workload once, untraced, at seed 1: every operation passes its gate
    runs = json.loads(_run_on_bench_path(RUN_WORKLOADS, str(tmp_path)))
    assert sorted(runs) == ["cohomology", "lattice", "psi_tower", "verify_all"]
    for name, (attempted, failures) in runs.items():
        assert attempted > 0 and failures == [], name


def test_traced_lattice_run_counts_what_it_returns(tmp_path):
    # the traced pass compares the relation counts its spans collected with
    # those read from verify_relations' return values
    run = json.loads(_run_on_bench_path(TRACED_WORKLOAD, "lattice", str(tmp_path)))
    assert run["failures"] == []
    observed = run["observed"]
    assert sorted(observed) == ["slnlab.relations.checked", "slnlab.relations.skipped"]
    assert {key: run["counts"][key] for key in observed} == observed
    assert observed == {"slnlab.relations.checked": 45030, "slnlab.relations.skipped": 21522}


def test_traced_cohomology_run_counts_what_it_returns(tmp_path):
    # the tracer wraps check_associativity, extend_order_by_order and the
    # StarProduct.mu_* methods by name; the traced run passes every gate,
    # and its spans count the Koszul generators the certificates return
    run = json.loads(_run_on_bench_path(TRACED_WORKLOAD, "cohomology", str(tmp_path)))
    assert run["failures"] == []
    observed = run["observed"]
    assert sorted(observed) == ["koszul.generators"]
    assert run["counts"]["koszul.generators"] == observed["koszul.generators"]
    calls = run["calls"]
    assert calls["deformation.check_associativity"] == 2
    assert calls["deformation.extend_order_by_order"] == 1
