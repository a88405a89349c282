"""The acceptance battery: one test and one printed line per criterion.

Every criterion is exact (integer dimensions, identities in Q); the two
with runtime budgets assert them.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they pass.
"""

import hashlib
import os
import subprocess
import sys
import time

import pytest

from quivdef.cli import (
    DEFAULT_SEED,
    build_parser,
    checks_bhat,
    checks_deform,
    checks_dimensions,
    checks_hochschild,
    checks_hom_table,
    checks_koszul,
    checks_mu,
    checks_psi,
    checks_slnlab,
    checks_structure,
    run_command,
)
from quivdef.reports import Report

# md5 of the default verify-all report as printed (with its trailing newline)
GOLDEN_MD5 = "e5812068730ad8862babd96b3cac0361"


def _finish(num, label, report, budget=None, elapsed=None):
    status = "PASS" if report.failed == 0 else "FAIL"
    if budget is not None and elapsed is not None and elapsed > budget:
        status = "FAIL"
    extra = " (%.1fs)" % elapsed if elapsed is not None else ""
    print("ACCEPTANCE %2d %s: %s%s" % (num, status, label, extra))
    bad = [c for c in report.checks if c.status != "pass"]
    assert not bad, [(c.name, c.actual) for c in bad]
    if budget is not None and elapsed is not None:
        assert elapsed <= budget


def test_criterion_01_dimensions():
    report = Report("acceptance-1", {})
    start = time.monotonic()
    checks_dimensions(report, range(1, 7))
    elapsed = time.monotonic() - start
    _finish(1, "dim A^k = 4k-2 for k = 1..6", report, budget=1.0, elapsed=elapsed)


def test_criterion_02_hom_table():
    report = Report("acceptance-2", {})
    checks_hom_table(report, range(2, 7))
    _finish(2, "Hom dims follow the 2/1/0 pattern for k = 2..6", report)


def test_criterion_03_structure():
    report = Report("acceptance-3", {})
    checks_structure(report, range(2, 6))
    _finish(3, "symmetric form, simple socles, lengths and Loewy length 3", report)


def test_criterion_04_hochschild_dimensions():
    report = Report("acceptance-4", {})
    start = time.monotonic()
    checks_hochschild(report, [2, 3, 4], [2, 3], [1, 2])
    elapsed = time.monotonic() - start
    _finish(
        4,
        "HH dims k+1,1,1(,1) and reduced/unreduced agreement",
        report,
        budget=300.0,
        elapsed=elapsed,
    )


def test_criterion_05_mu_cocycle():
    report = Report("acceptance-5", {})
    checks_mu(report, range(2, 6))
    _finish(5, "the 2-cocycle: associative, nontrivial, degrees -2 and -1", report)


def test_criterion_06_deformations():
    report = Report("acceptance-6", {"seed": DEFAULT_SEED})
    checks_deform(report, [2, 3, 4], 4, 3, DEFAULT_SEED)
    _finish(6, "flat deformations to order 4, unobstructed extension", report)


def test_criterion_07_loop_quiver_algebra():
    report = Report("acceptance-7", {})
    checks_bhat(report, [2, 3, 4], 6)
    _finish(7, "central element, projection, graded flatness dims", report)


def test_criterion_08_deformation_isomorphism():
    report = Report("acceptance-8", {})
    checks_psi(report, [2, 3, 4], 4)
    _finish(8, "the explicit map is a truncated deformation isomorphism", report)


def test_criterion_09_koszulity():
    report = Report("acceptance-9", {})
    checks_koszul(report, [2, 3, 4], 3, 5)
    _finish(9, "loop quivers are Koszul to step 3; line algebras are not", report)


def test_criterion_10_lattice_modules():
    report = Report("acceptance-10", {"seed": DEFAULT_SEED})
    seeds = [DEFAULT_SEED + i for i in range(5)]
    checks_slnlab(report, [2, 3, 4], 3, 3, seeds)
    _finish(10, "lattice module relations, recovery, weight criterion, solver", report)


def test_criterion_11_determinism():
    parser = build_parser()
    args = parser.parse_args(["verify-all", "--seed", str(DEFAULT_SEED)])
    first = run_command(args).to_json()
    second = run_command(args).to_json()
    golden = hashlib.md5((first + "\n").encode()).hexdigest() == GOLDEN_MD5
    status = "PASS" if first == second and golden else "FAIL"
    print("ACCEPTANCE 11 %s: verify-all report is byte-identical across runs and golden" % status)
    assert first == second
    assert golden


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_verify_all_is_golden_under_any_hash_seed(hash_seed):
    proc = subprocess.run(
        [sys.executable, "-m", "quivdef", "verify-all"],
        capture_output=True,
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.md5(proc.stdout).hexdigest() == GOLDEN_MD5
