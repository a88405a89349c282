"""The four benchmark workloads, their seeded inputs and correctness gates.

Each workload has two halves.  `inputs(seed, workdir)` runs in set-up:
it turns the seed into the concrete arguments the program receives
(parameters, fiber matrices, deformation coefficients).  `run(inputs,
gate, observed)` is the timed region: it calls the program and checks
every output through the gate.  `observed` collects counts read from the
program's return values, which the traced pass compares with the counts
its spans collected.  Program functions are looked up on their modules
at call time, so the tracer's patched versions are the ones called.

DESIGN.md says why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

from quivdef import cli, deformation, families, hochschild, koszul, linalg, slnlab

# md5 of the canonical verify-all report at the default seed
GOLDEN_REPORT_MD5 = "e5812068730ad8862babd96b3cac0361"
VERIFY_ALL_CHECKS = 151


class Gate:
    """Counts operations, and those whose check failed or raised."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append("%s: %s" % (name, detail))

    def check(self, name, fn, want):
        """Run fn(); the operation passes when it returns `want`."""
        try:
            got = fn()
        except Exception as exc:  # a raising operation is a failed one
            self.record(name, False, "raised %s: %s" % (type(exc).__name__, exc))
            return
        self.record(name, got == want, "got %.200r, want %.200r" % (got, want))

    @property
    def failed(self) -> int:
        return len(self.failures)


def _count(observed, key, n):
    observed[key] = observed.get(key, 0) + n


# ---------------------------------------------------------------------------
# verify_all: the command users run
# ---------------------------------------------------------------------------

def verify_all_inputs(seed, workdir):
    # Users run verify-all at its default seed, whose report is the golden
    # one, so every run checks the md5.  The benchmark seed is recorded but
    # unused: the CLI seed picks the lattice fiber dimensions, and that alone
    # moved the run time from 9 s to 15 s across CLI seeds 1 to 7.
    out = os.path.join(workdir, "verify_all-%d.json" % os.getpid())
    return {
        "argv": ["verify-all", "--seed", str(cli.DEFAULT_SEED), "--output", out],
        "output": out,
    }


def verify_all_run(inp, gate, observed):
    rc = cli.main(list(inp["argv"]))
    with open(inp["output"], "rb") as fh:
        data = fh.read()
    os.remove(inp["output"])
    md5 = hashlib.md5(data).hexdigest()
    checks = json.loads(data)["checks"]
    for check in checks:
        gate.record(check["name"], check["status"] == "pass", check["status"])
    gate.record(
        "report",
        rc == 0 and len(checks) == VERIFY_ALL_CHECKS and md5 == GOLDEN_REPORT_MD5,
        "exit %s, %d checks, md5 %s" % (rc, len(checks), md5),
    )
    return md5


# ---------------------------------------------------------------------------
# psi_tower: graded components of B(k) and exact elimination
# ---------------------------------------------------------------------------

# (k, order, scale, expected ok); the rescaled map is the negative control
PSI_INSTANCES = [(4, 4, 1, True), (5, 4, 1, True), (6, 4, 1, True), (3, 5, 1, True), (2, 4, 2, False)]


def psi_tower_inputs(seed, workdir):
    # verify_psi has no random inputs; the seed is recorded but unused
    return {"instances": list(PSI_INSTANCES)}


def psi_tower_run(inp, gate, observed):
    for k, order, scale, want in inp["instances"]:
        gate.check(
            "psi_k%d_order%d_scale%d" % (k, order, scale),
            lambda: deformation.verify_psi(k, order, scale=scale)["ok"],
            want,
        )


# ---------------------------------------------------------------------------
# lattice: dense Fraction matrix products of the sl(n) modules
# ---------------------------------------------------------------------------

def generic_nilpotents(n, dim, rng):
    """n commuting nilpotents c1 N + c2 N^2 + ... with N one Jordan block.

    Unlike slnlab.random_commuting_nilpotents, no coefficient is zero, so
    every seed gives blocks of the same sparsity and the same matrix work;
    the seed varies the values only.
    """
    jordan = [[Fraction(int(j == i + 1)) for j in range(dim)] for i in range(dim)]
    powers = [jordan]
    for _ in range(dim - 2):
        powers.append(linalg.mat_mul(powers[-1], jordan))
    out = []
    for _ in range(n):
        x = [[Fraction(0)] * dim for _ in range(dim)]
        for p in powers:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            x = linalg.mat_add(x, linalg.mat_scale(c, p))
        out.append(x)
    return out


def lattice_inputs(seed, workdir):
    rng = random.Random(seed)
    n4 = []
    for _ in range(2):
        a = slnlab.random_parameters(4, rng, extension_safe=True)
        n4.append((a, generic_nilpotents(4, 3, rng)))
    a5 = slnlab.random_parameters(5, rng, extension_safe=True)
    x5 = generic_nilpotents(5, 3, rng)
    a3 = slnlab.random_parameters(3, rng, extension_safe=True)
    x3 = generic_nilpotents(3, 3, rng)
    return {"n4": n4, "n5": (a5, x5), "ext": (a3, x3)}


def _relations_witness(module, observed):
    res = slnlab.verify_relations(module)
    _count(observed, "slnlab.relations.checked", res["checked"])
    _count(observed, "slnlab.relations.skipped", res["skipped"])
    return res["witness"]


def lattice_run(inp, gate, observed):
    for i, (a, xs) in enumerate(inp["n4"]):
        module = slnlab.build_f(4, a, xs, 4)
        gate.check("relations_n4_%d" % i, lambda: _relations_witness(module, observed), None)
        gate.check(
            "roundtrip_n4_%d" % i,
            lambda: all(linalg.mat_eq(x, y) for x, y in zip(xs, slnlab.recover_x(module, a))),
            True,
        )
        gate.check(
            "weight_n4_%d" % i,
            lambda: slnlab.is_weight_module(module) == all(linalg.mat_eq(xs[0], x) for x in xs[1:]),
            True,
        )
    a5, x5 = inp["n5"]
    gate.check(
        "relations_n5",
        lambda: _relations_witness(slnlab.build_f(5, a5, x5, 2), observed),
        None,
    )
    a3, x3 = inp["ext"]

    def reconstruct():
        nprime = slnlab.build_f(2, a3[:2], x3[:2], 6)
        recon, _log = slnlab.reconstruct_extension(3, a3, nprime, x3[2], 6)
        return slnlab.compare_modules(recon, slnlab.build_f(3, a3, x3, 6))["mismatched"]

    gate.check("reconstruct_n3", reconstruct, [])


# ---------------------------------------------------------------------------
# cohomology: Hochschild complexes, the associator and minimal resolutions
# ---------------------------------------------------------------------------

def cohomology_inputs(seed, workdir):
    rng = random.Random(seed)
    # nonzero coefficients, so every seed deforms along every multi-index
    coeffs = {
        d: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        for d in deformation.multi_indices(3, 4, include_zero=False)
    }
    coeffs[(1, 0, 0)] = Fraction(1)
    return {"coeffs": coeffs}


def _generators(cert, vertices):
    return sum(len(step["degrees"]) for v in vertices for step in cert[v]["table"])


def cohomology_run(inp, gate, observed):
    gate.check(
        "hh_A12",
        lambda: hochschild.hh_dimensions(families.make_a(12), 5),
        [13, 1, 1, 1, 1, 1],
    )
    gate.check(
        "hh_full_bar_A2",
        lambda: hochschild.hh_dimensions(families.make_a(2), 3, reduced=False),
        [3, 1, 1, 1],
    )
    a16 = families.make_a(16)
    mu = hochschild.mu_cocycle(a16)
    gate.check("mu_cocycle_A16", lambda: hochschild.is_cocycle(a16, mu), (True, None))
    gate.check("mu_associative_A16", lambda: hochschild.is_associative_cochain(a16, mu), (True, None))
    gate.check("mu_nontrivial_A16", lambda: hochschild.is_coboundary(a16, mu)[0], False)
    gate.check(
        "extend_A16_order8",
        lambda: deformation.check_associativity(deformation.extend_order_by_order(a16, mu, 8)),
        None,
    )
    a6 = families.make_a(6)
    gate.check(
        "deform_A6_m3_order4",
        lambda: deformation.check_associativity(
            deformation.deform_from_cocycle(
                a6, hochschild.mu_cocycle(a6), inp["coeffs"], 3, 4, verify=False
            )
        ),
        None,
    )

    def koszul_verdict(view, max_hom, max_int):
        cert = koszul.koszulity_certificate(view, max_hom, max_int)
        _count(observed, "koszul.generators", _generators(cert, view.vertices))
        return cert["all_linear"]

    gate.check(
        "koszul_B8",
        lambda: koszul_verdict(
            koszul.view_from_graded_quotient(families.make_bhat(8, "all_one")), 6, 7
        ),
        True,
    )
    gate.check(
        "not_koszul_A3",
        lambda: koszul_verdict(koszul.view_from_algebra(families.make_a(3)), 3, 5),
        False,
    )


WORKLOADS = {
    "verify_all": (verify_all_inputs, verify_all_run),
    "psi_tower": (psi_tower_inputs, psi_tower_run),
    "lattice": (lattice_inputs, lattice_run),
    "cohomology": (cohomology_inputs, cohomology_run),
}
