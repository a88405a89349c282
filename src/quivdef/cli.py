"""Command-line entry point.

Subcommands run named checks against the constructions and print a
canonical JSON report; the exit code is zero exactly when no check
failed.  verify-all runs the whole battery at the documented parameter
ranges.  Random choices (deformation coefficients, lattice parameters,
fiber matrices) are driven by --seed, which is echoed in the report, so
reports are byte-identical across runs with the same arguments.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import families as fam
from . import deformation as defo
from . import koszul
from . import slnlab
from .hochschild import (
    graded_cocycle_degree,
    hh_dimensions,
    is_associative_cochain,
    is_coboundary,
    is_cocycle,
    mu_cocycle,
)
from .linalg import mat_eq
from .quiver import QuiverPresentation, bounded_quotient
from .reports import Check, Report, error_text

DEFAULT_SEED = 2011


# ---------------------------------------------------------------------------
# check batteries
# ---------------------------------------------------------------------------

def checks_dimensions(report: Report, ks):
    for k in ks:
        report.run(
            "dim_A%d" % k,
            "dim of the line algebra is 4k-2",
            4 * k - 2,
            lambda k=k: fam.make_a(k).dim,
        )


def checks_hom_table(report: Report, ks):
    for k in ks:
        def table(k=k):
            dims = fam.hom_dimensions(fam.make_a(k))
            want = {}
            for i in range(1, k + 1):
                for j in range(1, k + 1):
                    want[(i, j)] = 2 if i == j else (1 if abs(i - j) == 1 else 0)
            bad = [
                (i, j)
                for (i, j) in want
                if dims[str(i)][str(j)] != want[(i, j)]
            ]
            return bad

        report.run(
            "hom_table_A%d" % k,
            "Hom dims between projectives follow the 2/1/0 pattern",
            [],
            table,
        )


def checks_structure(report: Report, ks):
    for k in ks:
        alg = fam.make_a(k)

        report.run(
            "symmetric_form_A%d" % k,
            "the line algebra carries a symmetrizing trace form",
            True,
            lambda alg=alg: fam.symmetric_form(alg) is not None,
        )

        def profile(alg=alg, k=k):
            prof = fam.projective_profile(alg)
            lengths = [prof[str(i)]["length"] for i in range(1, k + 1)]
            loewy = sorted({prof[v]["loewy"] for v in prof})
            socle_simple = all(prof[v]["socle_dim"] == 1 for v in prof)
            own_vertex = all(prof[str(i)]["socle"] == {str(i): 1} for i in range(1, k + 1))
            return {
                "lengths": lengths,
                "loewy": loewy,
                "socle_simple": socle_simple,
                "socle_at_own_vertex": own_vertex,
            }

        report.run(
            "projectives_A%d" % k,
            "projectives have lengths 3,4,...,4,3, Loewy length 3, simple socle",
            {
                "lengths": [3] + [4] * (k - 2) + [3],
                "loewy": [3],
                "socle_simple": True,
                "socle_at_own_vertex": True,
            },
            profile,
        )

        report.run(
            "center_A%d" % k,
            "the center has dimension k+1",
            k + 1,
            lambda alg=alg: len(fam.center_basis(alg)),
        )

        report.run(
            "cut_iso_A%d" % k,
            "the idempotent cut of the extended algebra is the line algebra",
            True,
            lambda k=k: fam.atilde_cut_isomorphic_to_a(k),
        )


def checks_hochschild(report: Report, ks, deg3_ks, unreduced_ks):
    for k in ks:
        report.run(
            "hh_dims_A%d" % k,
            "Hochschild cohomology dims are k+1, then all 1",
            [k + 1, 1, 1],
            lambda k=k: hh_dimensions(fam.make_a(k), 2),
        )
    for k in deg3_ks:
        report.run(
            "hh3_A%d" % k,
            "third Hochschild cohomology is one dimensional",
            1,
            lambda k=k: hh_dimensions(fam.make_a(k), 3)[3],
        )
    for k in unreduced_ks:
        deg = 3 if k == 1 else 2
        report.run(
            "hh_unreduced_agrees_A%d" % k,
            "idempotent-reduced complex agrees with the full bar complex",
            True,
            lambda k=k, deg=deg: hh_dimensions(fam.make_a(k), deg)
            == hh_dimensions(fam.make_a(k), deg, reduced=False),
        )


def checks_mu(report: Report, ks):
    for k in ks:
        alg = fam.make_a(k)
        mu = mu_cocycle(alg)
        report.run(
            "mu_cocycle_A%d" % k,
            "the explicit 2-cochain satisfies the cocycle identity",
            (True, None),
            lambda alg=alg, mu=mu: is_cocycle(alg, mu),
        )
        report.run(
            "mu_associative_A%d" % k,
            "the explicit 2-cocycle is associative",
            (True, None),
            lambda alg=alg, mu=mu: is_associative_cochain(alg, mu),
        )
        report.run(
            "mu_nontrivial_A%d" % k,
            "the cocycle is not a coboundary",
            False,
            lambda alg=alg, mu=mu: is_coboundary(alg, mu)[0],
        )
        report.run(
            "mu_degree_all_one_A%d" % k,
            "homogeneous of degree -2 when all arrows sit in degree one",
            (-2, None),
            lambda alg=alg, mu=mu: graded_cocycle_degree(alg, mu, "all_one"),
        )
        report.run(
            "mu_degree_ab_A%d" % k,
            "homogeneous of degree -1 in the one-sided grading",
            (-1, None),
            lambda alg=alg, mu=mu: graded_cocycle_degree(alg, mu, "a_one_b_zero"),
        )


def checks_deform(report: Report, ks, order, max_params, seed):
    rng = random.Random(seed)
    for k in ks:
        alg = fam.make_a(k)
        mu = mu_cocycle(alg)
        for m in sorted({1, max_params}):
            coeffs = {
                d: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for d in defo.multi_indices(m, order, include_zero=False)
            }
            coeffs[tuple(1 if i == 0 else 0 for i in range(m))] = Fraction(1)
            report.run(
                "flat_deformation_A%d_m%d" % (k, m),
                "the cocycle-generated family is associative to the order",
                None,
                lambda alg=alg, mu=mu, coeffs=coeffs, m=m: defo.check_associativity(
                    defo.deform_from_cocycle(alg, mu, coeffs, m, order, verify=False)
                ),
            )
        report.run(
            "extend_A%d" % k,
            "order-by-order extension reaches the order unobstructed",
            None,
            lambda alg=alg, mu=mu: defo.check_associativity(
                defo.extend_order_by_order(alg, mu, order)
            ),
        )
        report.run(
            "infinitesimal_A%d" % k,
            "the first-order term is a nontrivial deformation",
            "nontrivial",
            lambda k=k, order=order: defo.infinitesimal_class(
                defo.mu_star_product(k, order)
            )[0]["verdict"],
        )


def checks_bhat(report: Report, ks, bound):
    for k in ks:
        gq = fam.make_bhat(k)
        report.run(
            "central_B%d" % k,
            "the degree-2 loop difference is central up to the bound",
            None,
            lambda gq=gq, bound=bound: fam.check_central(gq, fam.central_t(gq), bound),
        )
        report.run(
            "phi_B%d" % k,
            "projection is well defined, kills t, and is a degreewise bijection mod t",
            True,
            lambda k=k, bound=bound: fam.phi_report(k, bound)["bijective"],
        )
        report.run(
            "flat_dims_B%d" % k,
            "graded dims equal the free-module prediction over the center",
            [],
            lambda k=k, bound=bound: [
                row for row in fam.flatness_dims(k, bound) if row[1] != row[2]
            ],
        )
    report.run(
        "dims_B2_concrete",
        "low graded dims of the k=2 loop algebra are 2,2,4,2,4",
        [2, 2, 4, 2, 4],
        lambda: [fam.make_bhat(2).dim(d) for d in range(5)],
    )


def checks_psi(report: Report, ks, order):
    for k in ks:
        report.run(
            "psi_B%d" % k,
            "the explicit map is an isomorphism of truncated deformations",
            True,
            lambda k=k: defo.verify_psi(k, order)["ok"],
        )


def checks_koszul(report: Report, ks, hom_degree, max_internal):
    for k in ks:
        report.run(
            "koszul_B%d" % k,
            "loop-quiver algebra with all arrows in degree one is Koszul",
            True,
            lambda k=k: koszul.koszulity_certificate(
                koszul.view_from_graded_quotient(fam.make_bhat(k, "all_one")),
                hom_degree,
                max_internal,
            )["all_linear"],
        )
    report.run(
        "koszul_A1",
        "the dual numbers with the loop in degree one are Koszul",
        True,
        lambda: koszul.koszulity_certificate(
            koszul.view_from_algebra(fam.make_a(1)), hom_degree, max_internal
        )["all_linear"],
    )
    for k in (2, 3):
        report.run(
            "not_koszul_A%d" % k,
            "the line algebra fails linearity in path-length grading",
            False,
            lambda k=k: koszul.koszulity_certificate(
                koszul.view_from_algebra(fam.make_a(k)), hom_degree, max_internal
            )["all_linear"],
        )


def _built_once(build):
    """A thunk that calls build() on first use and then returns its result.

    An exception from build() is raised again on every use, so each check
    that needs the value fails with the same error text.
    """
    box = []

    def get():
        if not box:
            try:
                box.append((build(), None))
            except Exception as exc:
                box.append((None, exc))
        value, exc = box[0]
        if exc is not None:
            raise exc
        return value

    return get


def _argument_errors(bounds):
    """The (name, value, low) bounds with value below low, as text."""
    return ["%s = %d is below %d" % (name, value, low) for name, value, low in bounds if value < low]


def _check_arguments(report: Report, bounds) -> bool:
    """True when every bound holds; else add one failing `arguments` check."""
    errors = _argument_errors(bounds)
    if errors:
        need = ", ".join("%s >= %d" % (name, low) for name, _, low in bounds)
        report.run("arguments", "size arguments need " + need, [], lambda: errors)
    return not errors


def _lattice_bounds(n, radius, fiber):
    return [("n", n, 2), ("radius", radius, 0), ("fiber", fiber, 1)]


def _families_bounds(args):
    # central_B* checks the monomials of degree <= bound - 2, so below bound
    # 2 it tests nothing (phi_B* and flat_dims_B* start at 0); B(k) needs k >= 2
    return [("k", args.k, 2 if args.family == "bhat" else 1), ("bound", args.bound, 2)]


def _deform_bounds(args):
    return [("k", args.k, 2), ("order", args.order, 1), ("params", args.params, 1)]


def _hochschild_bounds(args):
    return [("k", args.k, 1), ("max_degree", args.max_degree, 0)]


def _koszul_bounds(args):
    # A(k) fails linearity first at homological degree k, internal degree
    # k + 1, so not_koszul_A3 needs 3 steps and a budget of 4
    return [
        ("k", args.k, 2),
        ("hom_degree", args.hom_degree, 3),
        ("max_degree", args.max_degree, max(4, args.hom_degree)),
    ]


def checks_slnlab(report: Report, ns, radius, max_fiber, seeds, bounds=()):
    """The lattice checks; the sizes and the extra (name, value, low) bounds come first."""
    if not _check_arguments(report, _lattice_bounds(min(ns), radius, max_fiber) + list(bounds)):
        return
    for n in ns:
        for seed in seeds:
            rng = random.Random(seed)
            a = slnlab.random_parameters(n, rng, extension_safe=True)
            dim = rng.randint(1, max_fiber)
            xs = slnlab.random_commuting_nilpotents(n, dim, rng)
            report.run(
                "relations_N_n%d_s%d" % (n, seed),
                "rank-one lattice module satisfies the defining relations",
                None,
                lambda n=n, a=a: slnlab.certify_relations(
                    slnlab.build_n(n, a, radius), [[[0]]] * n
                )["witness"],
            )
            # one module for the three checks below, freed before the next is built
            module = _built_once(lambda n=n, a=a, xs=xs: slnlab.build_f(n, a, xs, radius))
            report.run(
                "relations_F_n%d_s%d" % (n, seed),
                "matrix-fiber lattice module satisfies the defining relations",
                None,
                lambda module=module, xs=xs: slnlab.certify_relations(module(), xs)["witness"],
            )
            report.run(
                "roundtrip_n%d_s%d" % (n, seed),
                "fiber matrices are recovered from the Cartan and Casimir blocks",
                True,
                lambda module=module, a=a, xs=xs: all(
                    mat_eq(x, y) for x, y in zip(xs, slnlab.recover_x(module(), a))
                ),
            )
            report.run(
                "weight_criterion_n%d_s%d" % (n, seed),
                "diagonalizable Cartan action iff all fiber matrices are equal",
                True,
                lambda module=module, xs=xs: slnlab.is_weight_module(module())
                == all(mat_eq(xs[0], x) for x in xs[1:]),
            )
            del module
    for seed in seeds:
        rng = random.Random(seed + 17)
        a = slnlab.random_parameters(3, rng, extension_safe=True)
        dim = rng.randint(1, 2)
        xs = slnlab.random_commuting_nilpotents(3, dim, rng)

        def reconstruct(a=a, xs=xs):
            nprime = slnlab.build_f(2, a[:2], xs[:2], radius)
            recon, log = slnlab.reconstruct_extension(3, a, nprime, xs[2], radius)
            want = slnlab.build_f(3, a, xs, radius)
            cmp = slnlab.compare_modules(recon, want)
            return {
                "mismatched": cmp["mismatched"],
                "solved_y": log["y_equals_b"] > 0,
                "solved_down": log["x_equals_b_minus_1"] > 0,
                "solved_last": log["last_x_equals_b"] > 0,
            }

        report.run(
            "reconstruct_s%d" % seed,
            "the unique extension solver rebuilds the module blockwise",
            {"mismatched": [], "solved_y": True, "solved_down": True, "solved_last": True},
            reconstruct,
        )


def checks_determinism(report: Report):
    def rerun():
        probes = []
        for _ in range(2):
            probe = Report("probe", {"seed": 0})
            checks_dimensions(probe, [2])
            probes.append(probe.to_json())
        return probes[0] == probes[1]

    report.run(
        "report_determinism",
        "identical inputs serialize to identical reports",
        True,
        rerun,
    )


def checks_presentation_file(report: Report, path, bound):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        pres = QuiverPresentation.from_json(text)
        alg = bounded_quotient(pres, bound)
    except Exception as exc:
        report.checks.append(
            Check(
                "load",
                "presentation parses and the bound captures the quotient",
                "fail",
                "a finite quotient",
                error_text(exc),
            )
        )
        return
    report.run("dimension", "quotient dimension within the bound", alg.dim, lambda: alg.dim)
    report.run(
        "associative", "structure constants are associative", None, alg.check_associativity
    )
    report.run("unital", "the idempotent sum is a two-sided unit", True, alg.check_identity)
    report.run(
        "center_dim", "dimension of the center", len(fam.center_basis(alg)),
        lambda: len(fam.center_basis(alg)),
    )
    report.run(
        "symmetric", "existence of a symmetrizing form", True,
        lambda: fam.symmetric_form(alg) is not None,
    )


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="quivdef",
        description="exact verification of quiver algebra deformations and lattice modules",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the JSON report to a file")
    common.add_argument(
        "--timings", action="store_true", help="include elapsed times (non-deterministic)"
    )
    sub = p.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add(name, help):
        return sub.add_parser(name, help=help, parents=[common])

    f = add("families", "line algebra constructions and structure")
    f.add_argument("--k", type=int, default=3)
    f.add_argument("--bound", type=int, default=6, help="degree bound for centrality/flatness")
    f.add_argument("--presentation", help="verify a user presentation file instead")
    f.add_argument("--emit-presentation", action="store_true", help="print the presentation JSON")
    f.add_argument("--family", choices=["a", "atilde", "bhat"], default="a")

    h = add("hochschild", "Hochschild cohomology and the cocycle")
    h.add_argument("--k", type=int, default=2)
    h.add_argument("--max-degree", type=int, default=3)

    d = add("deform", "star products and extensions")
    d.add_argument("--k", type=int, default=2)
    d.add_argument("--order", type=int, default=4)
    d.add_argument("--params", type=int, default=3)
    d.add_argument("--seed", type=int, default=DEFAULT_SEED)
    d.add_argument("--emit-family", action="store_true", help="print the star-product family table")

    ko = add("koszul", "linearity of minimal resolutions")
    ko.add_argument("--k", type=int, default=2)
    ko.add_argument("--hom-degree", type=int, default=3)
    ko.add_argument("--max-degree", type=int, default=5)
    ko.add_argument("--emit-table", action="store_true", help="print the syzygy degree tables")

    s = add("slnlab", "lattice modules and the extension solver")
    s.add_argument("--n", type=int, default=3)
    s.add_argument("--radius", type=int, default=3)
    s.add_argument("--fiber", type=int, default=3)
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--dump", action="store_true", help="print the module's block listing")

    v = add("verify-all", "the full battery at the documented ranges")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--radius", type=int, default=3)
    v.add_argument("--slnlab-seeds", type=int, default=5)
    return p


def run_command(args) -> Report:
    if args.command == "families":
        report = Report("families", {"k": args.k, "bound": args.bound})
        if args.presentation:
            report.params["presentation"] = args.presentation
            checks_presentation_file(report, args.presentation, args.bound)
            return report
        if not _check_arguments(report, _families_bounds(args)):
            return report
        checks_dimensions(report, [args.k])
        if args.k >= 2:
            checks_hom_table(report, [args.k])
            checks_structure(report, [args.k])
            checks_bhat(report, [args.k], args.bound)
        return report
    if args.command == "hochschild":
        report = Report("hochschild", {"k": args.k, "max_degree": args.max_degree})
        if not _check_arguments(report, _hochschild_bounds(args)):
            return report
        report.run(
            "hh_dims_A%d" % args.k,
            "Hochschild cohomology dims are k+1, then all 1",
            [args.k + 1] + [1] * args.max_degree,
            lambda: hh_dimensions(fam.make_a(args.k), args.max_degree),
        )
        if args.k >= 2:
            checks_mu(report, [args.k])
        if args.k <= 2:
            checks_hochschild(report, [], [], [args.k])
        return report
    if args.command == "deform":
        report = Report(
            "deform",
            {"k": args.k, "order": args.order, "params": args.params, "seed": args.seed},
        )
        if _check_arguments(report, _deform_bounds(args)):
            checks_deform(report, [args.k], args.order, args.params, args.seed)
            checks_psi(report, [args.k], args.order)
        return report
    if args.command == "koszul":
        report = Report(
            "koszul",
            {"k": args.k, "hom_degree": args.hom_degree, "max_degree": args.max_degree},
        )
        if _check_arguments(report, _koszul_bounds(args)):
            checks_koszul(report, [args.k], args.hom_degree, args.max_degree)
        return report
    if args.command == "slnlab":
        report = Report(
            "slnlab",
            {"n": args.n, "radius": args.radius, "fiber": args.fiber, "seed": args.seed},
        )
        checks_slnlab(report, [args.n], args.radius, args.fiber, [args.seed])
        return report
    if args.command == "verify-all":
        report = Report(
            "verify-all",
            {"seed": args.seed, "radius": args.radius, "slnlab_seeds": args.slnlab_seeds},
        )
        checks_dimensions(report, range(1, 7))
        checks_hom_table(report, range(2, 7))
        checks_structure(report, range(2, 6))
        checks_hochschild(report, [2, 3, 4], [2, 3], [1, 2])
        checks_mu(report, range(2, 6))
        checks_deform(report, [2, 3, 4], 4, 3, args.seed)
        checks_bhat(report, [2, 3, 4], 6)
        checks_psi(report, [2, 3, 4], 4)
        checks_koszul(report, [2, 3, 4], 3, 5)
        seeds = [args.seed + i for i in range(args.slnlab_seeds)]
        checks_slnlab(
            report, [2, 3, 4], args.radius, 3, seeds, [("slnlab_seeds", args.slnlab_seeds, 1)]
        )
        checks_determinism(report)
        return report
    raise SystemExit("unknown command %r" % args.command)


def emit_data(args):
    """The --emit-*/--dump side outputs: presentation, family, tables, dump."""
    import json

    if (
        args.command == "families"
        and args.emit_presentation
        and not _argument_errors(_families_bounds(args))
    ):
        pres = {
            "a": fam.a_presentation,
            "atilde": fam.atilde_presentation,
            "bhat": fam.bhat_presentation,
        }[args.family](args.k)
        return pres.to_json()
    if (
        args.command == "deform"
        and args.emit_family
        and not _argument_errors(_deform_bounds(args))
    ):
        S = defo.extend_order_by_order(
            fam.make_a(args.k), mu_cocycle(fam.make_a(args.k)), args.order
        )
        return json.dumps(S.family_table(), indent=2, sort_keys=True)
    if (
        args.command == "koszul"
        and args.emit_table
        and not _argument_errors(_koszul_bounds(args))
    ):
        view = koszul.view_from_graded_quotient(fam.make_bhat(args.k, "all_one"))
        cert = koszul.koszulity_certificate(view, args.hom_degree, args.max_degree)
        return json.dumps(cert, indent=2, sort_keys=True)
    if (
        args.command == "slnlab"
        and args.dump
        and not _argument_errors(_lattice_bounds(args.n, args.radius, args.fiber))
    ):
        rng = random.Random(args.seed)
        a = slnlab.random_parameters(args.n, rng, extension_safe=True)
        xs = slnlab.random_commuting_nilpotents(args.n, args.fiber, rng)
        module = slnlab.build_f(args.n, a, xs, args.radius)
        return json.dumps(slnlab.module_dump(module), indent=2, sort_keys=True)
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    emitted = emit_data(args)
    if emitted is not None:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(emitted + "\n")
        else:
            print(emitted)
        return 0
    report = run_command(args)
    text = report.to_json(with_timings=args.timings)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
