"""Command-line entry point.

Subcommands run named checks against the constructions and print a
canonical JSON report; the exit code is zero exactly when no check
failed.  verify-all runs the whole battery at the documented parameter
ranges.  Random choices (deformation coefficients, lattice parameters,
fiber matrices) are driven by --seed, which is echoed in the report, so
reports are byte-identical across runs with the same arguments.

Each subcommand is one row of COMMANDS: its help line, its int
arguments with their defaults (echoed as the report's params), the least
value of each size argument, its battery, and the flag that prints its
side output (--emit-presentation, --emit-family, --emit-table or --dump)
in place of the report.  build_parser makes every subparser from these
rows.  The sizes are checked before any work, for the report and the
side output alike: a value below its bound gives one failing
`arguments` check and exit code 1.  A side output that raises,
such as a `--dump` above slnlab.DUMP_VALUES, gives one failing check
named after its flag.  `families --presentation FILE` verifies a user
presentation instead and has no size bounds.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

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

def _run_rows(report: Report, suffix, rows):
    """Run (name, anchor, expected, thunk) rows in order, suffix appended to each name."""
    for name, anchor, expected, thunk in rows:
        report.run(name + suffix, anchor, expected, thunk)


def checks_dimensions(report: Report, ks):
    for k in ks:
        report.run(
            "dim_A%d" % k, "dim of the line algebra is 4k-2", 4 * k - 2, lambda: fam.make_a(k).dim
        )


def hom_pattern_breaks(alg, k):
    """The sorted pairs (i, j) of vertices 1..k where dim e_i A e_j is not max(0, 2 - |i - j|).

    A pair off the band |i - j| <= 1 breaks the pattern only where the
    space is nonzero, an entry of alg.between, so O(k) pairs are read.
    """
    number = {str(i): i for i in range(1, k + 1)}
    pairs = {(number[w], number[v]) for w, v in alg.between if w in number and v in number}
    pairs.update((i, j) for i in number.values() for j in (i - 1, i, i + 1) if 1 <= j <= k)
    return sorted(
        (i, j) for i, j in pairs if len(alg.between.get((str(i), str(j)), ())) != max(0, 2 - abs(i - j))
    )


def checks_hom_table(report: Report, ks):
    for k in ks:
        report.run(
            "hom_table_A%d" % k,
            "Hom dims between projectives follow the 2/1/0 pattern",
            [],
            lambda: hom_pattern_breaks(fam.make_a(k), k),
        )


def checks_structure(report: Report, ks):
    for k in ks:
        alg = fam.make_a(k)
        vertices = [str(i) for i in range(1, k + 1)]

        def profile():
            prof = fam.projective_profile(alg)
            return {
                "lengths": [prof[v]["length"] for v in vertices],
                "loewy": sorted({prof[v]["loewy"] for v in prof}),
                "socle_simple": all(prof[v]["socle_dim"] == 1 for v in prof),
                "socle_at_own_vertex": all(prof[v]["socle"] == {v: 1} for v in vertices),
            }

        shape = {
            "lengths": [3] + [4] * (k - 2) + [3],
            "loewy": [3],
            "socle_simple": True,
            "socle_at_own_vertex": True,
        }
        _run_rows(report, "_A%d" % k, [
            ("symmetric_form", "the line algebra carries a symmetrizing trace form",
             True, lambda: fam.symmetric_form(alg) is not None),
            ("projectives", "projectives have lengths 3,4,...,4,3, Loewy length 3, simple socle",
             shape, profile),
            ("center", "the center has dimension k+1",
             k + 1, lambda: len(fam.center_basis(alg))),
            ("cut_iso", "the idempotent cut of the extended algebra is the line algebra",
             True, lambda: fam.atilde_cut_isomorphic_to_a(k)),
        ])


def checks_hochschild(report: Report, ks, deg3_ks, unreduced_ks):
    for k in ks:
        report.run(
            "hh_dims_A%d" % k,
            "Hochschild cohomology dims are k+1, then all 1",
            [k + 1, 1, 1],
            lambda: hh_dimensions(fam.make_a(k), 2),
        )
    for k in deg3_ks:
        report.run(
            "hh3_A%d" % k,
            "third Hochschild cohomology is one dimensional",
            1,
            lambda: hh_dimensions(fam.make_a(k), 3)[3],
        )
    for k in unreduced_ks:
        deg = 3 if k == 1 else 2
        report.run(
            "hh_unreduced_agrees_A%d" % k,
            "idempotent-reduced complex agrees with the full bar complex",
            True,
            lambda: hh_dimensions(fam.make_a(k), deg)
            == hh_dimensions(fam.make_a(k), deg, reduced=False),
        )


def checks_mu(report: Report, ks):
    for k in ks:
        alg = fam.make_a(k)
        mu = mu_cocycle(alg)
        _run_rows(report, "_A%d" % k, [
            ("mu_cocycle", "the explicit 2-cochain satisfies the cocycle identity",
             (True, None), lambda: is_cocycle(alg, mu)),
            ("mu_associative", "the explicit 2-cocycle is associative",
             (True, None), lambda: is_associative_cochain(alg, mu)),
            ("mu_nontrivial", "the cocycle is not a coboundary",
             False, lambda: is_coboundary(alg, mu)[0]),
            ("mu_degree_all_one", "homogeneous of degree -2 when all arrows sit in degree one",
             (-2, None), lambda: graded_cocycle_degree(alg, mu, "all_one")),
            ("mu_degree_ab", "homogeneous of degree -1 in the one-sided grading",
             (-1, None), lambda: graded_cocycle_degree(alg, mu, "a_one_b_zero")),
        ])


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
                lambda: defo.check_associativity(
                    defo.deform_from_cocycle(alg, mu, coeffs, m, order, verify=False)
                ),
            )
        _run_rows(report, "_A%d" % k, [
            ("extend", "order-by-order extension reaches the order unobstructed",
             None, lambda: defo.check_associativity(defo.extend_order_by_order(alg, mu, order))),
            ("infinitesimal", "the first-order term is a nontrivial deformation",
             "nontrivial",
             lambda: defo.infinitesimal_class(defo.mu_star_product(k, order))[0]["verdict"]),
        ])


def checks_bhat(report: Report, ks, bound):
    for k in ks:
        gq = fam.make_bhat(k)
        _run_rows(report, "_B%d" % k, [
            ("central", "the degree-2 loop difference is central up to the bound",
             None, lambda: fam.check_central(gq, fam.central_t(gq), bound)),
            ("phi", "projection is well defined, kills t, and is a degreewise bijection mod t",
             True, lambda: fam.phi_report(k, bound)["bijective"]),
            ("flat_dims", "graded dims equal the free-module prediction over the center",
             [], lambda: [row for row in fam.flatness_dims(k, bound) if row[1] != row[2]]),
        ])
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
            lambda: defo.verify_psi(k, order)["ok"],
        )


def checks_koszul(report: Report, ks, hom_degree, max_internal):
    def linear(view):
        return koszul.koszulity_certificate(view, hom_degree, max_internal)["all_linear"]

    for k in ks:
        report.run(
            "koszul_B%d" % k,
            "loop-quiver algebra with all arrows in degree one is Koszul",
            True,
            lambda: linear(koszul.view_from_graded_quotient(fam.make_bhat(k, "all_one"))),
        )
    report.run(
        "koszul_A1",
        "the dual numbers with the loop in degree one are Koszul",
        True,
        lambda: linear(koszul.view_from_algebra(fam.make_a(1))),
    )
    for k in (2, 3):
        report.run(
            "not_koszul_A%d" % k,
            "the line algebra fails linearity in path-length grading",
            False,
            lambda: linear(koszul.view_from_algebra(fam.make_a(k))),
        )


def checks_slnlab(report: Report, ns, radius, max_fiber, seeds):
    for n in ns:
        for seed in seeds:
            rng = random.Random(seed)
            a = slnlab.random_parameters(n, rng, extension_safe=True)
            dim = rng.randint(1, max_fiber)
            xs = slnlab.random_commuting_nilpotents(n, dim, rng)
            equal_fibers = all(mat_eq(xs[0], x) for x in xs[1:])
            # built by the first check that asks; a build that raises is not
            # cached, so it fails each check on its own
            module = functools.cache(functools.partial(slnlab.build_f, n, a, xs, radius))
            _run_rows(report, "_n%d_s%d" % (n, seed), [
                ("relations_N", "rank-one lattice module satisfies the defining relations",
                 None, lambda: slnlab.certify_relations(slnlab.build_n(n, a, radius))["witness"]),
                ("relations_F", "matrix-fiber lattice module satisfies the defining relations",
                 None, lambda: slnlab.certify_relations(module())["witness"]),
                ("roundtrip", "fiber matrices are recovered from the Cartan and Casimir blocks",
                 True, lambda: all(map(mat_eq, xs, slnlab.recover_x(module(), a)))),
                ("weight_criterion",
                 "diagonalizable Cartan action iff all fiber matrices are equal",
                 True, lambda: slnlab.is_weight_module(module()) == equal_fibers),
            ])
    for seed in seeds:
        rng = random.Random(seed + 17)
        a = slnlab.random_parameters(3, rng, extension_safe=True)
        dim = rng.randint(1, 2)
        xs = slnlab.random_commuting_nilpotents(3, dim, rng)

        def reconstruct():
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
    def probe():
        probe = Report("probe", {"seed": 0})
        checks_dimensions(probe, [2])
        return probe.to_json()

    report.run(
        "report_determinism",
        "identical inputs serialize to identical reports",
        True,
        lambda: probe() == probe(),
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
    _run_rows(report, "", [
        ("dimension", "quotient dimension within the bound", alg.dim, lambda: alg.dim),
        ("associative", "structure constants are associative", None, alg.check_associativity),
        ("unital", "the idempotent sum is a two-sided unit", True, alg.check_identity),
        ("center_dim", "dimension of the center",
         len(fam.center_basis(alg)), lambda: len(fam.center_basis(alg))),
        ("symmetric", "existence of a symmetrizing form",
         True, lambda: fam.symmetric_form(alg) is not None),
    ])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _families(report: Report, args):
    checks_dimensions(report, [args.k])
    if args.k >= 2:
        checks_hom_table(report, [args.k])
        checks_structure(report, [args.k])
        checks_bhat(report, [args.k], args.bound)


def _hochschild(report: Report, args):
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


def _deform(report: Report, args):
    checks_deform(report, [args.k], args.order, args.params, args.seed)
    checks_psi(report, [args.k], args.order)


def _verify_all(report: Report, args):
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
    checks_slnlab(report, [2, 3, 4], args.radius, 3, seeds)
    checks_determinism(report)


def _json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def _emit_family(args) -> str:
    alg = fam.make_a(args.k)
    return _json(defo.extend_order_by_order(alg, mu_cocycle(alg), args.order).family_table())


def _emit_table(args) -> str:
    view = koszul.view_from_graded_quotient(fam.make_bhat(args.k, "all_one"))
    return _json(koszul.koszulity_certificate(view, args.hom_degree, args.max_degree))


def _dump_module(args) -> str:
    rng = random.Random(args.seed)
    a = slnlab.random_parameters(args.n, rng, extension_safe=True)
    xs = slnlab.random_commuting_nilpotents(args.n, args.fiber, rng)
    return _json(slnlab.module_dump(slnlab.build_f(args.n, a, xs, args.radius)))


class Command(NamedTuple):
    help: str  # the subcommand's line in --help
    defaults: dict  # each int argument -> its default; the report echoes them
    bounds: Callable  # args -> [(argument, least value)]
    battery: Callable  # (report, args) -> None
    flag: str | None = None  # the argument that selects the side output
    flag_help: str | None = None
    emit: Callable | None = None  # args -> the side output's text


COMMANDS = {
    "families": Command(
        "line algebra constructions and structure; --bound is the degree bound for centrality/flatness",
        {"k": 3, "bound": 6},
        # central_B* checks the monomials of degree <= bound - 2, so below bound
        # 2 it tests nothing (phi_B* and flat_dims_B* start at 0); B(k) needs k >= 2
        lambda args: [("k", 2 if args.family == "bhat" else 1), ("bound", 2)],
        _families,
        "emit_presentation",
        "print the presentation JSON",
        lambda args: getattr(fam, args.family + "_presentation")(args.k).to_json(),
    ),
    "hochschild": Command(
        "Hochschild cohomology and the cocycle",
        {"k": 2, "max_degree": 3},
        lambda args: [("k", 1), ("max_degree", 0)],
        _hochschild,
    ),
    "deform": Command(
        "star products and extensions",
        {"k": 2, "order": 4, "params": 3, "seed": DEFAULT_SEED},
        lambda args: [("k", 2), ("order", 1), ("params", 1)],
        _deform,
        "emit_family",
        "print the star-product family table",
        _emit_family,
    ),
    "koszul": Command(
        "linearity of minimal resolutions",
        {"k": 2, "hom_degree": 3, "max_degree": 5},
        # A(k) fails linearity first at homological degree k, internal degree
        # k + 1, so not_koszul_A3 needs 3 steps and a budget of 4
        lambda args: [("k", 2), ("hom_degree", 3), ("max_degree", max(4, args.hom_degree))],
        lambda report, args: checks_koszul(report, [args.k], args.hom_degree, args.max_degree),
        "emit_table",
        "print the syzygy degree tables",
        _emit_table,
    ),
    "slnlab": Command(
        "lattice modules and the extension solver",
        {"n": 3, "radius": 3, "fiber": 3, "seed": DEFAULT_SEED},
        # radius 0 has no block to read the Casimir or the fiber matrices
        # from, and at radius 1 the extension solver solves no block
        lambda args: [("n", 2), ("radius", 2), ("fiber", 1)],
        lambda report, args: checks_slnlab(report, [args.n], args.radius, args.fiber, [args.seed]),
        "dump",
        "print the module's block listing",
        _dump_module,
    ),
    "verify-all": Command(
        "the full battery at the documented ranges",
        {"seed": DEFAULT_SEED, "radius": 3, "slnlab_seeds": 5},
        # the lattice battery fixes n = 2..4 and fiber 3; no seed would run
        # none of it, and it needs radius 2 as slnlab does
        lambda args: [("radius", 2), ("slnlab_seeds", 1)],
        _verify_all,
    ),
}


def _argument_errors(args, bounds):
    """The (argument, least value) bounds that args break, as text."""
    return [
        "%s = %d is below %d" % (name, getattr(args, name), low)
        for name, low in bounds
        if getattr(args, name) < low
    ]


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
    for name, command in COMMANDS.items():
        parser = sub.add_parser(name, help=command.help, description=command.help, parents=[common])
        for arg, default in command.defaults.items():
            parser.add_argument("--" + arg.replace("_", "-"), type=int, default=default, help="default: %(default)s")
        if command.flag:
            parser.add_argument("--" + command.flag.replace("_", "-"), action="store_true", help=command.flag_help)
        if name == "families":
            parser.add_argument("--presentation", help="verify a user presentation file instead")
            parser.add_argument("--family", choices=["a", "atilde", "bhat"], default="a", help="default: %(default)s")
    return p


def _report(args) -> Report:
    return Report(args.command, {name: getattr(args, name) for name in COMMANDS[args.command].defaults})


def run_command(args) -> Report:
    command = COMMANDS[args.command]
    report = _report(args)
    if args.command == "families" and args.presentation:
        report.params["presentation"] = args.presentation
        checks_presentation_file(report, args.presentation, args.bound)
        return report
    bounds = command.bounds(args)
    errors = _argument_errors(args, bounds)
    if errors:
        need = ", ".join("%s >= %d" % bound for bound in bounds)
        report.run("arguments", "size arguments need " + need, [], lambda: errors)
    else:
        command.battery(report, args)
    return report


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not args.output:
        return _run(args, sys.stdout)
    # an --output that cannot be written is a bad argument, refused before any check runs
    try:
        out = open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        print("quivdef: cannot write --output %s: %s" % (args.output, exc.strerror or exc), file=sys.stderr)
        return 2
    with out:
        return _run(args, out)


def _run(args, out) -> int:
    """Run the command of args and print its report, or its side output, to out."""
    command = COMMANDS[args.command]
    report = None
    if command.flag and getattr(args, command.flag) and not _argument_errors(args, command.bounds(args)):
        try:
            text = command.emit(args)
        except Exception as exc:  # a refused side output is one failing check
            report = _report(args)
            anchor = "the side output is printed in place of the report"
            report.checks.append(Check(command.flag, anchor, "fail", None, error_text(exc)))
    else:
        report = run_command(args)
    if report is not None:
        text = report.to_json(with_timings=args.timings)
    print(text, file=out)
    return 0 if report is None or report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
