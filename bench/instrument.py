"""Outside-in tracing of quivdef for the traced benchmark pass.

`install(tracer)` replaces public functions and methods of the program's
modules with wrappers that open a span around each call.  Nothing under
src/ changes: functions are patched on their defining module and on every
module that bound them at import time (``from .linalg import solve``), and
methods are patched on their class.

Spans are folded into per-name aggregates as they close (calls, total
time, self time), which keeps memory bounded however many calls a
workload makes; the aggregates are written once, at the end of the
child.  A span's self time is its duration minus the time covered by the
spans it opened.  Several methods of one class may share a span name, so
that name's self time is the time spent in that class's code.

Counters are read from public return values and public accessors only,
so they are deterministic and repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import time
import weakref


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # time covered by child spans, one slot per open span
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = {}  # name -> int

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, fn, name, after=None):
        """Wrap fn in a span; after(result, args) runs once the span closed."""
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                covered = stack.pop()
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - covered
                if stack:
                    stack[-1] += dur
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counter(self, fn, name):
        """Wrap fn so that it only counts calls, for methods too hot to time."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in sorted(self.spans.items())},
            "counts": dict(sorted(self.counts.items())),
        }


def _class_functions(cls):
    return [k for k, v in vars(cls).items() if callable(v) and not isinstance(v, type)]


def install(tracer: Tracer):
    """Patch the program's layers; returns nothing, the tracer collects."""
    import quivdef
    from quivdef import (
        cli,
        deformation,
        families,
        hochschild,
        koszul,
        linalg,
        quiver,
        reports,
        slnlab,
    )

    modules = [quivdef, cli, deformation, families, hochschild, koszul, linalg, quiver, reports, slnlab]

    def rebind(orig, wrapped):
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapped)

    def function(module, attr, name, after=None):
        orig = getattr(module, attr)
        rebind(orig, tracer.span(orig, name, after))

    def method(cls, attr, name, after=None):
        setattr(cls, attr, tracer.span(vars(cls)[attr], name, after))

    # counters that hooks increment, present even when never reached
    for name in (
        "linalg.RowReducer.add.useful",
        "quiver.paths_enumerated",
        "quiver.basis_dim",
        "quiver.ideal_rank",
        "hochschild.coords",
        "koszul.generators",
        "slnlab.relations.checked",
        "slnlab.relations.skipped",
    ):
        tracer.add(name, 0)

    # linalg: elimination, solves and dense products
    def rowreducer_add(result, args):
        tracer.add("linalg.RowReducer.add.useful", result is not None)

    method(linalg.RowReducer, "add", "linalg.RowReducer.add", rowreducer_add)
    method(linalg.RowReducer, "reduce", "linalg.RowReducer.reduce")
    function(linalg, "solve", "linalg.solve")
    function(linalg, "nullspace", "linalg.nullspace")
    function(linalg, "mat_mul", "linalg.mat_mul")

    # quiver: graded components, central quotients, finite algebras
    seen_degrees = weakref.WeakKeyDictionary()
    paths_of_degree = quiver.GradedQuotient.paths_of_degree

    def component(result, args):
        gq, d = args[0], args[1]
        done = seen_degrees.setdefault(gq, set())
        if d in done:
            return
        done.add(d)
        npaths = len(paths_of_degree(gq, d))
        kept = len(result["basis"])  # gq.dim(d), without opening a span
        tracer.add("quiver.paths_enumerated", npaths)
        tracer.add("quiver.basis_dim", kept)
        tracer.add("quiver.ideal_rank", npaths - kept)

    for attr in _class_functions(quiver.GradedQuotient):
        method(
            quiver.GradedQuotient,
            attr,
            "quiver.GradedQuotient",
            component if attr == "_component" else None,
        )
    for attr in _class_functions(quiver.CentralQuotient):
        method(quiver.CentralQuotient, attr, "quiver.CentralQuotient")
    method(quiver.FiniteDimAlgebra, "__init__", "quiver.FiniteDimAlgebra.init")
    quiver.FiniteDimAlgebra.mul = tracer.counter(
        vars(quiver.FiniteDimAlgebra)["mul"], "quiver.FiniteDimAlgebra.mul.calls"
    )

    # families: every public function, as one layer
    for attr, value in list(vars(families).items()):
        if (
            not attr.startswith("_")
            and callable(value)
            and getattr(value, "__module__", None) == families.__name__
            and not isinstance(value, type)
        ):
            function(families, attr, "families")

    # hochschild: differentials, cochain coordinates, cocycle checks
    seen_coords = weakref.WeakKeyDictionary()

    def basis(result, args):
        cx, n = args[0], args[1]
        done = seen_coords.setdefault(cx, set())
        if n not in done:
            done.add(n)
            tracer.add("hochschild.coords", len(result))

    method(
        hochschild.HochschildComplex,
        "differential_columns",
        "hochschild.differential_columns",
    )
    method(hochschild.HochschildComplex, "basis", "hochschild.HochschildComplex.basis", basis)
    for attr in ("is_cocycle", "is_associative_cochain", "is_coboundary"):
        function(hochschild, attr, "hochschild.cocycle_checks")

    # deformation: associator, extension, map verification, star calls
    function(deformation, "check_associativity", "deformation.check_associativity")
    function(deformation, "extend_order_by_order", "deformation.extend_order_by_order")
    function(deformation, "verify_deformation_map", "deformation.verify_deformation_map")
    for attr in ("mu_pair", "mu_left", "mu_right"):
        setattr(
            deformation.StarProduct,
            attr,
            tracer.counter(vars(deformation.StarProduct)[attr], "deformation.StarProduct.mu_calls"),
        )

    # koszul: resolutions and their minimal generators
    def resolution(result, args):
        tracer.add("koszul.generators", sum(len(gens) for gens in result["steps"]))

    function(koszul, "minimal_resolution", "koszul.minimal_resolution", resolution)

    # slnlab: relation checks and module construction
    def relations(result, args):
        tracer.add("slnlab.relations.checked", result["checked"])
        tracer.add("slnlab.relations.skipped", result["skipped"])

    function(slnlab, "verify_relations", "slnlab.verify_relations", relations)
    function(slnlab, "build_f", "slnlab.build_f")
    function(slnlab, "recover_x", "slnlab.recover_x")
    function(slnlab, "reconstruct_extension", "slnlab.reconstruct_extension")

    # reports and the CLI
    method(reports.Report, "run", "reports.Report.run")
    method(reports.Report, "to_json", "reports.to_json")
    function(cli, "main", "cli.main")
