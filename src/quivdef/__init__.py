"""Exact computations with quiver algebra deformations and lattice modules.

The package is organized in layers:

* linalg: exact rational linear algebra with one elimination path
  (RowReducer), the coefficient domain for everything else.
* quiver: quivers, paths, presentations, graded quotients of path
  algebras and finite dimensional algebras with structure constants.
* families: the line algebras A(k) (dimension 4k-2), their extensions,
  the loop-quiver algebras with a central degree-2 element, the
  projection between them, and the structural probes (Hom dimensions,
  symmetrizing forms, centers, radical filtrations).
* hochschild: idempotent-reduced Hochschild cochain complexes,
  cohomology dimensions, and the explicit nontrivial associative
  2-cocycle that generates all deformations here.
* deformation: truncated multi-parameter star products, order-by-order
  extension with obstruction reporting, and verification of explicit
  deformation isomorphisms.
* koszul: minimal graded free resolutions of simples and linearity
  certificates.
* slnlab: lattice realizations of cuspidal sl_n modules, Chevalley
  relation verification, fiber-matrix recovery, and the unique
  extension solver.
* cli, reports: the command line driver and canonical JSON reports.
"""

from .linalg import fmt_fraction, parse_fraction, rank_matrix, solve, nullspace
from .quiver import (
    Arrow,
    BoundTooSmall,
    CentralQuotient,
    FiniteDimAlgebra,
    GradedQuotient,
    Path,
    Quiver,
    QuiverPresentation,
    Relation,
    bounded_quotient,
    compose,
    trivial_path,
)
from .families import (
    center_basis,
    central_t,
    idempotent_cut,
    make_a,
    make_atilde,
    make_bhat,
    phi_report,
    projective_profile,
    psi_basis_images,
    symmetric_form,
)
from .hochschild import (
    HochschildComplex,
    graded_cocycle_degree,
    hh_dimensions,
    is_associative_cochain,
    is_coboundary,
    is_cocycle,
    mu_cocycle,
)
from .deformation import (
    Obstructed,
    StarProduct,
    check_associativity,
    deform_from_cocycle,
    extend_order_by_order,
    infinitesimal_class,
    verify_deformation_map,
    verify_psi,
)
from .koszul import (
    koszulity_certificate,
    minimal_resolution,
    view_from_algebra,
    view_from_graded_quotient,
)
from .slnlab import (
    LatticeModule,
    LatticeSupport,
    NoUniqueExtension,
    build_f,
    build_n,
    compare_modules,
    is_weight_module,
    reconstruct_extension,
    recover_x,
    verify_relations,
)

__version__ = "0.1.0"
