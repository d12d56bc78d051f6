"""Composition operators with affine symbols on the Fock space.

The package studies C_phi f = f o phi for phi(z) = Az + B acting on the
Fock space over C^n with Gaussian weight exp(-|z|^2 / 2).  Closed-form
criteria (boundedness, compactness, norms, normality, Schatten class
membership, spectrum, cyclicity) live in :mod:`fockop.analysis`,
:mod:`fockop.spectrum` and :mod:`fockop.dynamics`; every one of them can
be cross-checked against exact finite truncations from
:mod:`fockop.truncation`.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    AdjointNotGradedError,
    FockopError,
    ForwardOrbitUnsupportedError,
    IdentityViolationError,
    InconsistentError,
    NonFiniteEntryError,
    NonSquareError,
    NormExceedsOneError,
    NotBoundedError,
    NotCompactError,
    NotDiagonalizableError,
    ParseError,
    QuadratureDivergenceError,
    ShapeMismatchError,
    SizeOverflowError,
    StructureViolationError,
)
from .exact import GaussianRational
from .polynomials import MultiPolynomial, graded_dim, graded_indices
from .symbol import (
    AffineSymbol,
    BlockSchurForm,
    adjoint_symbol,
    block_schur_form,
    block_schur_of_symbol,
    compose_symbols,
    eigenvalues,
    iterate_symbol,
)
from .analysis import (
    BoundednessVerdict,
    ClassificationReport,
    berezin_transform,
    berezin_transform_quadrature,
    check_bounded,
    check_compact,
    check_essentially_normal,
    check_hyponormal,
    check_normal,
    classify,
    essential_norm,
    hilbert_schmidt_norm_sq,
    hilbert_schmidt_norm_sq_closed_form,
    operator_norm,
    schatten_integrals,
    schatten_integrals_quadrature,
    schatten_membership,
    solve_z0,
)
from .spectrum import (
    EigenfunctionSpec,
    SpectrumEnumeration,
    construct_eigenfunction,
    eigenvalue_products,
    enumerate_spectrum,
    multiset_distance,
    verify_eigenfunction,
)
from .dynamics import (
    AngleSet,
    CyclicityVerdict,
    IndependenceVerdict,
    check_cyclic,
    check_supercyclic,
    kernel_orbit,
    orbit_density_experiment,
    rational_independence,
)
from .truncation import (
    GradedBasis,
    TruncatedOperator,
    build_adjoint_truncation,
    build_basis,
    build_truncation,
    dump_binary,
    dump_csv,
    exact_matrix_as_double,
    kernel_series_polynomial,
    load_binary,
    truncated_commutator_norm,
    truncated_norm,
    truncated_spectrum,
)

# the public names are those imported above, with the package's version;
# a submodule is bound here by its own import and is not one of them
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
