"""Exact symbolic computation in generalized Weyl Poisson algebras.

The package builds Poisson algebras D[X, Y; a, p} over rational polynomial
base rings, multiplies and brackets elements in graded normal form, computes
truncated centres, evaluates a three-part Poisson simplicity criterion, and
checks filtered quantizations against their predicted graded brackets.
"""

from .centre import (
    CentreComponent,
    ClosureReport,
    CriterionVerdict,
    centre_component,
    constants_basis,
    field_criterion,
    poisson_ideal_closure,
)
from .engine import (
    GWPAData,
    GWPAElement,
    OreRealization,
    TensorProduct,
    ValidationReport,
    Violation,
    apply_sI,
    from_ore_data,
    gwpa_bracket,
    gwpa_mul,
    render_element,
    tensor_product,
    torus_apply,
    validate_gwpa,
)
from .errors import (
    AlgebraMismatchError,
    AmbientMismatchError,
    BracketMatrixError,
    GwpaError,
    JacobiViolationError,
    ParseError,
    SpecError,
    ValidationFailure,
)
from .gallery import gr_heisenberg, gr_usl2, p2n, univariate_family
from .parser import parse_element, parse_polynomial
from .poisson import (
    BaseDerivation,
    BasePoissonAlgebra,
    JacobiReport,
    derivations_commute,
    is_poisson_derivation,
    jacobi_check,
)
from .poly import (
    NEG_INF,
    Polynomial,
    PolyRing,
    divides,
    exact_divide,
    render_polynomial,
    univariate_gcd,
)
from .quant import (
    AffineSubstitution,
    GWAData,
    GWAElement,
    GrReport,
    gr_correspondence_check,
    predicted_gwpa,
    usl2_gwa,
    weyl_gwa,
)
from .simplicity import SimplicityReport, simplicity_check
from .specfile import (
    AlgebraSpec,
    parse_algebra_spec,
    render_algebra_spec,
    spec_from_gwa,
    spec_from_gwpa,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSubstitution",
    "AlgebraMismatchError",
    "AlgebraSpec",
    "AmbientMismatchError",
    "BaseDerivation",
    "BasePoissonAlgebra",
    "BracketMatrixError",
    "CentreComponent",
    "ClosureReport",
    "CriterionVerdict",
    "GWAData",
    "GWAElement",
    "GWPAData",
    "GWPAElement",
    "GrReport",
    "GwpaError",
    "JacobiReport",
    "JacobiViolationError",
    "NEG_INF",
    "OreRealization",
    "ParseError",
    "PolyRing",
    "Polynomial",
    "SimplicityReport",
    "SpecError",
    "TensorProduct",
    "ValidationFailure",
    "ValidationReport",
    "Violation",
    "apply_sI",
    "centre_component",
    "constants_basis",
    "derivations_commute",
    "divides",
    "exact_divide",
    "field_criterion",
    "from_ore_data",
    "gr_correspondence_check",
    "gr_heisenberg",
    "gr_usl2",
    "gwpa_bracket",
    "gwpa_mul",
    "is_poisson_derivation",
    "jacobi_check",
    "p2n",
    "parse_algebra_spec",
    "parse_element",
    "parse_polynomial",
    "poisson_ideal_closure",
    "predicted_gwpa",
    "render_algebra_spec",
    "render_element",
    "render_polynomial",
    "simplicity_check",
    "spec_from_gwa",
    "spec_from_gwpa",
    "tensor_product",
    "torus_apply",
    "univariate_family",
    "univariate_gcd",
    "usl2_gwa",
    "validate_gwpa",
    "weyl_gwa",
]
