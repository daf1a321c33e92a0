"""Exact multilinear algebra over finite-dimensional diffeological vector
spaces with finitely generated diffeologies, plus a numeric smoothness
oracle that cross-checks every symbolic verdict."""

from .atoms import Atom, FunctionExpr, abs_mono, mono
from .bilinear import (
    BilinearForm,
    CurriedMap,
    curried_is_smooth,
    curry,
    form_from_flat,
    is_smooth_bilinear,
    smooth_bilinear_basis,
    uncurry,
)
from .exprparse import MAX_DEGREE, ParseError, format_expr, parse_expr
from .hom import (
    DualSpace,
    LinearMap,
    SmoothnessReport,
    WellPosednessReport,
    check_smooth_linear,
    diffeological_dual,
    dual_map,
    hat_dual,
    hat_dual_wellposed,
    identity_map,
    is_smooth_linear,
    represent_dual,
    smooth_hom_basis,
)
from .linalg import Matrix, Subspace, Vector, matrix, vector
from .oracle import (
    AgreementReport,
    Classification,
    classify,
    cross_validate,
)
from .spaces import (
    Coarse,
    DiffSpace,
    DiffeolinError,
    DimensionMismatchError,
    Fine,
    Generated,
    Plot,
    Pushforward,
    SumOf,
    TensorOf,
    Verdict,
    combine_verdicts,
    direct_sum,
    is_plot,
    kink_plot,
    make_coarse,
    make_fine,
    make_generated,
    presentation,
    row_plot,
    separating_functional,
    singular_span,
)
from .spacefile import SpaceFile, SpaceFileError, load_space_document, load_space_file
from .tensor import (
    EndoComparison,
    FunctionSpaceComparison,
    TensorDualIso,
    distribute,
    endo_remark_check,
    hat_f,
    hat_g,
    inverse_map,
    product_plot,
    tensor_dual_iso,
    tensor_of_maps,
    tensor_product,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
