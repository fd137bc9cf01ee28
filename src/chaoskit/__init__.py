"""chaoskit: finite-dimensional Wiener chaos algebra and verification.

Dense symmetric tensor contractions over R^d, exact chaos-expansion
arithmetic (products, Malliavin derivatives, divergence, pointwise
Hermite evaluation), closed-form expected determinants of iterated
Malliavin matrices for a pair of multiple integrals, the covariance
determinant inequality, a density/degeneracy checker, and a reproducible
Monte Carlo layer.
"""

from .chaos import (
    ChaosExpansion,
    CoefficientCapError,
    HValuedChaos,
    derivative,
    divergence,
    evaluate,
    expectation,
    hermite,
    l2_inner,
    multiply,
)
from .malliavin import (
    DensityReport,
    DetBreakdown,
    InequalityResult,
    MalliavinPair,
    Verdict,
    cov_det,
    covariance_inequality,
    density_check,
    det_chaos,
    expected_det,
    expected_det_chaos,
    expected_det_closed_form,
    expected_dets,
    gram_chaos,
    random_pair,
    sum_of_squares_eval,
    t0_term,
    tr_term,
    tr_term_direct,
)
from .mc import (
    Estimate,
    estimate_expected_det,
    estimate_moment,
    sample_gaussian,
    sample_gaussian_block,
)
from .tensor import (
    Tensor,
    basis_tensor,
    contract,
    hat_contract,
    inner,
    is_symmetric,
    norm,
    random_symmetric,
    slice_tensor,
    symmetrize,
    tensor_product,
)

__version__ = "0.1.0"

__all__ = [
    "ChaosExpansion",
    "CoefficientCapError",
    "DensityReport",
    "DetBreakdown",
    "Estimate",
    "HValuedChaos",
    "InequalityResult",
    "MalliavinPair",
    "Tensor",
    "Verdict",
    "basis_tensor",
    "contract",
    "cov_det",
    "covariance_inequality",
    "density_check",
    "derivative",
    "det_chaos",
    "divergence",
    "estimate_expected_det",
    "estimate_moment",
    "evaluate",
    "expectation",
    "expected_det",
    "expected_det_chaos",
    "expected_det_closed_form",
    "expected_dets",
    "gram_chaos",
    "hat_contract",
    "hermite",
    "inner",
    "is_symmetric",
    "l2_inner",
    "multiply",
    "norm",
    "random_pair",
    "random_symmetric",
    "sample_gaussian",
    "sample_gaussian_block",
    "slice_tensor",
    "sum_of_squares_eval",
    "symmetrize",
    "t0_term",
    "tensor_product",
    "tr_term",
    "tr_term_direct",
    "__version__",
]
