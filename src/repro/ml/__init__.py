"""From-scratch machine-learning substrate used by FADEWICH.

The paper relies on a small toolbox of standard techniques — Gaussian kernel
density estimation for the MD normal profile, an SVM for the RE classifier,
k-fold cross-validation for the evaluation and mutual-information feature
analysis for the appendix.  None of scikit-learn is available offline, so
this package reimplements each piece on numpy/scipy.

Public API
----------
- :class:`~repro.ml.kde.GaussianKDE`
- :class:`~repro.ml.svm.BinarySVC`, :class:`~repro.ml.multiclass.OneVsOneSVC`
- :class:`~repro.ml.kernels.LinearKernel`, :class:`~repro.ml.kernels.RBFKernel`,
  :class:`~repro.ml.kernels.PolynomialKernel`
- :class:`~repro.ml.scaling.StandardScaler`
- :class:`~repro.ml.metrics.DetectionCounts`, ``accuracy``
- ``stratified_kfold_indices``, ``learning_curve``
- ``relative_mutual_information``, ``rank_features_by_rmi``
- ``correlation_matrix``

The RE window statistics the SVM classifies (per-stream variance,
histogram entropy and autocorrelation) are features, not learners: they
live in :func:`repro.features.window.window_statistics`.
"""

from .correlation import CorrelationResult, correlation_matrix
from .kde import (
    GaussianKDE,
    mixture_quantiles,
    scott_bandwidth,
    silverman_bandwidth,
)
from .kernels import (
    Kernel,
    LinearKernel,
    PolynomialKernel,
    RBFKernel,
    make_kernel,
    scale_gamma,
)
from .metrics import (
    DetectionCounts,
    accuracy,
    f_measure,
    precision,
    recall,
)
from .multiclass import OneVsOneSVC
from .mutual_info import (
    FeatureImportance,
    conditional_entropy,
    marginal_entropy,
    quantize,
    rank_features_by_rmi,
    relative_mutual_information,
    stream_importance,
)
from .scaling import StandardScaler
from .svm import BinarySVC, SVMNotFittedError
from .validation import (
    LearningCurveResult,
    SVCFoldFitter,
    learning_curve,
    stratified_fold_assignments,
    stratified_kfold_indices,
)

__all__ = [
    "BinarySVC",
    "CorrelationResult",
    "DetectionCounts",
    "FeatureImportance",
    "GaussianKDE",
    "Kernel",
    "LearningCurveResult",
    "LinearKernel",
    "OneVsOneSVC",
    "PolynomialKernel",
    "RBFKernel",
    "SVCFoldFitter",
    "SVMNotFittedError",
    "StandardScaler",
    "accuracy",
    "conditional_entropy",
    "correlation_matrix",
    "f_measure",
    "learning_curve",
    "make_kernel",
    "marginal_entropy",
    "mixture_quantiles",
    "scale_gamma",
    "precision",
    "quantize",
    "rank_features_by_rmi",
    "recall",
    "relative_mutual_information",
    "scott_bandwidth",
    "silverman_bandwidth",
    "stratified_fold_assignments",
    "stratified_kfold_indices",
    "stream_importance",
]
