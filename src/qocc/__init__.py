"""Occurrence and co-occurrence probabilities with interference and context models.

The package turns document counts for two words a, b and a probe word x into
the probabilities mu_a, mu_b and the observed combined ratio, computes the
interval of combined probabilities reachable by phase interference alone,
and fits a six-parameter context-plus-interference model to any observed
value.  A brute-force complex-vector oracle backs every aggregate formula;
it needs numpy and is imported on its own, as ``qocc.hilbert``.
"""

from .context_model import (
    FitResult,
    FitStrategy,
    ModelParams,
    context_interval,
    fit_params,
    fit_params_constrained,
    mu_ab_convex,
    mu_ab_cosines,
    mu_ab_full,
)
from .corpus import (
    CountTable,
    Document,
    ProbabilityTriple,
    ThreeTermCounts,
    TokenizerConfig,
    count_corpus,
    document_from_text,
    load_corpus,
    marginals,
    probabilities,
    table_from_ratios,
    tokenize,
)
from .errors import (
    DegenerateDenominator,
    InconsistentRatios,
    InvalidCounts,
    InvalidInput,
    QoccError,
    UnreachableTarget,
    ZeroDenominator,
)
from .interference import (
    ExtensionClass,
    InterferenceInterval,
    PhaseAssignment,
    classify_extension,
    fits_interference_only,
    interference_interval,
    mu_ab_interference,
    mu_ab_interference_sums,
)
from .report import AnalysisReport, build_report

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CountTable",
    "DegenerateDenominator",
    "Document",
    "ExtensionClass",
    "FitResult",
    "FitStrategy",
    "InconsistentRatios",
    "InterferenceInterval",
    "InvalidCounts",
    "InvalidInput",
    "ModelParams",
    "PhaseAssignment",
    "ProbabilityTriple",
    "QoccError",
    "ThreeTermCounts",
    "TokenizerConfig",
    "UnreachableTarget",
    "ZeroDenominator",
    "build_report",
    "classify_extension",
    "context_interval",
    "count_corpus",
    "document_from_text",
    "fit_params",
    "fit_params_constrained",
    "fits_interference_only",
    "interference_interval",
    "load_corpus",
    "marginals",
    "mu_ab_convex",
    "mu_ab_cosines",
    "mu_ab_full",
    "mu_ab_interference",
    "mu_ab_interference_sums",
    "probabilities",
    "table_from_ratios",
    "tokenize",
]
