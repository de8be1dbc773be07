"""Full per-table analysis: probabilities, classification, intervals, fit."""
from __future__ import annotations

from dataclasses import dataclass

from .context_model import FitResult, fit_params
from .corpus import CountTable, ProbabilityTriple, probabilities
from .interference import (
    ExtensionClass,
    InterferenceInterval,
    classify_extension,
    fits_interference_only,  # noqa: F401  bench/spans.py wraps this binding
    interference_interval,
)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the pipeline derives from one count table."""

    table: CountTable
    triple: ProbabilityTriple
    extension: ExtensionClass
    interference: InterferenceInterval
    interference_only_feasible: bool
    context_only_feasible: bool
    fit: FitResult

    def as_dict(self) -> dict:
        return {
            "table": self.table.as_dict(),
            "triple": self.triple.__dict__.copy(),
            "extension": self.extension.value,
            "interference": self.interference.as_dict(),
            "interference_only_feasible": self.interference_only_feasible,
            "context_only_feasible": self.context_only_feasible,
            "fit": self.fit.as_dict(),
        }


def build_report(table: CountTable) -> AnalysisReport:
    """Run the whole pipeline on one table; the fit is always attempted."""
    triple = probabilities(table)
    interval = interference_interval(table)
    observed = triple.mu_ab_observed
    return AnalysisReport(
        table=table,
        triple=triple,
        extension=classify_extension(triple.mu_a, triple.mu_b, observed),
        interference=interval,
        interference_only_feasible=interval.contains(observed),
        context_only_feasible=(
            min(triple.mu_a, triple.mu_b) <= observed <= max(triple.mu_a, triple.mu_b)
        ),
        fit=fit_params(triple.mu_a, triple.mu_b, observed),
    )
