"""Full per-table analysis: probabilities, classification, intervals, fit."""
from __future__ import annotations

from .context_model import FitResult, fit_params
from .corpus import CountTable, ProbabilityTriple, _check_marginals, _Record, probabilities
from .interference import (
    ExtensionClass,
    InterferenceInterval,
    _side,
    classify_extension,
    interference_interval,
)


class AnalysisReport(_Record):
    """Everything the pipeline derives from one count table."""

    def __init__(
        self, table: CountTable, triple: ProbabilityTriple, extension: ExtensionClass,
        interference: InterferenceInterval, interference_only_feasible: bool,
        context_only_feasible: bool, fit: FitResult,
    ) -> None:
        report = self.__dict__
        report["table"] = table
        report["triple"] = triple
        report["extension"] = extension
        report["interference"] = interference
        report["interference_only_feasible"] = interference_only_feasible
        report["context_only_feasible"] = context_only_feasible
        report["fit"] = fit

    def as_dict(self) -> dict:
        return {
            "table": self.table.as_dict(),
            "triple": self.triple.as_dict(),
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
        context_only_feasible=_side(triple.mu_a, triple.mu_b, observed) == 0,
        fit=fit_params(triple.mu_a, triple.mu_b, observed),
    )


def fits_interference_only(table: CountTable) -> bool:
    """Whether the observed n_abx/n_ab is attainable by phases alone: ``interference_only_feasible``."""
    _check_marginals(table, "n_ab")
    observed = table.n_abx / table.n_ab
    return interference_interval(table).contains(observed)
