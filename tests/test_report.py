"""Report assembly over the bundled dataset and synthetic tables."""
import pytest

from qocc.context_model import FitStrategy
from qocc.corpus import CountTable
from qocc.errors import QoccError
from qocc.fixtures import exemplar_table
from qocc.interference import ExtensionClass
from qocc.report import build_report


@pytest.mark.parametrize("n_abx", [1, 3])
def test_context_only_feasible_includes_both_measurements(n_abx):
    # mu_a = 0.2 and mu_b = 0.6; the observed n_abx / 5 is exactly one of them
    report = build_report(CountTable(n_a=10, n_b=10, n_ab=5, n_ax=2, n_bx=6, n_abx=n_abx))
    assert report.triple.mu_ab_observed in (report.triple.mu_a, report.triple.mu_b)
    assert report.context_only_feasible


def test_apple_report():
    report = build_report(exemplar_table("apple"))
    assert report.interference_only_feasible
    assert not report.context_only_feasible
    assert report.extension is ExtensionClass.DOUBLE_OVEREXTENSION
    assert report.fit.residual <= 1e-9


def test_olive_report():
    report = build_report(exemplar_table("olive"))
    assert not report.interference_only_feasible
    assert not report.context_only_feasible
    assert report.fit.strategy is FitStrategy.OVEREXTENSION_BRANCH


def test_parsley_report():
    report = build_report(exemplar_table("parsley"))
    assert report.context_only_feasible
    assert report.interference_only_feasible
    assert report.extension is ExtensionClass.SINGLE_EXTENSION
    assert report.fit.strategy is FitStrategy.CONVEX_NO_INTERFERENCE


def test_raisin_observed_ratio_sits_above_both_marginals():
    report = build_report(exemplar_table("raisin"))
    assert report.triple.mu_ab_observed > max(report.triple.mu_a, report.triple.mu_b)
    assert not report.context_only_feasible
    assert report.extension is ExtensionClass.DOUBLE_OVEREXTENSION


def test_feasibility_matches_interval_membership():
    report = build_report(exemplar_table("yam"))
    observed = report.triple.mu_ab_observed
    assert report.interference_only_feasible == report.interference.contains(observed)


def test_report_as_dict_is_json_shaped():
    report = build_report(exemplar_table("lentils"))
    payload = report.as_dict()
    assert set(payload) == {
        "table", "triple", "extension", "interference",
        "interference_only_feasible", "context_only_feasible", "fit",
    }
    assert payload["fit"]["residual"] <= 1e-9
    assert isinstance(payload["extension"], str)


def test_degenerate_table_propagates_an_error():
    table = CountTable(n_a=5, n_b=5, n_ab=0, n_ax=1, n_bx=1, n_abx=0)
    with pytest.raises(QoccError):
        build_report(table)
