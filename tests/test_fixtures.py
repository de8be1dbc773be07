"""The bundled fruits/vegetables dataset round-trips and carries its caveats."""
import pytest

from qocc.corpus import probabilities
from qocc.fixtures import (
    CONTEXT_EXAMPLES,
    EXEMPLAR_NAMES,
    ROWS,
    TOTAL_A,
    TOTAL_AB,
    TOTAL_B,
    all_tables,
    exemplar_table,
)


def test_eight_exemplars():
    assert len(ROWS) == 8
    assert EXEMPLAR_NAMES == (
        "apple", "parsley", "yam", "elderberry", "olive", "raisin", "almond", "lentils",
    )


@pytest.mark.parametrize("row", ROWS, ids=lambda r: r.name)
def test_ratios_round_trip_to_three_significant_figures(row):
    triple = probabilities(exemplar_table(row.name))
    assert f"{triple.mu_a:.2e}" == f"{row.mu_a:.2e}"
    assert f"{triple.mu_b:.2e}" == f"{row.mu_b:.2e}"
    assert f"{triple.mu_ab_observed:.2e}" == f"{row.mu_ab:.2e}"


def test_totals_are_shared():
    for table in all_tables().values():
        assert (table.n_a, table.n_b, table.n_ab) == (TOTAL_A, TOTAL_B, TOTAL_AB)


def test_olive_counts_are_classically_impossible():
    # the dataset's own caveat: more pages with all three words than with
    # just "fruits" and the probe word
    olive = exemplar_table("olive")
    assert olive.n_abx > olive.n_ax
    assert not olive.classically_consistent


def test_all_other_rows_are_classically_consistent():
    for name, table in all_tables().items():
        if name != "olive":
            assert table.classically_consistent, name


def test_unknown_exemplar_raises():
    with pytest.raises(KeyError) as exc_info:
        exemplar_table("kumquat")
    assert exc_info.value.args == (f"unknown exemplar 'kumquat'; choose from {EXEMPLAR_NAMES}",)


def test_context_examples_cover_the_infeasible_rows():
    assert tuple(example.name for example in CONTEXT_EXAMPLES) == (
        "olive", "raisin", "almond", "lentils",
    )
