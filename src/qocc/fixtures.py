"""Bundled reference dataset: fruits/vegetables web page counts, late 2016.

Page-count ratios for the words "fruits" (a) and "vegetables" (b) against
eight probe words x, measured with a public web search engine in November
2016.  Totals: 3.78e8 pages for a, 3.57e8 for b, 1.15e8 for both.  Each row
records the occurrence ratios mu_a = n_ax/n_a, mu_b = n_bx/n_b, the observed
combined ratio n_abx/n_ab, and the interference-interval endpoints reported
when the dataset was collected.

Two caveats ship with the data and are asserted in the test suite rather
than patched over:

  * the reported interval endpoints are not all reproducible from the count
    ratios in the same rows (most deviate well beyond three-significant-
    figure rounding), so they are kept verbatim as ``reported_lo/hi`` and
    recomputation is the source of truth everywhere else;
  * the olive row is classically impossible as a set of document counts
    (its three-word count exceeds its a-and-x count), which search-engine
    totals are known to do.  The count tables keep such rows representable.
"""
from __future__ import annotations

from .corpus import CountTable, _Record, table_from_ratios

TOTAL_A = 378_000_000
TOTAL_B = 357_000_000
TOTAL_AB = 115_000_000


class ExemplarRow(_Record):
    """One probe word: measured ratios plus reported interval endpoints."""

    def __init__(
        self, name: str, mu_a: float, mu_b: float, mu_ab: float, reported_lo: float, reported_hi: float
    ) -> None:
        row = self.__dict__
        row["name"] = name
        row["mu_a"] = mu_a
        row["mu_b"] = mu_b
        row["mu_ab"] = mu_ab
        row["reported_lo"] = reported_lo
        row["reported_hi"] = reported_hi


ROWS: tuple[ExemplarRow, ...] = (
    ExemplarRow("apple",      1.66e-1, 2.36e-1, 2.71e-1, 1.02e-1, 3.34e-1),
    ExemplarRow("parsley",    1.21e-2, 4.52e-2, 3.19e-2, 1.31e-2, 5.95e-2),
    ExemplarRow("yam",        2.88e-3, 3.48e-3, 4.76e-3, 1.15e-3, 7.30e-3),
    ExemplarRow("elderberry", 2.16e-3, 3.95e-3, 4.57e-3, 1.25e-3, 6.49e-3),
    ExemplarRow("olive",      5.22e-2, 2.13e-1, 2.90e-1, 6.56e-2, 2.12e-1),
    ExemplarRow("raisin",     3.49e-2, 3.83e-2, 1.04e-1, 1.45e-3, 9.69e-2),
    ExemplarRow("almond",     9.01e-2, 1.10e-1, 2.55e-1, 6.21e-3, 2.35e-1),
    ExemplarRow("lentils",    1.42e-2, 1.69e-2, 4.39e-2, 1.38e-3, 4.10e-2),
)

EXEMPLAR_NAMES: tuple[str, ...] = tuple(row.name for row in ROWS)

# probe words whose observed combined ratio was reported to fall inside the
# recomputed interference interval (first four rows) or outside (last four)
INTERFERENCE_FEASIBLE: frozenset[str] = frozenset({"apple", "parsley", "yam", "elderberry"})


class ContextExample(_Record):
    """A pinned-parameter interval reported alongside the dataset."""

    def __init__(
        self, name: str, p_a: float, p_b: float, c: float, c_prime: float,
        reported_lo: float, reported_hi: float,
    ) -> None:
        example = self.__dict__
        example["name"] = name
        example["p_a"] = p_a
        example["p_b"] = p_b
        example["c"] = c
        example["c_prime"] = c_prime
        example["reported_lo"] = reported_lo
        example["reported_hi"] = reported_hi


CONTEXT_EXAMPLES: tuple[ContextExample, ...] = (
    ContextExample("olive",   0.5, 0.5, 0.5, 0.5, 5.78e-2, 2.98e-1),
    ContextExample("raisin",  0.2, 0.8, 0.3, 0.8, 1.79e-2, 1.18e-1),
    ContextExample("almond",  0.5, 0.5, 0.6, 0.6, 2.73e-2, 3.08e-1),
    ContextExample("lentils", 0.5, 0.5, 0.5, 0.5, 5.25e-3, 4.52e-2),
)


def exemplar_table(name: str) -> CountTable:
    """CountTable for one probe word, reconstructed from ratios and totals."""
    for row in ROWS:
        if row.name == name:
            return table_from_ratios(TOTAL_A, TOTAL_B, TOTAL_AB, row.mu_a, row.mu_b, row.mu_ab)
    raise KeyError(f"unknown exemplar {name!r}; choose from {EXEMPLAR_NAMES}")


def all_tables() -> dict[str, CountTable]:
    return {row.name: exemplar_table(row.name) for row in ROWS}
