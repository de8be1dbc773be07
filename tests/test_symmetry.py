"""The model's exact symmetries, held without the vector oracle.

* swap a and b: the report does not change, and a free fit swaps p_a and p_b;
* complement x (x-pages and the pages without x trade places): the interval
  [lo, hi] becomes [1 - hi, 1 - lo], and over- and under-extension swap;
* scale every count by k: the ratios, and every decision made from them, stay
  the same;
* corpus: reordering the documents changes no cell, and doubling every
  document doubles every cell.

Swapping and scaling leave every ratio, and the report's arithmetic, the same
to the bit, so those tests compare bitwise.  The complement rounds 1 - mu
differently from mu, so its interval is held within COMPLEMENT_ULPS units in
the last place of 1, divided by the endpoint's normalization 1 +- d / r: the
interval's own cancellation near a singular table.

Random tables almost never come near a tie, so the swap and scale tests also
draw near ties on purpose: n_abx is the multiple of 1 / n_ab closest to mu_a,
or a step or two beside it.  The complement fails on some of those, because
the report decides from rounded ratios with an absolute window; those draws
are kept below as strict xfails.
"""
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qocc.context_model import fit_params
from qocc.corpus import Corpus, CountTable, Document, count_corpus, probabilities
from qocc.errors import QoccError
from qocc.interference import ExtensionClass, _side, classify_extension, interference_interval
from qocc.report import build_report

COUNT_MAX = 2**53
COMPLEMENT_ULPS = 8
MIRRORED = {
    ExtensionClass.DOUBLE_OVEREXTENSION: ExtensionClass.DOUBLE_UNDEREXTENSION,
    ExtensionClass.DOUBLE_UNDEREXTENSION: ExtensionClass.DOUBLE_OVEREXTENSION,
    ExtensionClass.SINGLE_EXTENSION: ExtensionClass.SINGLE_EXTENSION,
    ExtensionClass.BOUNDARY: ExtensionClass.BOUNDARY,
}
ROUNDED_DECISIONS = "the report decides near ties from rounded ratios and a 1e-12 window"


@st.composite
def tables(draw, top=COUNT_MAX):
    n_a, n_b = draw(st.integers(1, top)), draw(st.integers(1, top))
    n_ab = draw(st.integers(0, min(n_a, n_b)))
    n_ax, n_bx, n_abx = draw(st.integers(0, n_a)), draw(st.integers(0, n_b)), draw(st.integers(0, n_ab))
    return CountTable(n_a, n_b, n_ab, n_ax, n_bx, n_abx)


@st.composite
def near_ties(draw, top=COUNT_MAX):
    """A table whose n_abx / n_ab is the ratio over n_ab closest to mu_a, or up to two steps off."""
    n_ab = draw(st.integers(1, top))
    n_a, n_b = draw(st.integers(n_ab, top)), draw(st.integers(n_ab, top))
    n_ax, n_bx = draw(st.integers(0, n_a)), draw(st.integers(0, n_b))
    n_abx = min(n_ab, max(0, n_ax * n_ab // n_a + draw(st.integers(-2, 2))))
    return CountTable(n_a, n_b, n_ab, n_ax, n_bx, n_abx)


@st.composite
def fit_inputs(draw):
    """(mu_a, mu_b, target), the target often on mu_a or mu_b or up to four ulps beside it."""
    measurements = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    mu_a, mu_b = draw(measurements), draw(measurements)
    target = draw(st.floats(0.0, 1.0) | st.sampled_from((mu_a, mu_b)))
    steps = draw(st.integers(-4, 4))
    for _ in range(abs(steps)):
        target = math.nextafter(target, math.copysign(math.inf, steps))
    return mu_a, mu_b, target


def any_table(top=COUNT_MAX):
    return tables(top) | near_ties(top)


def outcome(call, *args):
    """call(*args), or the class of the QoccError it raised."""
    try:
        return call(*args)
    except QoccError as exc:
        return type(exc)


def swapped(table):
    return CountTable(table.n_b, table.n_a, table.n_ab, table.n_bx, table.n_ax, table.n_abx)


def complemented(table):
    return CountTable(
        table.n_a, table.n_b, table.n_ab,
        table.n_a - table.n_ax, table.n_b - table.n_bx, table.n_ab - table.n_abx,
    )


def check_complement(table):
    """The complement mirrors the interval, the extension and the order of mu_ab."""
    mirror = complemented(table)
    interval = outcome(interference_interval, table)
    mirror_interval = outcome(interference_interval, mirror)
    if isinstance(interval, type):
        assert mirror_interval is interval
        return
    d_over_r = (table.n_abx - table.n_abx_prime) / math.sqrt(table.n_a * table.n_b)
    bound = COMPLEMENT_ULPS * 2.0**-52
    assert abs(mirror_interval.lo - (1.0 - interval.hi)) * (1.0 + d_over_r) <= bound
    assert abs(mirror_interval.hi - (1.0 - interval.lo)) * (1.0 - d_over_r) <= bound
    triple, mirror_triple = outcome(probabilities, table), outcome(probabilities, mirror)
    if isinstance(triple, type):
        assert mirror_triple is triple
        return
    ratios = (triple.mu_a, triple.mu_b, triple.mu_ab_observed)
    mirror_ratios = (mirror_triple.mu_a, mirror_triple.mu_b, mirror_triple.mu_ab_observed)
    assert classify_extension(*mirror_ratios) is MIRRORED[classify_extension(*ratios)]
    assert _side(*mirror_ratios) == -_side(*ratios)


class TestSwapAAndB:
    @given(any_table())
    @example(CountTable(56414649, 152373648, 56414647, 56414646, 152373645, 0))
    @example(CountTable(137438953472, 92791014687, 3, 137438953471, 92791014684, 0))
    @settings(max_examples=300, deadline=None)
    def test_report_is_unchanged_and_the_fit_swaps_its_weights(self, table):
        """Bitwise; the two examples failed the fit on one side before the weights took one division."""
        report, mirror = outcome(build_report, table), outcome(build_report, swapped(table))
        if isinstance(report, type):
            assert mirror is report
            return
        assert (mirror.triple.mu_a, mirror.triple.mu_b) == (report.triple.mu_b, report.triple.mu_a)
        assert mirror.extension is report.extension
        assert repr(mirror.interference) == repr(report.interference)
        assert mirror.interference_only_feasible == report.interference_only_feasible
        assert mirror.context_only_feasible == report.context_only_feasible
        fit = report.fit.as_dict()
        fit["p_a"], fit["p_b"] = fit["p_b"], fit["p_a"]
        assert repr(mirror.fit.as_dict()) == repr(fit)

    @given(fit_inputs())
    @example((0.3591653468453745, 0.03716517443590994, 0.4875291757124154))
    @settings(max_examples=500, deadline=None)
    def test_free_fit_swaps_its_weights(self, inputs):
        """Bitwise, also with the target on mu_a or mu_b or a few ulps beside it."""
        mu_a, mu_b, target = inputs
        fit, mirror = outcome(fit_params, mu_a, mu_b, target), outcome(fit_params, mu_b, mu_a, target)
        if isinstance(fit, type):
            assert mirror is fit
            return
        expected = fit.as_dict()
        expected["p_a"], expected["p_b"] = expected["p_b"], expected["p_a"]
        assert repr(mirror.as_dict()) == repr(expected)


class TestComplementX:
    @given(tables())
    @settings(max_examples=300, deadline=None)
    def test_interval_and_extension_mirror(self, table):
        check_complement(table)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=ROUNDED_DECISIONS)
    @pytest.mark.parametrize("table", [
        # mu_ab - mu_a rounds to just under 1e-12 (boundary), its complement to just over (under)
        CountTable(1000000714030, 1000000714030, 1000000714030, 459298089017, 435865641456, 459298089018),
        # mu_ab rounds one ulp above mu_a (context-only no), 1 - mu_ab and 1 - mu_a to one double (yes)
        CountTable(
            174030429754422, 277741429741504, 146748609500009, 80544271415790, 95686669224952, 67917776506888,
        ),
    ], ids=["window-edge", "rounded-tie"])
    def test_near_ties_that_break_the_mirror(self, table):
        check_complement(table)


class TestScaleCounts:
    @given(st.integers(2, 12345).flatmap(lambda k: st.tuples(st.just(k), any_table(COUNT_MAX // k))))
    @settings(max_examples=300, deadline=None)
    def test_ratios_and_decisions_are_bitwise_equal(self, k_and_table):
        k, table = k_and_table
        scaled = CountTable(*(k * n for n in (
            table.n_a, table.n_b, table.n_ab, table.n_ax, table.n_bx, table.n_abx,
        )))
        assert repr(outcome(probabilities, scaled)) == repr(outcome(probabilities, table))
        report, mirror = outcome(build_report, table), outcome(build_report, scaled)
        if isinstance(report, type):
            assert mirror is report
            return
        assert mirror.extension is report.extension
        assert mirror.interference_only_feasible == report.interference_only_feasible
        assert mirror.context_only_feasible == report.context_only_feasible
        assert repr(mirror.fit) == repr(report.fit)


class TestCorpus:
    @given(
        st.lists(st.lists(st.sampled_from("abxy"), max_size=5), max_size=20).flatmap(
            lambda docs: st.tuples(st.just(docs), st.permutations(range(len(docs))))
        ),
        st.tuples(*[st.sampled_from("abxy")] * 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_reordering_changes_no_cell_and_doubling_doubles_each(self, docs_and_order, probe):
        docs, order = docs_and_order
        documents = [Document(str(i), tokens) for i, tokens in enumerate(docs)]
        cells = count_corpus(Corpus(documents), *probe).as_dict()
        reordered = Corpus(documents[i] for i in order)
        assert count_corpus(reordered, *probe).as_dict() == cells
        doubled = Corpus(doc for doc in documents for _ in range(2))
        assert count_corpus(doubled, *probe).as_dict() == {name: 2 * n for name, n in cells.items()}
