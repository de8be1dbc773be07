"""Phase-parametrized combined probability, its admissible interval, taxonomy."""
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qocc.context_model import context_interval, mu_ab_cosines
from qocc.corpus import CountTable
from qocc.errors import DegenerateDenominator, InvalidInput, ZeroDenominator
from qocc.fixtures import INTERFERENCE_FEASIBLE, ROWS, exemplar_table
from qocc.hilbert import identity_projector, mu_combined
from qocc.interference import (
    ExtensionClass,
    PhaseAssignment,
    classify_extension,
    fits_interference_only,
    interference_interval,
    mu_ab_interference,
    mu_ab_interference_sums,
)

from conftest import random_web, superposition_is_degenerate

# Interval endpoints recomputed from the bundled dataset's integer counts
# with 40-digit arithmetic, frozen here as an independent numerical oracle.
# Most deviate from the endpoints recorded with the dataset (see fixtures).
RECOMPUTED_INTERVALS = {
    "apple":      (0.10159598818098514, 0.33367978283743695),
    "parsley":    (0.014433451431059382, 0.054654558358265899),
    "yam":        (0.0012899038641375424, 0.0067690207489474989),
    "elderberry": (0.0012397788451403339, 0.0065027513913179969),
    "olive":      (0.036955628704235333, 0.25720298955002324),
    "raisin":     (0.003239336383609598, 0.091957185707097243),
    "almond":     (0.017532133521150089, 0.21247064611850077),
    "lentils":    (0.0014055857068793718, 0.041001776661399053),
}


def right_angles(table: CountTable) -> PhaseAssignment:
    return PhaseAssignment(
        deltas_x=(math.pi / 2.0,) * table.n_abx,
        deltas_x_prime=(math.pi / 2.0,) * table.n_abx_prime,
    )


def extremal_phases(table: CountTable, top: bool) -> PhaseAssignment:
    aligned, opposed = (0.0, math.pi) if top else (math.pi, 0.0)
    return PhaseAssignment(
        deltas_x=(aligned,) * table.n_abx,
        deltas_x_prime=(opposed,) * table.n_abx_prime,
    )


class TestMuAbInterference:
    def test_right_angle_phases_leave_the_plain_average(self):
        table = CountTable(n_a=10, n_b=20, n_ab=5, n_ax=4, n_bx=6, n_abx=2)
        value = mu_ab_interference(table, right_angles(table))
        assert value == pytest.approx(0.5 * (4 / 10 + 6 / 20), abs=1e-12)

    def test_apple_fully_aligned_reaches_the_maximum(self):
        # aligned x-pages, opposed x'-pages: cosine sums +n_abx and -n_abx';
        # explicit per-page lists are impractical at 3e7 pages, which is what
        # the aggregate entry point is for
        table = exemplar_table("apple")
        value = mu_ab_interference_sums(table, float(table.n_abx), -float(table.n_abx_prime))
        assert value == pytest.approx(3.34e-1, rel=5e-3)
        assert value == pytest.approx(interference_interval(table).hi, abs=1e-12)

    def test_sums_entry_point_agrees_with_phase_lists(self, rng):
        for _ in range(100):
            web = random_web(rng)
            table = web.count_table()
            if table.n_a == 0 or table.n_b == 0:
                continue
            phases = web.phase_assignment()
            k_x = sum(math.cos(d) for d in phases.deltas_x)
            k_xp = sum(math.cos(d) for d in phases.deltas_x_prime)
            try:
                from_lists = mu_ab_interference(table, phases)
            except DegenerateDenominator:
                continue
            assert from_lists == pytest.approx(
                mu_ab_interference_sums(table, k_x, k_xp), abs=1e-14
            )

    def test_agrees_with_vector_computation_on_synthetic_webs(self, rng):
        checked = 0
        while checked < 200:
            web = random_web(rng)
            if superposition_is_degenerate(web):
                continue
            table = web.count_table()
            try:
                aggregate = mu_ab_interference(table, web.phase_assignment())
            except DegenerateDenominator:
                continue
            direct = mu_combined(
                web.state_a, web.state_b, identity_projector(web.dim), web.word_projector
            )
            assert aggregate == pytest.approx(direct, abs=1e-10)
            checked += 1

    def test_rejects_wrong_phase_list_lengths(self):
        table = CountTable(n_a=10, n_b=10, n_ab=4, n_ax=4, n_bx=4, n_abx=2)
        with pytest.raises(InvalidInput):
            mu_ab_interference(table, PhaseAssignment(deltas_x=(0.0,), deltas_x_prime=()))
        message = "need 2 phase differences for the abx' pages, got 3"
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            mu_ab_interference(table, PhaseAssignment(deltas_x=(0.0, 0.0), deltas_x_prime=(0.0,) * 3))

    def test_rejects_cosine_sum_outside_range(self):
        table = CountTable(n_a=10, n_b=10, n_ab=4, n_ax=4, n_bx=4, n_abx=2)
        with pytest.raises(InvalidInput):
            mu_ab_interference_sums(table, 3.0, 0.0)
        with pytest.raises(InvalidInput, match=re.escape("k_x_prime=-3.0 outside [-n_abx', n_abx']")):
            mu_ab_interference_sums(table, 0.0, -3.0)

    def test_degenerate_normalization_raises(self):
        # a == b page-for-page with fully opposed phases cancels the state sum
        table = CountTable(n_a=4, n_b=4, n_ab=4, n_ax=2, n_bx=2, n_abx=2)
        phases = PhaseAssignment(
            deltas_x=(math.pi,) * 2, deltas_x_prime=(math.pi,) * 2
        )
        with pytest.raises(DegenerateDenominator):
            mu_ab_interference(table, phases)


class TestInterferenceInterval:
    @pytest.mark.parametrize("name", [row.name for row in ROWS])
    def test_matches_high_precision_recomputation(self, name):
        interval = interference_interval(exemplar_table(name))
        lo, hi = RECOMPUTED_INTERVALS[name]
        assert interval.lo == pytest.approx(lo, rel=1e-12)
        assert interval.hi == pytest.approx(hi, rel=1e-12)

    def test_extremal_phase_assignments_attain_the_endpoints(self, rng):
        for _ in range(100):
            web = random_web(rng)
            table = web.count_table()
            if table.n_a == 0 or table.n_b == 0:
                continue
            try:
                interval = interference_interval(table)
            except DegenerateDenominator:
                continue
            top = mu_ab_interference(table, extremal_phases(table, top=True))
            bottom = mu_ab_interference(table, extremal_phases(table, top=False))
            assert top == pytest.approx(interval.raw_hi, abs=1e-12)
            assert bottom == pytest.approx(interval.raw_lo, abs=1e-12)

    def test_random_phases_stay_inside(self, rng):
        tables = 0
        while tables < 20:
            web = random_web(rng)
            table = web.count_table()
            if table.n_a == 0 or table.n_b == 0:
                continue
            try:
                interval = interference_interval(table)
            except DegenerateDenominator:
                continue
            tables += 1
            for _ in range(1000):
                k_x = float(rng.uniform(-table.n_abx, table.n_abx)) if table.n_abx else 0.0
                k_xp = (
                    float(rng.uniform(-table.n_abx_prime, table.n_abx_prime))
                    if table.n_abx_prime
                    else 0.0
                )
                try:
                    value = mu_ab_interference_sums(table, k_x, k_xp)
                except DegenerateDenominator:
                    continue
                assert interval.raw_lo - 1e-10 <= value <= interval.raw_hi + 1e-10

    def test_identical_words_span_the_whole_unit_interval(self):
        # a == b: the minimum hits 0 and the maximum hits 1 exactly
        table = CountTable(n_a=1000, n_b=1000, n_ab=1000, n_ax=300, n_bx=300, n_abx=300)
        interval = interference_interval(table)
        assert interval.lo == pytest.approx(0.0, abs=1e-15)
        assert interval.hi == pytest.approx(1.0, abs=1e-15)
        observed_ratio = table.n_ax / table.n_a
        assert interval.contains(observed_ratio)
        # sweep: aligned-x phases with a grid of x' cosine sums never escape
        for k_xp in range(-700, 701, 70):
            value = mu_ab_interference_sums(table, 300.0, float(k_xp))
            assert -1e-12 <= value <= 1.0 + 1e-12

    def test_saturated_identical_words_are_singular(self):
        table = CountTable(n_a=100, n_b=100, n_ab=100, n_ax=40, n_bx=40, n_abx=100)
        with pytest.raises(DegenerateDenominator):
            interference_interval(table)

    def test_requires_positive_totals(self):
        table = CountTable(n_a=0, n_b=10, n_ab=0, n_ax=0, n_bx=5, n_abx=0)
        with pytest.raises(DegenerateDenominator):
            interference_interval(table)


@st.composite
def count_tables(draw):
    """Tables up to the 2**53 count bound, with equal marginals and zeros often."""
    bound = draw(st.sampled_from([6, 1000, 2**53]))
    n_a = draw(st.integers(0, bound))
    n_b = draw(st.just(n_a) | st.integers(0, bound))
    n_ab = draw(st.integers(0, min(n_a, n_b)))
    return CountTable(
        n_a, n_b, n_ab,
        draw(st.integers(0, n_a)), draw(st.integers(0, n_b)), draw(st.integers(0, n_ab)),
    )


def outcomes(fn, *argument_sets):
    """fn's value for each argument set, None where it raises DegenerateDenominator."""
    values = []
    for args in argument_sets:
        try:
            values.append(fn(*args))
        except DegenerateDenominator:
            values.append(None)
    return values


UNIT = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 1e-12, 1.0 - 1e-12])
WEIGHT = st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from([1.0, 1e-12, 0.0293])


class TestOneModelRatio:
    """Both intervals are the model evaluated at its extreme phases, to the bit."""

    @given(table=count_tables())
    @example(table=CountTable(n_a=10, n_b=10, n_ab=10, n_ax=10, n_bx=10, n_abx=10))
    @example(table=CountTable(n_a=0, n_b=10, n_ab=0, n_ax=0, n_bx=5, n_abx=0))
    @settings(max_examples=500, deadline=None)
    def test_interference_endpoints_are_the_sums_at_the_extreme_phases(self, table):
        n, n_prime = table.n_abx, table.n_abx_prime
        sums = outcomes(mu_ab_interference_sums, (table, -n, n_prime), (table, n, -n_prime))
        try:
            interval = interference_interval(table)
        except DegenerateDenominator:
            assert None in sums
        else:
            assert [interval.raw_lo, interval.raw_hi] == sums

    @given(mu_a=UNIT, mu_b=UNIT, p_a=WEIGHT, p_b=WEIGHT, c=UNIT, c_prime=UNIT)
    @example(mu_a=1.0, mu_b=1.0, p_a=1.0, p_b=1.0, c=1.0, c_prime=1.0)
    @example(mu_a=0.0, mu_b=0.0, p_a=1.0, p_b=1.0, c=1.0, c_prime=1.0)
    @example(mu_a=1e-12, mu_b=1e-12, p_a=0.0293, p_b=0.0293, c=1.0, c_prime=1.0)
    @settings(max_examples=500, deadline=None)
    def test_context_endpoints_are_the_model_at_the_extreme_cosines(
        self, mu_a, mu_b, p_a, p_b, c, c_prime
    ):
        params = (mu_a, mu_b, p_a, p_b, c, c_prime)
        values = outcomes(mu_ab_cosines, (*params, -1.0, 1.0), (*params, 1.0, -1.0))
        try:
            interval = context_interval(*params)
        except DegenerateDenominator:
            assert None in values
        else:
            assert [interval.raw_lo, interval.raw_hi] == values


class TestFitsInterferenceOnly:
    @pytest.mark.parametrize("name", [row.name for row in ROWS])
    def test_dataset_feasibility_split(self, name):
        assert fits_interference_only(exemplar_table(name)) == (name in INTERFERENCE_FEASIBLE)

    def test_saturated_observed_ratio_needs_unit_average(self):
        # n_abx == n_ab forces observed 1.0, unreachable unless the plain
        # average itself is 1
        table = CountTable(n_a=10, n_b=10, n_ab=4, n_ax=5, n_bx=5, n_abx=4)
        assert not fits_interference_only(table)

    def test_zero_n_ab_raises(self):
        table = CountTable(n_a=10, n_b=10, n_ab=0, n_ax=5, n_bx=5, n_abx=0)
        with pytest.raises(ZeroDenominator):
            fits_interference_only(table)


class TestClassifyExtension:
    def test_apple_is_double_overextension(self):
        assert classify_extension(0.166, 0.236, 0.271) is ExtensionClass.DOUBLE_OVEREXTENSION

    def test_parsley_is_single_extension(self):
        assert classify_extension(0.0121, 0.0452, 0.0319) is ExtensionClass.SINGLE_EXTENSION

    def test_equal_values_are_boundary(self):
        assert classify_extension(0.3, 0.3, 0.3) is ExtensionClass.BOUNDARY

    def test_double_underextension(self):
        assert classify_extension(0.4, 0.5, 0.1) is ExtensionClass.DOUBLE_UNDEREXTENSION

    def test_boundary_tolerance_is_tight(self):
        assert classify_extension(0.3, 0.5, 0.3 + 5e-13) is ExtensionClass.BOUNDARY
        assert classify_extension(0.3, 0.5, 0.3 + 5e-12) is ExtensionClass.SINGLE_EXTENSION

    def test_rejects_values_outside_unit_interval(self):
        with pytest.raises(InvalidInput):
            classify_extension(1.2, 0.5, 0.5)
