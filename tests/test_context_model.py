"""Six-parameter combined model: evaluation, intervals, and fitting."""
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qocc.context_model import (
    FitStrategy,
    ModelParams,
    context_interval,
    fit_params,
    fit_params_constrained,
    mu_ab_convex,
    mu_ab_cosines,
    mu_ab_full,
)
from qocc.errors import DegenerateDenominator, InvalidInput, UnreachableTarget
from qocc.fixtures import CONTEXT_EXAMPLES
from qocc.hilbert import SubsetProjector, characteristic_state, identity_projector, mu_combined
from qocc.interference import ExtensionClass, classify_extension

from conftest import extract_model_params, random_web, superposition_is_degenerate


def random_setting(rng):
    return (
        float(rng.uniform(0.01, 0.99)),  # mu_a
        float(rng.uniform(0.01, 0.99)),  # mu_b
        float(rng.uniform(0.05, 1.0)),   # p_a
        float(rng.uniform(0.05, 1.0)),   # p_b
        float(rng.uniform(0.0, 1.0)),    # c
        float(rng.uniform(0.0, 1.0)),    # c_prime
    )


class TestModelParams:
    def test_angles_are_normalized(self):
        params = ModelParams(1.0, 1.0, 0.5, 0.5, -math.pi, 5.0 * math.pi)
        assert params.phi == pytest.approx(math.pi)
        assert params.phi_prime == pytest.approx(math.pi)

    def test_rejects_zero_weight(self):
        with pytest.raises(InvalidInput):
            ModelParams(0.0, 1.0, 0.5, 0.5, 0.0, 0.0)

    def test_rejects_modulus_above_one(self):
        with pytest.raises(InvalidInput):
            ModelParams(1.0, 1.0, 1.5, 0.5, 0.0, 0.0)


class TestMuAbFull:
    def test_symmetric_convex_combination_is_the_common_value(self):
        params = ModelParams(0.7, 0.7, 0.0, 0.0, 1.0, 2.0)
        assert mu_ab_full(0.4, 0.4, params) == pytest.approx(0.4, abs=1e-15)

    def test_right_angle_phases_reduce_to_convex_combination(self, rng):
        for _ in range(500):
            mu_a, mu_b, p_a, p_b, c, c_prime = random_setting(rng)
            via_cosines = mu_ab_cosines(mu_a, mu_b, p_a, p_b, c, c_prime, 0.0, 0.0)
            assert via_cosines == mu_ab_convex(mu_a, mu_b, p_a, p_b)
            params = ModelParams(p_a, p_b, c, c_prime, math.pi / 2.0, math.pi / 2.0)
            assert mu_ab_full(mu_a, mu_b, params) == pytest.approx(
                mu_ab_convex(mu_a, mu_b, p_a, p_b), abs=1e-14
            )

    def test_zero_moduli_reduce_to_convex_combination_exactly(self, rng):
        for _ in range(100):
            mu_a, mu_b, p_a, p_b, _, _ = random_setting(rng)
            phi, phi_prime = rng.uniform(0.0, 2.0 * math.pi, size=2)
            params = ModelParams(p_a, p_b, 0.0, 0.0, float(phi), float(phi_prime))
            assert mu_ab_full(mu_a, mu_b, params) == mu_ab_convex(mu_a, mu_b, p_a, p_b)

    def test_olive_pinned_parameters(self):
        # p_a = p_b = c = c' = 0.5 brackets the olive observation
        lo = mu_ab_cosines(5.22e-2, 2.13e-1, 0.5, 0.5, 0.5, 0.5, -1.0, 1.0)
        hi = mu_ab_cosines(5.22e-2, 2.13e-1, 0.5, 0.5, 0.5, 0.5, 1.0, -1.0)
        assert lo == pytest.approx(5.78e-2, rel=1e-2)
        assert hi == pytest.approx(2.98e-1, rel=1e-2)

    def test_weight_scale_invariance(self, rng):
        for _ in range(200):
            mu_a, mu_b, p_a, p_b, c, c_prime = random_setting(rng)
            x, x_prime = rng.uniform(-1.0, 1.0, size=2)
            lam = float(rng.uniform(0.05, 1.0))
            full = mu_ab_cosines(mu_a, mu_b, p_a, p_b, c, c_prime, float(x), float(x_prime))
            scaled = mu_ab_cosines(
                mu_a, mu_b, lam * p_a, lam * p_b, c, c_prime, float(x), float(x_prime)
            )
            assert scaled == pytest.approx(full, abs=1e-12)

    def test_degenerate_denominator_raises(self):
        with pytest.raises(DegenerateDenominator):
            mu_ab_cosines(0.5, 0.5, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0)

    def test_shared_support_phase_shifts_realize_unit_moduli(self, rng):
        # both words on the same pages, second state phase-shifted by theta1
        # on the measured pages and theta2 elsewhere: the overlap moduli are
        # exactly 1 and the phases are exactly the shifts
        for _ in range(50):
            dim = int(rng.integers(3, 10))
            j = frozenset(int(i) for i in rng.choice(dim, size=dim - 1, replace=False))
            j_x = frozenset(int(i) for i in rng.choice(sorted(j), size=max(1, len(j) // 2), replace=False))
            if not (j - j_x):
                continue
            theta_1 = float(rng.uniform(0.1, 2.5))
            theta_2 = float(rng.uniform(0.1, 2.5))
            alphas = {i: float(rng.uniform(0.0, 2.0 * math.pi)) for i in j}
            betas = {i: alphas[i] + (theta_1 if i in j_x else theta_2) for i in j}
            psi_a = characteristic_state(dim, j, alphas)
            psi_b = characteristic_state(dim, j, betas)
            m = SubsetProjector(dim, j_x)
            mu = len(j_x) / len(j)
            closed_form = mu_ab_cosines(
                mu, mu, 1.0, 1.0, 1.0, 1.0, math.cos(theta_1), math.cos(theta_2)
            )
            direct = mu_combined(psi_a, psi_b, identity_projector(dim), m)
            assert closed_form == pytest.approx(direct, abs=1e-10)

    def test_matches_vector_computation_with_extracted_parameters(self, rng):
        # read the six parameters off explicit states, then compare the
        # closed-form value with the brute-force one
        checked = 0
        while checked < 200:
            web = random_web(rng)
            if superposition_is_degenerate(web):
                continue
            n_proj = SubsetProjector(
                web.dim,
                {int(j) for j in rng.choice(web.dim, size=int(rng.integers(1, web.dim + 1)), replace=False)},
            )
            try:
                mu_a, mu_b, params = extract_model_params(
                    web.state_a, web.state_b, n_proj, web.word_projector
                )
                direct = mu_combined(web.state_a, web.state_b, n_proj, web.word_projector)
            except ValueError:
                continue
            closed_form = mu_ab_full(mu_a, mu_b, params)
            assert closed_form == pytest.approx(direct, abs=1e-10)
            checked += 1


NAN = float("nan")


@pytest.mark.parametrize(
    "evaluator, args, message",
    [
        (mu_ab_cosines, (0.5, 0.5, -0.1, 0.5, 0.5, 0.5, 0.0, 0.0), "p_a=-0.1 must be in (0, 1]"),
        (mu_ab_cosines, (0.5, 0.5, 0.5, 0.5, NAN, 0.5, 0.0, 0.0), "c=nan must be in [0, 1]"),
        (mu_ab_cosines, (0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 3.0, 0.0), "x=3.0 is outside [-1, 1]"),
        (mu_ab_cosines, (0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.0, NAN), "x_prime=nan is outside [-1, 1]"),
        (mu_ab_full, (0.5, 0.5, ModelParams(1.0, 1.0, 0.5, 0.5, NAN, 0.0)), "x=nan is outside [-1, 1]"),
        (mu_ab_convex, (0.5, 0.2, -1.0, 2.0), "p_a=-1.0 must be in (0, 1]"),
        (mu_ab_convex, (0.2, 0.8, 1.0, 0.0), "p_b=0.0 must be in (0, 1]"),
    ],
)
def test_evaluators_reject_arguments_outside_their_domains(evaluator, args, message):
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        evaluator(*args)


class TestContextInterval:
    @pytest.mark.parametrize("example", CONTEXT_EXAMPLES, ids=lambda e: e.name)
    def test_reported_pinned_parameter_intervals(self, example):
        from qocc.corpus import probabilities
        from qocc.fixtures import exemplar_table

        triple = probabilities(exemplar_table(example.name))
        interval = context_interval(
            triple.mu_a, triple.mu_b, example.p_a, example.p_b, example.c, example.c_prime
        )
        assert interval.lo == pytest.approx(example.reported_lo, rel=1e-2)
        assert interval.hi == pytest.approx(example.reported_hi, rel=1e-2)
        observed = triple.mu_ab_observed
        assert interval.contains(observed)

    def test_zero_moduli_collapse_the_interval(self):
        interval = context_interval(0.2, 0.8, 0.3, 0.7, 0.0, 0.0)
        expected = mu_ab_convex(0.2, 0.8, 0.3, 0.7)
        assert interval.lo == interval.hi == pytest.approx(expected, abs=1e-15)

    def test_interval_orders_correctly(self, rng):
        for _ in range(200):
            mu_a, mu_b, p_a, p_b, c, c_prime = random_setting(rng)
            interval = context_interval(mu_a, mu_b, p_a, p_b, c, c_prime)
            assert interval.lo <= interval.hi

    @pytest.mark.parametrize(
        "p_a, p_b, c, c_prime",
        [(-1.0, 1.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0), (1.0, 1.0, 2.0, 1.0),
         (1.0, 1.0, 1.0, -0.5), (float("nan"), 1.0, 1.0, 1.0)],
    )
    def test_rejects_weights_and_moduli_outside_their_domains(self, p_a, p_b, c, c_prime):
        with pytest.raises(InvalidInput):
            context_interval(0.5, 0.5, p_a, p_b, c, c_prime)
        with pytest.raises(InvalidInput):
            fit_params_constrained(0.3, 0.4, 0.35, p_a, p_b, c, c_prime)


class TestMonotonicity:
    def test_non_increasing_in_x_prime_and_non_decreasing_in_x(self, rng):
        grid = np.linspace(-1.0, 1.0, 201)
        for _ in range(100):
            mu_a, mu_b, p_a, p_b, c, c_prime = random_setting(rng)
            for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
                values = [
                    mu_ab_cosines(mu_a, mu_b, p_a, p_b, c, c_prime, x, float(xp))
                    for xp in grid
                ]
                diffs = np.diff(values)
                assert diffs.max() <= 1e-12
            for x_prime in (-1.0, 1.0):
                values = [
                    mu_ab_cosines(mu_a, mu_b, p_a, p_b, c, c_prime, float(x), x_prime)
                    for x in grid
                ]
                diffs = np.diff(values)
                assert diffs.min() >= -1e-12


# measurements strictly inside (0, 1), kept 1e-6 from the ends: at 1e-12 from
# an end the phase round trip alone loses the 1e-9 residual in float64
MEASUREMENTS = st.floats(1e-6, 1.0 - 1e-6)
WEIGHTS = st.floats(1e-3, 1.0)
MODULI = st.floats(0.0, 1.0)
EDGE_MODULI = st.sampled_from((0.0, 1e-9, 0.5, 1.0))


class TestMuAbConvex:
    def test_equal_weights(self):
        assert mu_ab_convex(0.2, 0.8, 1.0, 1.0) == pytest.approx(0.5)

    def test_full_weight_on_a(self):
        # weights lie in (0, 1], so "all on a" is the limit of a vanishing p_b
        assert mu_ab_convex(0.2, 0.8, 1.0, 1e-12) == pytest.approx(0.2)

    def test_zero_weights_raise(self):
        # weights inside their domain whose sum still meets DENOMINATOR_TOL
        with pytest.raises(DegenerateDenominator):
            mu_ab_convex(0.2, 0.8, 1e-13, 1e-13)


class TestFitParams:
    def test_midpoint_needs_no_interference(self):
        result = fit_params(0.3, 0.5, 0.4)
        assert result.strategy is FitStrategy.CONVEX_NO_INTERFERENCE
        assert result.params.p_a == pytest.approx(result.params.p_b)
        assert result.residual <= 1e-15

    def test_zero_target_uses_the_closed_form(self):
        result = fit_params(0.0522, 0.213, 0.0)
        assert result.strategy is FitStrategy.UNDEREXTENSION_BRANCH
        assert result.params.c == 1.0
        assert math.cos(result.params.phi) == pytest.approx(-1.0)
        ratio = result.params.p_a / result.params.p_b
        assert ratio == pytest.approx(0.213 / 0.0522, rel=1e-12)
        assert result.residual <= 1e-12

    def test_one_target_uses_the_closed_form(self):
        result = fit_params(0.3, 0.6, 1.0)
        assert result.strategy is FitStrategy.OVEREXTENSION_BRANCH
        assert result.params.c_prime == 1.0
        assert math.cos(result.params.phi_prime) == pytest.approx(-1.0)
        ratio = result.params.p_a / result.params.p_b
        assert ratio == pytest.approx(0.4 / 0.7, rel=1e-12)
        assert result.residual <= 1e-12

    def test_equal_measurements_and_target(self):
        result = fit_params(0.3, 0.3, 0.3)
        assert result.strategy is FitStrategy.CONVEX_NO_INTERFERENCE
        assert result.residual == 0.0

    @pytest.mark.parametrize("mu_a, mu_b", [(0.0522, 0.213), (0.6, 0.3), (0.3, 0.3), (0.999, 0.001)])
    @pytest.mark.parametrize("target", [0.0, -0.0, 1.0])
    def test_unit_targets_sit_exactly_at_phase_pi(self, mu_a, mu_b, target):
        result = fit_params(mu_a, mu_b, target)
        params = result.params
        assert (params.c, params.c_prime) == (1.0, 1.0)
        if target == 1.0:
            assert result.strategy is FitStrategy.OVEREXTENSION_BRANCH
            assert (params.phi, params.phi_prime) == (math.pi / 2.0, math.pi)
        else:
            assert result.strategy is FitStrategy.UNDEREXTENSION_BRANCH
            assert (params.phi, params.phi_prime) == (math.pi, math.pi / 2.0)
        assert repr(fit_params(mu_a, mu_b, -0.0)) == repr(fit_params(mu_a, mu_b, 0.0))

    @pytest.mark.parametrize("mu_a, mu_b", [(0.3, 0.5), (0.5, 0.3), (0.0522, 0.213)])
    def test_target_at_an_unequal_measurement_takes_that_side_branch(self, mu_a, mu_b):
        low, high = min(mu_a, mu_b), max(mu_a, mu_b)
        assert fit_params(mu_a, mu_b, low).strategy is FitStrategy.UNDEREXTENSION_BRANCH
        assert fit_params(mu_a, mu_b, high).strategy is FitStrategy.OVEREXTENSION_BRANCH

    @pytest.mark.parametrize("mu", [1e-12, 0.0522, 0.3, 0.5, 1.0 - 1e-12])
    def test_equal_measurements_and_target_need_nothing_but_equal_weights(self, mu):
        result = fit_params(mu, mu, mu)
        assert result.strategy is FitStrategy.CONVEX_NO_INTERFERENCE
        assert result.params == ModelParams(1.0, 1.0, 0.0, 0.0, math.pi / 2.0, math.pi / 2.0)
        assert (result.params.phi, result.params.phi_prime) == (math.pi / 2.0, math.pi / 2.0)

    def test_overextension_branch(self):
        result = fit_params(0.0901, 0.110, 0.255)
        assert result.strategy is FitStrategy.OVEREXTENSION_BRANCH
        assert result.residual <= 1e-9

    def test_underextension_branch(self):
        result = fit_params(0.4, 0.5, 0.05)
        assert result.strategy is FitStrategy.UNDEREXTENSION_BRANCH
        assert result.residual <= 1e-9

    def test_boundary_targets_are_solvable(self):
        for target in (0.3, 0.5):
            result = fit_params(0.3, 0.5, target)
            assert result.residual <= 1e-9

    def test_weights_are_normalized(self, rng):
        for _ in range(100):
            mu_a = float(rng.uniform(0.01, 0.99))
            mu_b = float(rng.uniform(0.01, 0.99))
            target = float(rng.uniform(0.001, 0.999))
            result = fit_params(mu_a, mu_b, target)
            assert max(result.params.p_a, result.params.p_b) == pytest.approx(1.0)

    def test_residuals_on_random_triples(self, rng):
        for _ in range(300):
            mu_a = float(rng.uniform(0.01, 0.99))
            mu_b = float(rng.uniform(0.01, 0.99))
            target = float(rng.uniform(0.0, 1.0))
            result = fit_params(mu_a, mu_b, target)
            assert result.residual <= 1e-9

    def test_target_grid_coverage(self, rng):
        # every target on a fine grid is reachable for random measurements
        for _ in range(10):
            mu_a = float(rng.uniform(0.01, 0.99))
            mu_b = float(rng.uniform(0.01, 0.99))
            for target in np.linspace(0.01, 0.99, 99):
                result = fit_params(mu_a, mu_b, float(target))
                assert result.residual <= 1e-9

    def test_rejects_degenerate_measurements(self):
        with pytest.raises(InvalidInput):
            fit_params(0.0, 0.5, 0.3)
        with pytest.raises(InvalidInput):
            fit_params(0.5, 1.0, 0.3)

    def test_rejects_target_outside_unit_interval(self):
        with pytest.raises(InvalidInput):
            fit_params(0.3, 0.5, 1.2)

    @given(
        mus=st.one_of(st.tuples(MEASUREMENTS, MEASUREMENTS), MEASUREMENTS.map(lambda mu: (mu, mu))),
        choice=st.one_of(
            st.sampled_from(("mu_a", "mu_b", 0.0, 1.0, 1e-9, 1.0 - 1e-9)), st.floats(0.0, 1.0)
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_edge_measurements_and_targets(self, mus, choice):
        mu_a, mu_b = mus
        target = {"mu_a": mu_a, "mu_b": mu_b}.get(choice, choice)
        result = fit_params(mu_a, mu_b, target)
        assert result.residual <= 1e-9
        assert max(result.params.p_a, result.params.p_b) == 1.0

    def test_strategy_agrees_with_extension_class(self, rng):
        for _ in range(200):
            mu_a = float(rng.uniform(0.01, 0.99))
            mu_b = float(rng.uniform(0.01, 0.99))
            target = float(rng.uniform(0.001, 0.999))
            result = fit_params(mu_a, mu_b, target)
            extension = classify_extension(mu_a, mu_b, target)
            if extension is ExtensionClass.DOUBLE_OVEREXTENSION:
                assert result.strategy is FitStrategy.OVEREXTENSION_BRANCH
            elif extension is ExtensionClass.DOUBLE_UNDEREXTENSION:
                assert result.strategy is FitStrategy.UNDEREXTENSION_BRANCH
            elif extension is ExtensionClass.SINGLE_EXTENSION:
                assert result.strategy is FitStrategy.CONVEX_NO_INTERFERENCE


class TestFitParamsConstrained:
    def test_reaches_target_inside_the_pinned_interval(self):
        result = fit_params_constrained(0.0522, 0.213, 0.29, 0.5, 0.5, 0.5, 0.5)
        assert result.residual <= 1e-9
        assert result.params.c == 0.5

    def test_unreachable_target_raises(self):
        # the pinned interval for these parameters tops out below 0.9
        with pytest.raises(UnreachableTarget):
            fit_params_constrained(0.0522, 0.213, 0.9, 0.5, 0.5, 0.5, 0.5)

    def test_random_targets_inside_pinned_intervals(self, rng):
        for _ in range(100):
            mu_a, mu_b, p_a, p_b, c, c_prime = random_setting(rng)
            interval = context_interval(mu_a, mu_b, p_a, p_b, c, c_prime)
            target = float(rng.uniform(interval.lo, interval.hi))
            result = fit_params_constrained(mu_a, mu_b, target, p_a, p_b, c, c_prime)
            assert result.residual <= 1e-9
            assert (result.params.p_a, result.params.p_b) == (p_a, p_b)

    @given(
        setting=st.one_of(
            # equal measurements and weights with moduli at their edges, where
            # the normalization can vanish off the solve's path
            st.tuples(MEASUREMENTS, WEIGHTS, EDGE_MODULI, EDGE_MODULI).map(
                lambda s: (s[0], s[0], s[1], s[1], s[2], s[3])
            ),
            st.tuples(MEASUREMENTS, MEASUREMENTS, WEIGHTS, WEIGHTS, MODULI, MODULI),
        ),
        position=st.one_of(st.sampled_from(("lo", "hi")), st.floats(0.0, 1.0)),
    )
    @example(setting=(0.3, 0.3, 1.0, 1.0, 1.0, 1.0), position=0.3)
    @settings(max_examples=400, deadline=None)
    def test_pinned_solve_reaches_every_target_in_the_interval(self, setting, position):
        mu_a, mu_b, p_a, p_b, c, c_prime = setting
        interval = context_interval(mu_a, mu_b, p_a, p_b, c, c_prime)
        if position == "lo":
            target = interval.lo
        elif position == "hi":
            target = interval.hi
        else:
            target = min(interval.hi, interval.lo + position * (interval.hi - interval.lo))
        result = fit_params_constrained(mu_a, mu_b, target, p_a, p_b, c, c_prime)
        assert result.residual <= 1e-9
        params = result.params
        assert (params.p_a, params.p_b, params.c, params.c_prime) == (p_a, p_b, c, c_prime)
        if target > max(mu_a, mu_b):
            assert result.strategy is FitStrategy.OVEREXTENSION_BRANCH
        elif target < min(mu_a, mu_b):
            assert result.strategy is FitStrategy.UNDEREXTENSION_BRANCH
        else:
            assert result.strategy is FitStrategy.CONVEX_NO_INTERFERENCE
