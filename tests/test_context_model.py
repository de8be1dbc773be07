"""Six-parameter combined model: evaluation, intervals, and fitting."""
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qocc.context_model import (
    RESIDUAL_BOUND,
    FitStrategy,
    ModelParams,
    _checked_fit,
    _coefficients,
    _mu,
    _solve_cosine,
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
from qocc.interference import DENOMINATOR_TOL, ExtensionClass, classify_extension

from conftest import EDGE_FLOATS, extract_model_params, random_web, same_float, superposition_is_degenerate


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

    @pytest.mark.parametrize("phase, stored", [
        (-1e-20, 0.0), (-5e-324, 0.0), (-1e-16, 0.0), (-4.5e-16, 6.283185307179585),
        (-0.0, 0.0), (2.0 * math.pi, 0.0),
    ])
    def test_angles_stay_below_two_pi(self, phase, stored):
        # phase % (2*pi) rounds a phase just below 0 up to 2*pi itself
        params = ModelParams(1.0, 1.0, 1.0, 1.0, phase, phase)
        assert 0.0 <= params.phi < 2.0 * math.pi
        assert params.phi == params.phi_prime == stored


class TestMuAbFull:
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
ONE_UP = math.nextafter(1.0, 2.0)


@pytest.mark.parametrize(
    "evaluator, args, message",
    [
        (mu_ab_cosines, (0.5, 0.5, -0.1, 0.5, 0.5, 0.5, 0.0, 0.0), "p_a=-0.1 must be in (0, 1]"),
        (mu_ab_cosines, (0.5, 0.5, 0.5, 0.5, NAN, 0.5, 0.0, 0.0), "c=nan must be in [0, 1]"),
        (mu_ab_cosines, (0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 3.0, 0.0), "x=3.0 is outside [-1, 1]"),
        (mu_ab_cosines, (0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.0, NAN), "x_prime=nan is outside [-1, 1]"),
        (ModelParams, (1.0, 1.0, 0.5, 0.5, NAN, 0.0), "phi=nan and phi_prime=0.0 must be finite"),
        (mu_ab_convex, (0.5, 0.2, -1.0, 2.0), "p_a=-1.0 must be in (0, 1]"),
        (mu_ab_convex, (0.2, 0.8, 1.0, 0.0), "p_b=0.0 must be in (0, 1]"),
        (ModelParams, (1.0, 1.0, 0.5, 0.5, 0.0, -math.inf), "phi=0.0 and phi_prime=-inf must be finite"),
        (mu_ab_cosines, (0.5, 0.5, ONE_UP, 0.5, 0.5, 0.5, 0.0, 0.0),
         "p_a=1.0000000000000002 must be in (0, 1]"),
        (mu_ab_cosines, (0.5, 0.5, 0.5, 0.5, 0.5, 0.5, ONE_UP, 0.0),
         "x=1.0000000000000002 is outside [-1, 1]"),
        (mu_ab_cosines, (0.5, 0.5, 0.5, 0.5, 0.5, ONE_UP, 0.0, 0.0),
         "c_prime=1.0000000000000002 must be in [0, 1]"),
        (mu_ab_cosines, (0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.0, -ONE_UP),
         "x_prime=-1.0000000000000002 is outside [-1, 1]"),
    ],
)
def test_evaluators_reject_arguments_outside_their_domains(evaluator, args, message):
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        evaluator(*args)


TINY = 1e-10  # inside (0, 1e-9): a check whose 0 moved up to 1e-9 would refuse it
ONE_DOWN = math.nextafter(1.0, 0.0)
UNIT = ((0.0, None), (1.0, None), (-5e-324, "is outside [0, 1]"), (ONE_UP, "is outside [0, 1]"))
WEIGHT = ((TINY, None), (1.0, None), (0.0, "must be in (0, 1]"), (ONE_UP, "must be in (0, 1]"))
MODULUS = ((0.0, None), (1.0, None), (-5e-324, "must be in [0, 1]"), (ONE_UP, "must be in [0, 1]"))
INSIDE = ((TINY, None), (ONE_DOWN, None), (0.0, "must be strictly inside (0, 1)"),
          (1.0, "must be strictly inside (0, 1)"))


def domain_cases(call, valid, names, domains):
    """(call, args, message) with one argument at each edge of its domain; message None accepts."""
    for index, (name, domain) in enumerate(zip(names, domains)):
        for value, rule in domain:
            args = valid[:index] + (value,) + valid[index + 1:]
            yield pytest.param(call, args, rule and f"{name}={value!r} {rule}",
                               id=f"{call.__name__}-{name}={value!r}")


@pytest.mark.parametrize(
    "call, args, message",
    [
        *domain_cases(context_interval, (0.5,) * 6, ("mu_a", "mu_b", "p_a", "p_b", "c", "c_prime"),
                      (UNIT, UNIT, WEIGHT, WEIGHT, MODULUS, MODULUS)),
        *domain_cases(fit_params, (0.3, 0.4, 0.35), ("mu_a", "mu_b", "target"), (INSIDE, INSIDE, UNIT)),
        *domain_cases(classify_extension, (0.3, 0.5, 0.4), ("mu_a", "mu_b", "mu_ab"), (UNIT, UNIT, UNIT)),
        # every argument outside: the first one checked is named; context_interval checks weights first
        (context_interval, (2.0,) * 6, "p_a=2.0 must be in (0, 1]"),
        (fit_params, (2.0,) * 3, "mu_a=2.0 must be strictly inside (0, 1)"),
        (classify_extension, (2.0,) * 3, "mu_a=2.0 is outside [0, 1]"),
        *domain_cases(ModelParams, (0.5, 0.5, 0.5, 0.5, 0.0, 0.0), ("p_a", "p_b", "c", "c_prime"),
                      (WEIGHT, WEIGHT, MODULUS, MODULUS)),
        # mu_a = mu_b = target: the convex point x = x' = 0 reaches it at every accepted pin
        *domain_cases(fit_params_constrained, (0.4, 0.4, 0.4, 1.0, 1.0, 1.0, 1.0),
                      ("mu_a", "mu_b", "target", "p_a", "p_b", "c", "c_prime"),
                      ((), (), (), WEIGHT, WEIGHT, MODULUS, MODULUS)),
    ],
)
def test_checks_reach_each_edge_of_each_domain(call, args, message):
    if message is None:
        call(*args)
    else:
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            call(*args)


@pytest.mark.parametrize("ratio", EDGE_FLOATS)
def test_mu_clamps_as_min_and_max_do(ratio):
    # a = ratio, b = g = 1, k = k' = 0 at x = -1: the numerator is ratio + -0.0, ratio itself
    assert same_float(_mu((ratio, 1.0, 1.0, 0.0, 0.0), -1.0, 0.0), min(1.0, max(0.0, ratio)))


@pytest.mark.parametrize("root", EDGE_FLOATS)
def test_solve_cosine_clips_as_min_and_max_do(root):
    # at target 0 with x' held at 0, the root for x is -a / (g k) = -a
    coeffs = (-root, 1.0, 1.0, 1.0, 1.0)
    x, x_prime = _solve_cosine(coeffs, 0.0, 0.0, for_x=True)
    assert same_float(x, min(1.0, max(-1.0, root))) and same_float(x_prime, 0.0)


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

    def test_interval_orders_correctly(self, rng):
        for _ in range(200):
            mu_a, mu_b, p_a, p_b, c, c_prime = random_setting(rng)
            interval = context_interval(mu_a, mu_b, p_a, p_b, c, c_prime)
            assert interval.lo <= interval.hi

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 5: the endpoint's normalization 1 - (1 - m) c' cancels near mu = 0",
    )
    @pytest.mark.parametrize("m, c_prime", [(3e-12, 1.0), (1e-12, 0.999999999999)])
    def test_endpoints_near_zero_probability(self, m, c_prime):
        """At mu_a = mu_b = m, p_a = p_b = 1 and c = 0 the endpoints are m / (1 +- (1 - m) c')."""
        interval = context_interval(m, m, 1.0, 1.0, 0.0, c_prime)
        spread = (1 - Fraction(m)) * Fraction(c_prime)
        assert interval.lo == pytest.approx(float(Fraction(m) / (1 + spread)), rel=1e-9)
        assert interval.hi == pytest.approx(float(Fraction(m) / (1 - spread)), rel=1e-9)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 5: near mu = 1 the endpoints round to lo 0.999999999999 > hi by one ulp",
    )
    def test_interval_orders_correctly_near_unit_probability(self):
        for args in [
            (0.999999999999, 0.999999999999, 1.0, 1.0, 1e-12, 1e-12),
            (1.0, 0.999999999999, 2.220446049250313e-16, 1.0, 1.0, 0.0),
        ]:
            interval = context_interval(*args)
            assert interval.lo <= interval.hi, args


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
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), *[st.floats(0.0, 1.0, exclude_min=True)] * 2)
    @example(0.2, 0.8, 1e-13, 1e-13)
    @settings(max_examples=300, deadline=None)
    def test_is_the_clamped_weighted_mean_bit_for_bit(self, mu_a, mu_b, p_a, p_b):
        """Zero moduli alone reach the limit: the cosines add exact zeros, whatever they are."""
        if p_a + p_b <= DENOMINATOR_TOL:
            with pytest.raises(DegenerateDenominator, match="^model normalization vanished"):
                mu_ab_convex(mu_a, mu_b, p_a, p_b)
            return
        mean = min(1.0, max(0.0, (p_a * mu_a + p_b * mu_b) / (p_a + p_b)))
        assert mu_ab_convex(mu_a, mu_b, p_a, p_b).hex() == mean.hex()


class TestFitParams:
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

    @pytest.mark.parametrize("target", [0.0, 1e-323, 5e-324])
    def test_a_weight_ratio_that_overflows_keeps_both_weights(self, target):
        # mu_b / mu_a overflows to inf, and 1 / inf would make p_b zero
        result, mirrored = fit_params(5e-324, 0.5, target), fit_params(0.5, 5e-324, target)
        assert result.residual <= 1e-9 and mirrored.residual <= 1e-9
        assert (result.params.p_a, result.params.p_b) == (mirrored.params.p_b, mirrored.params.p_a)
        assert result.params.p_a == 1.0 and 0.0 < result.params.p_b < 1e-300

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

    def test_weights_are_normalized(self, rng):
        for _ in range(100):
            mu_a = float(rng.uniform(0.01, 0.99))
            mu_b = float(rng.uniform(0.01, 0.99))
            target = float(rng.uniform(0.001, 0.999))
            result = fit_params(mu_a, mu_b, target)
            assert max(result.params.p_a, result.params.p_b) == pytest.approx(1.0)

    def test_rejects_degenerate_measurements(self):
        with pytest.raises(InvalidInput):
            fit_params(0.0, 0.5, 0.3)
        with pytest.raises(InvalidInput):
            fit_params(0.5, 1.0, 0.3)

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


def test_a_fit_fails_just_over_the_residual_bound():
    # mu_a = mu_b = 0 makes the model 0 at every cosine, so the residual is the target itself
    coeffs = _coefficients(0.0, 0.0, 1.0, 1.0, 0.0, 0.0)
    fit = (FitStrategy.CONVEX_NO_INTERFERENCE, (0.0, 0.0), 1.0, 1.0, 0.0, 0.0)
    assert _checked_fit(coeffs, RESIDUAL_BOUND, *fit).residual == RESIDUAL_BOUND
    with pytest.raises(UnreachableTarget, match="exceeds 1e-09$"):
        _checked_fit(coeffs, math.nextafter(RESIDUAL_BOUND, 1.0), *fit)


class TestFitParamsConstrained:
    def test_reaches_target_inside_the_pinned_interval(self):
        result = fit_params_constrained(0.0522, 0.213, 0.29, 0.5, 0.5, 0.5, 0.5)
        assert result.residual <= 1e-9
        assert result.params.c == 0.5

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_a_target_beside_the_corner_moves_only_its_own_legs_phase(self, side):
        # the corner (x, x') = (+1, +1) joins the legs: below it only phi moves, above it only phi'
        corner = mu_ab_cosines(0.3, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        result = fit_params_constrained(0.3, 0.5, corner + side * 1e-12, 1.0, 1.0, 1.0, 1.0)
        assert result.residual <= 1e-15
        phases = (result.params.phi, result.params.phi_prime)
        moved, still = phases if side < 0 else phases[::-1]
        assert moved > 0.0 and still == 0.0

    def test_a_cosine_the_target_ignores_is_reported_at_a_right_angle(self):
        # c = 0 takes x out of the model, so x solves at any value; the fit reports 0, phase pi/2
        corner = mu_ab_cosines(0.3, 0.5, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0)
        result = fit_params_constrained(0.3, 0.5, corner, 1.0, 1.0, 0.0, 1.0)
        assert (result.params.phi, result.params.phi_prime) == (math.pi / 2.0, 0.0)

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
