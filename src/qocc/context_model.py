"""Combined context-plus-interference model and parameter fitting.

The model evaluates the combined-concept probability from six parameters,
the context survival weights p_a, p_b, the in-subspace and out-of-subspace
overlap moduli c, c', and their phases phi, phi':

            p_a mu_a + p_b mu_b + 2 sqrt(p_a p_b mu_a mu_b) c cos(phi)
    mu_ab = ----------------------------------------------------------------
            p_a + p_b + 2 sqrt(p_a p_b) (sqrt(mu_a mu_b) c cos(phi)
                                         + sqrt((1-mu_a)(1-mu_b)) c' cos(phi'))

Writing x = cos(phi) and x' = cos(phi'), this is the ratio
(a + g u) / (b + g v) of ``interference._model_ratio`` with u = k x and
v = k x + k' x' (a, b, g, k, k' from ``_coefficients``).  ``_mu`` is the one
evaluator of it, clamped to [0, 1], for the evaluators, the interval
endpoints, the pinned fit's corner and every fit's residual; the interference
interval is the same model at p_a = p_b with count-derived k and d = k - k'.
Numerator and denominator are both linear in x and in x', so with one cosine
held fixed mu_ab = target is a linear equation in the other, solved by one
division.  mu_ab is non-decreasing in x and non-increasing in x' throughout
the admissible parameter box, so extremes sit at (x, x') = (-1, +1) and
(+1, -1):

  * targets strictly between mu_a and mu_b, or equal to both, need no
    interference at all: a weight ratio p_a/p_b alone places the convex
    combination (p_a = p_b when mu_a = mu_b);
  * any other target takes c = c' = 1 and the weight ratio of the side it
    leaves [min(mu_a, mu_b), max(mu_a, mu_b)] by.  Above (target >= max),
    p_a/p_b = (1-mu_b)/(1-mu_a) makes mu_ab(x' = -1) exactly 1, and x' is
    solved at x = 0; below, p_a/p_b = mu_b/mu_a makes mu_ab(x = -1) exactly 0,
    and x is solved at x' = 0.

Pinned fits solve on the monotone path (-1, +1) -> (+1, +1) -> (+1, -1),
where the normalization cannot vanish (``fit_params_constrained``).

The probability depends on (p_a, p_b) only through their ratio, so fitted
pairs are normalized with the larger weight equal to 1.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DegenerateDenominator, InvalidInput, UnreachableTarget
from .interference import DENOMINATOR_TOL, InterferenceInterval, _check_probability, _model_ratio

RESIDUAL_BOUND = 1e-9
TWO_PI = 2.0 * math.pi
_VANISHED = "model normalization vanished for these parameters"


class FitStrategy(enum.Enum):
    CONVEX_NO_INTERFERENCE = "convex_no_interference"
    UNDEREXTENSION_BRANCH = "underextension_branch"
    OVEREXTENSION_BRANCH = "overextension_branch"


def _check_weights_and_moduli(p_a: float, p_b: float, c: float, c_prime: float) -> None:
    for name, value in (("p_a", p_a), ("p_b", p_b)):
        if not 0.0 < value <= 1.0:
            raise InvalidInput(f"{name}={value!r} must be in (0, 1]")
    for name, value in (("c", c), ("c_prime", c_prime)):
        if not 0.0 <= value <= 1.0:
            raise InvalidInput(f"{name}={value!r} must be in [0, 1]")


@dataclass(frozen=True)
class ModelParams:
    """Model parameters; weights in (0, 1], moduli in [0, 1], angles in [0, 2*pi)."""

    p_a: float
    p_b: float
    c: float
    c_prime: float
    phi: float
    phi_prime: float

    def __post_init__(self) -> None:
        _check_weights_and_moduli(self.p_a, self.p_b, self.c, self.c_prime)
        object.__setattr__(self, "phi", self.phi % TWO_PI)
        object.__setattr__(self, "phi_prime", self.phi_prime % TWO_PI)

    def as_dict(self) -> dict[str, float]:
        return self.__dict__.copy()


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    residual: float
    strategy: FitStrategy

    def as_dict(self) -> dict:
        return {**self.params.as_dict(), "residual": self.residual, "strategy": self.strategy.value}


def _check_measurements(mu_a: float, mu_b: float) -> None:
    _check_probability("mu_a", mu_a)
    _check_probability("mu_b", mu_b)


def _coefficients(
    mu_a: float, mu_b: float, p_a: float, p_b: float, c: float, c_prime: float
) -> tuple[float, float, float, float, float]:
    """(a, b, g, k, k') with mu_ab = (a + g*(k*x)) / (b + g*(k*x + k'*x'))."""
    return (
        p_a * mu_a + p_b * mu_b,
        p_a + p_b,
        2.0 * math.sqrt(p_a * p_b),
        math.sqrt(mu_a * mu_b) * c,
        math.sqrt((1.0 - mu_a) * (1.0 - mu_b)) * c_prime,
    )


def _mu(coeffs: tuple[float, ...], x: float, x_prime: float) -> float:
    """The model at cosines (x, x') from ``_coefficients``, clamped to [0, 1]."""
    a, b, g, k, k_prime = coeffs
    return min(1.0, max(0.0, _model_ratio(a, b, g, k * x, k * x + k_prime * x_prime, _VANISHED)))


def mu_ab_cosines(
    mu_a: float,
    mu_b: float,
    p_a: float,
    p_b: float,
    c: float,
    c_prime: float,
    x: float,
    x_prime: float,
) -> float:
    """Model probability at the cosines x, x' in [-1, 1]; other arguments as in ``context_interval``."""
    _check_weights_and_moduli(p_a, p_b, c, c_prime)
    _check_measurements(mu_a, mu_b)
    for name, value in (("x", x), ("x_prime", x_prime)):
        if not -1.0 <= value <= 1.0:
            raise InvalidInput(f"{name}={value!r} is outside [-1, 1]")
    return _mu(_coefficients(mu_a, mu_b, p_a, p_b, c, c_prime), x, x_prime)


def mu_ab_full(mu_a: float, mu_b: float, params: ModelParams) -> float:
    """Model probability at the given parameters."""
    return mu_ab_cosines(
        mu_a, mu_b,
        params.p_a, params.p_b, params.c, params.c_prime,
        math.cos(params.phi), math.cos(params.phi_prime),
    )


def mu_ab_convex(mu_a: float, mu_b: float, p_a: float, p_b: float) -> float:
    """(p_a mu_a + p_b mu_b) / (p_a + p_b), the no-interference limit; weights in (0, 1]."""
    _check_weights_and_moduli(p_a, p_b, 0.0, 0.0)
    _check_measurements(mu_a, mu_b)
    if p_a + p_b <= DENOMINATOR_TOL:
        raise DegenerateDenominator("p_a + p_b vanishes")
    return (p_a * mu_a + p_b * mu_b) / (p_a + p_b)


def context_interval(
    mu_a: float,
    mu_b: float,
    p_a: float,
    p_b: float,
    c: float,
    c_prime: float,
) -> InterferenceInterval:
    """Probability range over all phases at fixed weights and moduli.

    ``_interval`` takes the endpoints at (x, x') = (-1, +1) and (+1, -1), that
    is at (u, v) = (-k, -d) and (k, d) with d = k - k', clamped to [0, 1].
    Weights and moduli must lie in the domains ``ModelParams`` enforces;
    anything else raises InvalidInput.
    """
    _check_weights_and_moduli(p_a, p_b, c, c_prime)
    _check_measurements(mu_a, mu_b)
    return _interval(_coefficients(mu_a, mu_b, p_a, p_b, c, c_prime))


def _interval(coeffs: tuple[float, ...]) -> InterferenceInterval:
    lo, hi = _mu(coeffs, -1.0, 1.0), _mu(coeffs, 1.0, -1.0)
    return InterferenceInterval(lo=lo, hi=hi, raw_lo=lo, raw_hi=hi)


def _normalized_weights(ratio: float) -> tuple[float, float]:
    """(p_a, p_b) with p_a / p_b = ratio and max(p_a, p_b) = 1."""
    if ratio >= 1.0:
        return 1.0, 1.0 / ratio
    return ratio, 1.0


def _solve_cosine(coeffs: tuple[float, ...], target: float, fixed: float, for_x: bool) -> float:
    """The cosine x (for_x) or x' at which mu_ab = target, the other one held at fixed.

    With the denominator cleared, mu_ab = target reads
    (a - target*b) + slope_x*x + slope_x_prime*x' = 0; the root is clipped to [-1, 1].
    """
    a, b, g, k, k_prime = coeffs
    slope_x, slope_x_prime = g * k * (1.0 - target), -g * k_prime * target
    slope, other = (slope_x, slope_x_prime) if for_x else (slope_x_prime, slope_x)
    if slope == 0.0:
        return 0.0  # c = 0, c' = 0 or target in {0, 1}: the equation ignores this cosine
    return min(1.0, max(-1.0, -(a - target * b + other * fixed) / slope))


def _check_fit_inputs(mu_a: float, mu_b: float, target: float) -> None:
    for name, value in (("mu_a", mu_a), ("mu_b", mu_b)):
        if not 0.0 < value < 1.0:
            raise InvalidInput(f"{name}={value!r} must be strictly inside (0, 1)")
    _check_probability("target", target)


def _checked_fit(
    coeffs: tuple[float, ...], target: float, params: ModelParams, strategy: FitStrategy
) -> FitResult:
    """The fit of params, whose weights and moduli made coeffs, if it meets RESIDUAL_BOUND."""
    residual = abs(_mu(coeffs, math.cos(params.phi), math.cos(params.phi_prime)) - target)
    if residual > RESIDUAL_BOUND:
        raise UnreachableTarget(f"fit residual {residual!r} exceeds {RESIDUAL_BOUND}")
    return FitResult(params=params, residual=residual, strategy=strategy)


def fit_params(mu_a: float, mu_b: float, target: float) -> FitResult:
    """Find parameters with mu_ab_full(mu_a, mu_b, params) = target.

    The fit exhibits one solution, it does not claim uniqueness; its two
    cases are the module docstring's.  Targets 0 and 1 sit exactly at phase pi.
    """
    _check_fit_inputs(mu_a, mu_b, target)
    low, high = min(mu_a, mu_b), max(mu_a, mu_b)
    if low < target < high or mu_a == mu_b == target:
        # convex combination alone: p_a / p_b = (mu_b - target) / (target - mu_a)
        p_a, p_b = (1.0, 1.0) if mu_a == mu_b else _normalized_weights((mu_b - target) / (target - mu_a))
        params = ModelParams(p_a, p_b, 0.0, 0.0, math.pi / 2.0, math.pi / 2.0)
        coeffs = _coefficients(mu_a, mu_b, p_a, p_b, 0.0, 0.0)
        return _checked_fit(coeffs, target, params, FitStrategy.CONVEX_NO_INTERFERENCE)
    over = target >= high
    p_a, p_b = _normalized_weights((1.0 - mu_b) / (1.0 - mu_a) if over else mu_b / mu_a)
    coeffs = _coefficients(mu_a, mu_b, p_a, p_b, 1.0, 1.0)
    if target == 0.0 or target == 1.0:
        cosine = -1.0  # the solve would only round its way to -1
    else:
        cosine = _solve_cosine(coeffs, target, 0.0, for_x=not over)
    phases = (math.pi / 2.0, math.acos(cosine)) if over else (math.acos(cosine), math.pi / 2.0)
    strategy = FitStrategy.OVEREXTENSION_BRANCH if over else FitStrategy.UNDEREXTENSION_BRANCH
    return _checked_fit(coeffs, target, ModelParams(p_a, p_b, 1.0, 1.0, *phases), strategy)


def fit_params_constrained(
    mu_a: float,
    mu_b: float,
    target: float,
    p_a: float,
    p_b: float,
    c: float,
    c_prime: float,
) -> FitResult:
    """Solve for phases only, with weights and moduli pinned by the caller.

    The target must lie inside the context interval of the pinned
    parameters, from (x, x') = (-1, +1) to (+1, -1).  The solve walks the
    monotone path between them through (+1, +1), x rising at x' = +1 and then
    x' falling at x = +1, with one division on the leg that holds the target.
    Along it the normalization is at least p_a + p_b - 2 sqrt(p_a p_b) max(k, k')
    (k, k' the cosine coefficients of ``_coefficients``), positive for mu strictly
    inside (0, 1); through (-1, -1) it vanishes for equal measurements and
    weights with unit moduli.  The reported strategy records where the target
    sits relative to [min(mu_a, mu_b), max(mu_a, mu_b)].
    """
    _check_fit_inputs(mu_a, mu_b, target)
    _check_weights_and_moduli(p_a, p_b, c, c_prime)
    coeffs = _coefficients(mu_a, mu_b, p_a, p_b, c, c_prime)
    interval = _interval(coeffs)
    if not interval.contains(target, RESIDUAL_BOUND):
        raise UnreachableTarget(
            f"target {target!r} is outside the pinned interval [{interval.lo!r}, {interval.hi!r}]"
        )
    # the corner (+1, +1) joins the legs
    if target <= _mu(coeffs, 1.0, 1.0):
        x, x_prime = _solve_cosine(coeffs, target, 1.0, for_x=True), 1.0
    else:
        x, x_prime = 1.0, _solve_cosine(coeffs, target, 1.0, for_x=False)
    params = ModelParams(p_a, p_b, c, c_prime, math.acos(x), math.acos(x_prime))
    if target > max(mu_a, mu_b):
        strategy = FitStrategy.OVEREXTENSION_BRANCH
    elif target < min(mu_a, mu_b):
        strategy = FitStrategy.UNDEREXTENSION_BRANCH
    else:
        strategy = FitStrategy.CONVEX_NO_INTERFERENCE
    return _checked_fit(coeffs, target, params, strategy)
