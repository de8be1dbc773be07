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
    combination (p_a = p_b when mu_a = mu_b), at c = c' = 0;
  * any other target takes c = c' = 1 and the weight ratio of the side it
    leaves [min(mu_a, mu_b), max(mu_a, mu_b)] by.  Above (target >= max),
    p_a/p_b = (1-mu_b)/(1-mu_a) makes mu_ab(x' = -1) exactly 1, and x' is
    solved at x = 0; below, p_a/p_b = mu_b/mu_a makes mu_ab(x = -1) exactly 0,
    and x is solved at x' = 0.

Every fit picks weights and moduli, solves one cosine with ``_solve_cosine``,
the other held at 0 (``fit_params``; zero moduli solve to 0.0, phase pi/2) or at
+1 on the pinned fit's monotone path (-1, +1) -> (+1, +1) -> (+1, -1), where the
normalization cannot vanish, and checks phases acos(x), acos(x') in ``_checked_fit``.

The probability depends on (p_a, p_b) only through their ratio, so fitted
pairs are normalized with the larger weight equal to 1.
"""
from __future__ import annotations

import enum
import math

from .corpus import _outside_unit, _Record
from .errors import InvalidInput, UnreachableTarget
from .interference import InterferenceInterval, _model_ratio, _side

RESIDUAL_BOUND = 1e-9
TWO_PI = 2.0 * math.pi
_VANISHED = "model normalization vanished for these parameters"


class FitStrategy(enum.Enum):
    CONVEX_NO_INTERFERENCE = "convex_no_interference"
    UNDEREXTENSION_BRANCH = "underextension_branch"
    OVEREXTENSION_BRANCH = "overextension_branch"


_STRATEGIES = {1: FitStrategy.OVEREXTENSION_BRANCH, 0: FitStrategy.CONVEX_NO_INTERFERENCE,
               -1: FitStrategy.UNDEREXTENSION_BRANCH}


def _check_weights_and_moduli(p_a: float, p_b: float, c: float, c_prime: float) -> None:
    if not 0.0 < p_a <= 1.0:
        raise InvalidInput(f"p_a={p_a!r} must be in (0, 1]")
    if not 0.0 < p_b <= 1.0:
        raise InvalidInput(f"p_b={p_b!r} must be in (0, 1]")
    if not 0.0 <= c <= 1.0:
        raise InvalidInput(f"c={c!r} must be in [0, 1]")
    if not 0.0 <= c_prime <= 1.0:
        raise InvalidInput(f"c_prime={c_prime!r} must be in [0, 1]")


class ModelParams(_Record):
    """Model parameters; weights in (0, 1], moduli in [0, 1], angles in [0, 2*pi)."""

    def __init__(
        self, p_a: float, p_b: float, c: float, c_prime: float, phi: float, phi_prime: float
    ) -> None:
        _check_weights_and_moduli(p_a, p_b, c, c_prime)
        if not (math.isfinite(phi) and math.isfinite(phi_prime)):
            raise InvalidInput(f"phi={phi!r} and phi_prime={phi_prime!r} must be finite")
        params = self.__dict__
        params["p_a"] = p_a
        params["p_b"] = p_b
        params["c"] = c
        params["c_prime"] = c_prime
        # a phase just below 0 rounds up to TWO_PI itself; the second % maps that to 0.0
        params["phi"] = phi % TWO_PI % TWO_PI
        params["phi_prime"] = phi_prime % TWO_PI % TWO_PI


class FitResult(_Record):
    def __init__(self, params: ModelParams, residual: float, strategy: FitStrategy) -> None:
        result = self.__dict__
        result["params"] = params
        result["residual"] = residual
        result["strategy"] = strategy

    def as_dict(self) -> dict:
        return {**self.params.as_dict(), "residual": self.residual, "strategy": self.strategy.value}


def _check_arguments(mu_a: float, mu_b: float, p_a: float, p_b: float, c: float, c_prime: float) -> None:
    _check_weights_and_moduli(p_a, p_b, c, c_prime)
    if not 0.0 <= mu_a <= 1.0:
        raise _outside_unit("mu_a", mu_a)
    if not 0.0 <= mu_b <= 1.0:
        raise _outside_unit("mu_b", mu_b)


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
    """The model at cosines (x, x') from ``_coefficients``, clamped to [0, 1].

    The clamp keeps what ``min(1.0, max(0.0, mu))`` gives: -0.0 and NaN read 0.0.
    """
    a, b, g, k, k_prime = coeffs
    mu = _model_ratio(a, b, g, k * x, k * x + k_prime * x_prime, _VANISHED)
    return (mu if mu < 1.0 else 1.0) if mu > 0.0 else 0.0


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
    _check_arguments(mu_a, mu_b, p_a, p_b, c, c_prime)
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
    """(p_a mu_a + p_b mu_b) / (p_a + p_b), the model at zero moduli; weights in (0, 1]."""
    return mu_ab_cosines(mu_a, mu_b, p_a, p_b, 0.0, 0.0, 1.0, 1.0)


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
    is at (u, v) = (-k, -d) and (k, d) with d = k - k', clamped to [0, 1];
    ``raw_lo`` and ``raw_hi`` hold the same clamped endpoints as ``lo`` and ``hi``.
    Weights and moduli must lie in the domains ``ModelParams`` enforces;
    anything else raises InvalidInput.
    """
    _check_arguments(mu_a, mu_b, p_a, p_b, c, c_prime)
    return _interval(_coefficients(mu_a, mu_b, p_a, p_b, c, c_prime))


def _interval(coeffs: tuple[float, ...]) -> InterferenceInterval:
    lo, hi = _mu(coeffs, -1.0, 1.0), _mu(coeffs, 1.0, -1.0)
    return InterferenceInterval(lo=lo, hi=hi, raw_lo=lo, raw_hi=hi)


def _normalized_weights(num: float, den: float) -> tuple[float, float]:
    """(p_a, p_b) with p_a / p_b = num / den, the larger 1, the other one division: swaps are exact."""
    ratio = num / den
    return (1.0, den / num) if ratio >= 1.0 else (ratio, 1.0)


def _solve_cosine(coeffs: tuple[float, ...], target: float, fixed: float, for_x: bool) -> tuple[float, float]:
    """The cosines (x, x') with mu_ab = target: x (for_x) or x' solved, the other one held at fixed.

    With the denominator cleared, mu_ab = target reads
    (a - target*b) + slope_x*x + slope_x_prime*x' = 0.  A zero slope (c = 0, c' = 0 or
    target in {0, 1}: the equation ignores that cosine) solves to 0.0; any other root is
    clipped to [-1, 1] as ``min(1.0, max(-1.0, root))`` clips it: -0.0 stays, NaN reads -1.0.
    """
    a, b, g, k, k_prime = coeffs
    slope_x, slope_x_prime = g * k * (1.0 - target), -g * k_prime * target
    slope, other = (slope_x, slope_x_prime) if for_x else (slope_x_prime, slope_x)
    root = -(a - target * b + other * fixed) / slope if slope else 0.0
    root = (root if root < 1.0 else 1.0) if root > -1.0 else -1.0
    return (root, fixed) if for_x else (fixed, root)


def _check_fit_inputs(mu_a: float, mu_b: float, target: float) -> None:
    if not 0.0 < mu_a < 1.0:
        raise InvalidInput(f"mu_a={mu_a!r} must be strictly inside (0, 1)")
    if not 0.0 < mu_b < 1.0:
        raise InvalidInput(f"mu_b={mu_b!r} must be strictly inside (0, 1)")
    if not 0.0 <= target <= 1.0:
        raise _outside_unit("target", target)


def _checked_fit(
    coeffs: tuple[float, ...], target: float, strategy: FitStrategy, cosines: tuple[float, float],
    p_a: float, p_b: float, c: float, c_prime: float,
) -> FitResult:
    """The fit at phases acos(x), acos(x') of cosines = (x, x'), if it meets RESIDUAL_BOUND."""
    params = ModelParams(p_a, p_b, c, c_prime, math.acos(cosines[0]), math.acos(cosines[1]))
    residual = abs(_mu(coeffs, math.cos(params.phi), math.cos(params.phi_prime)) - target)
    if residual > RESIDUAL_BOUND:
        raise UnreachableTarget(f"fit residual {residual!r} exceeds {RESIDUAL_BOUND}")
    return FitResult(params=params, residual=residual, strategy=strategy)


def fit_params(mu_a: float, mu_b: float, target: float) -> FitResult:
    """Find parameters with mu_ab_full(mu_a, mu_b, params) = target.

    The fit exhibits one solution, it does not claim uniqueness; its cases are
    the module docstring's.  Targets 0 and 1 sit exactly at phase pi.
    """
    _check_fit_inputs(mu_a, mu_b, target)
    low, high = (mu_a, mu_b) if mu_a < mu_b else (mu_b, mu_a)
    # +1 above, -1 below, 0 between; a tie with one measurement goes outward, with both to 0
    side = (target >= high) - (target <= low)
    if side == 0:
        # convex combination alone: p_a / p_b = (mu_b - target) / (target - mu_a)
        p_a, p_b = (1.0, 1.0) if mu_a == mu_b else _normalized_weights(mu_b - target, target - mu_a)
    else:
        p_a, p_b = _normalized_weights(*((1.0 - mu_b, 1.0 - mu_a) if side == 1 else (mu_b, mu_a)))
    c = 1.0 if side else 0.0
    # at targets 0 and 1 the solve takes the cosine the equation ignores, the other held at -1
    edge = target == 0.0 or target == 1.0
    coeffs = _coefficients(mu_a, mu_b, p_a, p_b, c, c)
    cosines = _solve_cosine(coeffs, target, -1.0 if edge else 0.0, (side == -1) != edge)
    return _checked_fit(coeffs, target, _STRATEGIES[side], cosines, p_a, p_b, c, c)


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
    weights with unit moduli.  The reported strategy records where ``_side``
    places the target against [min(mu_a, mu_b), max(mu_a, mu_b)].
    """
    _check_fit_inputs(mu_a, mu_b, target)
    _check_weights_and_moduli(p_a, p_b, c, c_prime)
    coeffs = _coefficients(mu_a, mu_b, p_a, p_b, c, c_prime)
    interval = _interval(coeffs)
    if not interval.contains(target, RESIDUAL_BOUND):
        raise UnreachableTarget(
            f"target {target!r} is outside the pinned interval [{interval.lo!r}, {interval.hi!r}]"
        )
    # x rises at x' = +1 up to the corner (+1, +1), then x' falls at x = +1
    cosines = _solve_cosine(coeffs, target, 1.0, target <= _mu(coeffs, 1.0, 1.0))
    strategy = _STRATEGIES[_side(mu_a, mu_b, target)]
    return _checked_fit(coeffs, target, strategy, cosines, p_a, p_b, c, c_prime)
