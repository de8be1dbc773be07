"""Combined context-plus-interference model and parameter fitting.

The model evaluates the combined-concept probability from six parameters,
the context survival weights p_a, p_b, the in-subspace and out-of-subspace
overlap moduli c, c', and their phases phi, phi':

            p_a mu_a + p_b mu_b + 2 sqrt(p_a p_b mu_a mu_b) c cos(phi)
    mu_ab = ----------------------------------------------------------------
            p_a + p_b + 2 sqrt(p_a p_b) (sqrt(mu_a mu_b) c cos(phi)
                                         + sqrt((1-mu_a)(1-mu_b)) c' cos(phi'))

Writing x = cos(phi) and x' = cos(phi'), mu_ab is non-decreasing in x and
non-increasing in x' throughout the admissible parameter box, so extremes sit
at (x, x') = (-1, +1) and (+1, -1), and one-dimensional bisection along a
monotone line solves mu_ab = target:

  * targets between mu_a and mu_b need no interference at all, a weight
    ratio p_a/p_b alone places the convex combination;
  * targets below min(mu_a, mu_b) use c = c' = 1 with p_a/p_b = mu_b/mu_a,
    which makes mu_ab(x = -1) exactly 0, and bisect x in [-1, 0] at x' = 0;
  * targets above max(mu_a, mu_b) use c = c' = 1 with
    p_a/p_b = (1-mu_b)/(1-mu_a), which makes mu_ab(x' = -1) exactly 1, and
    bisect x' in [-1, 0] at x = 0.

The probability depends on (p_a, p_b) only through their ratio, so fitted
pairs are normalized with the larger weight equal to 1.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DegenerateDenominator, InvalidInput, UnreachableTarget
from .interference import InterferenceInterval

DENOMINATOR_TOL = 1e-12
BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200
RESIDUAL_BOUND = 1e-9
TWO_PI = 2.0 * math.pi


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
        return {
            "p_a": self.p_a, "p_b": self.p_b, "c": self.c, "c_prime": self.c_prime,
            "phi": self.phi, "phi_prime": self.phi_prime,
        }


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    residual: float
    strategy: FitStrategy

    def as_dict(self) -> dict:
        return {**self.params.as_dict(), "residual": self.residual, "strategy": self.strategy.value}


def _check_measurements(mu_a: float, mu_b: float) -> None:
    for name, value in (("mu_a", mu_a), ("mu_b", mu_b)):
        if not 0.0 <= value <= 1.0:
            raise InvalidInput(f"{name}={value!r} is outside [0, 1]")


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
    """Model probability with the phases given directly as cosines."""
    _check_measurements(mu_a, mu_b)
    geom = math.sqrt(p_a * p_b)
    cross = math.sqrt(mu_a * mu_b) * c * x
    cross_bar = math.sqrt((1.0 - mu_a) * (1.0 - mu_b)) * c_prime * x_prime
    numerator = p_a * mu_a + p_b * mu_b + 2.0 * geom * cross
    denominator = p_a + p_b + 2.0 * geom * (cross + cross_bar)
    if denominator <= DENOMINATOR_TOL:
        raise DegenerateDenominator("model normalization vanished for these parameters")
    return min(1.0, max(0.0, numerator / denominator))


def mu_ab_full(mu_a: float, mu_b: float, params: ModelParams) -> float:
    """Model probability at the given parameters."""
    return mu_ab_cosines(
        mu_a, mu_b,
        params.p_a, params.p_b, params.c, params.c_prime,
        math.cos(params.phi), math.cos(params.phi_prime),
    )


def mu_ab_convex(mu_a: float, mu_b: float, p_a: float, p_b: float) -> float:
    """(p_a mu_a + p_b mu_b) / (p_a + p_b), the no-interference limit."""
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

    Weights and moduli must lie in the domains ``ModelParams`` enforces;
    anything else raises InvalidInput.
    """
    _check_weights_and_moduli(p_a, p_b, c, c_prime)
    raw_lo = mu_ab_cosines(mu_a, mu_b, p_a, p_b, c, c_prime, -1.0, 1.0)
    raw_hi = mu_ab_cosines(mu_a, mu_b, p_a, p_b, c, c_prime, 1.0, -1.0)
    return InterferenceInterval(
        lo=min(1.0, max(0.0, raw_lo)),
        hi=min(1.0, max(0.0, raw_hi)),
        raw_lo=raw_lo,
        raw_hi=raw_hi,
    )


def _normalized_weights(ratio: float) -> tuple[float, float]:
    """(p_a, p_b) with p_a / p_b = ratio and max(p_a, p_b) = 1."""
    if ratio >= 1.0:
        return 1.0, 1.0 / ratio
    return ratio, 1.0


def _bisect(evaluate, lo: float, hi: float, target: float):
    """Root of evaluate(x) = target on [lo, hi], evaluate non-decreasing.

    Returns (x, value).  The bracket is checked first; a target outside it is
    unreachable by construction.
    """
    f_lo = evaluate(lo)
    f_hi = evaluate(hi)
    if not (f_lo - BISECT_TOL <= target <= f_hi + BISECT_TOL):
        raise UnreachableTarget(
            f"target {target!r} outside bracket values [{f_lo!r}, {f_hi!r}]"
        )
    best_x, best_val = (lo, f_lo) if abs(f_lo - target) <= abs(f_hi - target) else (hi, f_hi)
    for _ in range(BISECT_MAX_ITER):
        if abs(best_val - target) <= BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        f_mid = evaluate(mid)
        if abs(f_mid - target) < abs(best_val - target):
            best_x, best_val = mid, f_mid
        if f_mid < target:
            lo = mid
        else:
            hi = mid
    return best_x, best_val


def fit_params(mu_a: float, mu_b: float, target: float) -> FitResult:
    """Find parameters with mu_ab_full(mu_a, mu_b, params) = target.

    The fit exhibits one solution, it does not claim uniqueness.  Exact
    targets 0 and 1 use the closed-form endpoint weight ratios and skip
    bisection entirely.
    """
    for name, value in (("mu_a", mu_a), ("mu_b", mu_b)):
        if not 0.0 < value < 1.0:
            raise InvalidInput(f"{name}={value!r} must be strictly inside (0, 1)")
    if not 0.0 <= target <= 1.0:
        raise InvalidInput(f"target={target!r} is outside [0, 1]")

    low, high = min(mu_a, mu_b), max(mu_a, mu_b)

    if target == 0.0:
        p_a, p_b = _normalized_weights(mu_b / mu_a)
        params = ModelParams(p_a, p_b, 1.0, 1.0, math.pi, math.pi / 2.0)
        strategy = FitStrategy.UNDEREXTENSION_BRANCH
    elif target == 1.0:
        p_a, p_b = _normalized_weights((1.0 - mu_b) / (1.0 - mu_a))
        params = ModelParams(p_a, p_b, 1.0, 1.0, math.pi / 2.0, math.pi)
        strategy = FitStrategy.OVEREXTENSION_BRANCH
    elif mu_a == mu_b == target:
        params = ModelParams(1.0, 1.0, 0.0, 0.0, math.pi / 2.0, math.pi / 2.0)
        strategy = FitStrategy.CONVEX_NO_INTERFERENCE
    elif low < target < high:
        # convex combination alone: p_a / p_b = (mu_b - target) / (target - mu_a)
        p_a, p_b = _normalized_weights((mu_b - target) / (target - mu_a))
        params = ModelParams(p_a, p_b, 0.0, 0.0, math.pi / 2.0, math.pi / 2.0)
        strategy = FitStrategy.CONVEX_NO_INTERFERENCE
    elif target >= high:
        # interference must push above both: mu_ab(x'=-1) is identically 1
        # for this weight ratio, so walk x' down from the convex value at 0
        p_a, p_b = _normalized_weights((1.0 - mu_b) / (1.0 - mu_a))
        x_prime, _ = _bisect(
            lambda xp: mu_ab_cosines(mu_a, mu_b, p_a, p_b, 1.0, 1.0, 0.0, -xp),
            # evaluate in -x' so the function is non-decreasing on [0, 1]
            0.0, 1.0, target,
        )
        params = ModelParams(p_a, p_b, 1.0, 1.0, math.pi / 2.0, math.acos(-x_prime))
        strategy = FitStrategy.OVEREXTENSION_BRANCH
    else:
        # interference must pull below both: mu_ab(x=-1) is exactly 0 for
        # this weight ratio, bisect x between that and the convex value
        p_a, p_b = _normalized_weights(mu_b / mu_a)
        x, _ = _bisect(
            lambda xv: mu_ab_cosines(mu_a, mu_b, p_a, p_b, 1.0, 1.0, xv, 0.0),
            -1.0, 0.0, target,
        )
        params = ModelParams(p_a, p_b, 1.0, 1.0, math.acos(x), math.pi / 2.0)
        strategy = FitStrategy.UNDEREXTENSION_BRANCH

    residual = abs(mu_ab_full(mu_a, mu_b, params) - target)
    if residual > RESIDUAL_BOUND:
        raise UnreachableTarget(f"fit residual {residual!r} exceeds {RESIDUAL_BOUND}")
    return FitResult(params=params, residual=residual, strategy=strategy)


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
    parameters.  The solution walks the monotone two-leg path from the
    interval minimum at (x, x') = (-1, +1) through (-1, -1) to the maximum
    at (+1, -1).  The reported strategy records where the target sits
    relative to [min(mu_a, mu_b), max(mu_a, mu_b)].
    """
    for name, value in (("mu_a", mu_a), ("mu_b", mu_b)):
        if not 0.0 < value < 1.0:
            raise InvalidInput(f"{name}={value!r} must be strictly inside (0, 1)")
    if not 0.0 <= target <= 1.0:
        raise InvalidInput(f"target={target!r} is outside [0, 1]")
    _check_weights_and_moduli(p_a, p_b, c, c_prime)

    def along_path(t: float) -> tuple[float, float]:
        if t <= 1.0:
            return -1.0, 1.0 - 2.0 * t
        return -1.0 + 2.0 * (t - 1.0), -1.0

    t_root, _ = _bisect(
        lambda t: mu_ab_cosines(mu_a, mu_b, p_a, p_b, c, c_prime, *along_path(t)),
        0.0, 2.0, target,
    )
    x, x_prime = along_path(t_root)
    params = ModelParams(p_a, p_b, c, c_prime, math.acos(x), math.acos(x_prime))
    residual = abs(mu_ab_full(mu_a, mu_b, params) - target)
    if residual > RESIDUAL_BOUND:
        raise UnreachableTarget(f"fit residual {residual!r} exceeds {RESIDUAL_BOUND}")

    if target > max(mu_a, mu_b):
        strategy = FitStrategy.OVEREXTENSION_BRANCH
    elif target < min(mu_a, mu_b):
        strategy = FitStrategy.UNDEREXTENSION_BRANCH
    else:
        strategy = FitStrategy.CONVEX_NO_INTERFERENCE
    return FitResult(params=params, residual=residual, strategy=strategy)
