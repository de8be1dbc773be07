"""Pure interference analysis for co-occurrence counts, no context effect.

With both concepts in uniform-modulus states over their page sets, the
combined-concept probability depends on the per-page phase differences only
through two cosine sums, k_x over the pages carrying all three words and k_xp
over the pages carrying the first two but not the third:

    mu = (a + 2 k_x / r) / (2 + 2 (k_x + k_xp) / r),

with a = n_ax/n_a + n_bx/n_b and r = sqrt(n_a * n_b).  This is the context
model of ``context_model`` at p_a = p_b in count coordinates (b = g = 2,
u = k_x / r for k x, v = (k_x + k_xp) / r for k x + k' x'), and both modules
evaluate it through the one ratio ``_model_ratio``.  This module halves
numerator and normalization (a / 2, b = g = 1), an exact scaling, so both
compare their normalization with the one ``DENOMINATOR_TOL``.  Sweeping the
phases sweeps k_x over [-n_abx, n_abx] and k_xp over [-n_abx', n_abx'], so the
interval is the model's at count-derived k = n_abx / r and
d = k - k' = (n_abx - n_abx') / r: the maximum, (u, v) = (k, d), sets every
cosine over the x-pages to +1 and every cosine over the x'-pages to -1; the
minimum, (-k, -d), does the opposite.
"""
from __future__ import annotations

import enum
import math
from collections.abc import Sequence

from .corpus import CountTable, _check_marginals, _outside_unit, _Record
from .errors import DegenerateDenominator, InvalidInput

DENOMINATOR_TOL = 1e-12
BOUNDARY_TOL = 1e-12
FEASIBILITY_SLACK = 1e-12


class InterferenceInterval(_Record):
    """Admissible combined-concept probabilities, clamped to [0, 1].

    From ``interference_interval``, ``raw_lo`` and ``raw_hi`` keep the
    unclamped count ratios for diagnostics; round-off (or classically
    impossible input counts) can push them marginally outside [0, 1].
    ``context_interval`` stores its clamped endpoints there, equal to
    ``lo`` and ``hi``.
    """

    def __init__(self, lo: float, hi: float, raw_lo: float, raw_hi: float) -> None:
        bounds = self.__dict__
        bounds["lo"] = lo
        bounds["hi"] = hi
        bounds["raw_lo"] = raw_lo
        bounds["raw_hi"] = raw_hi

    def contains(self, value: float, slack: float = FEASIBILITY_SLACK) -> bool:
        return self.lo - slack <= value <= self.hi + slack


class ExtensionClass(enum.Enum):
    """Position of the combined probability against the individual ones."""

    DOUBLE_UNDEREXTENSION = "double_underextension"
    SINGLE_EXTENSION = "single_extension"
    DOUBLE_OVEREXTENSION = "double_overextension"
    BOUNDARY = "boundary"


_EXTENSIONS = {1: ExtensionClass.DOUBLE_OVEREXTENSION, 0: ExtensionClass.SINGLE_EXTENSION,
               -1: ExtensionClass.DOUBLE_UNDEREXTENSION}


def _model_ratio(a: float, b: float, g: float, u: float, v: float, message: str) -> float:
    """(a + g*u) / (b + g*v), the model's combined probability.

    A normalization b + g*v at or below DENOMINATOR_TOL raises
    DegenerateDenominator(message).
    """
    denominator = b + g * v
    if denominator <= DENOMINATOR_TOL:
        raise DegenerateDenominator(message)
    return (a + g * u) / denominator


def _count_ratios(table: CountTable, message: str, *sums: tuple[float, float]) -> list[float]:
    """The model ratio in count coordinates at each (k_x, k_x + k_x') of sums.

    Numerator and normalization are halved (a / 2, b = g = 1).  Halving is
    exact in floating point, so every ratio keeps its bits, and the
    normalization 1 + (k_x + k_x') / r meets DENOMINATOR_TOL itself.
    """
    _check_marginals(table, "n_a", "n_b")
    half_a = (table.n_ax / table.n_a + table.n_bx / table.n_b) / 2.0
    r = math.sqrt(table.n_a * table.n_b)
    return [_model_ratio(half_a, 1.0, 1.0, u / r, v / r, message) for u, v in sums]


def mu_ab_interference_sums(table: CountTable, k_x: float, k_x_prime: float) -> float:
    """The model's count ratio at the two aggregate cosine sums, unclamped.

    Like ``raw_lo`` and ``raw_hi`` it can leave [0, 1] on classically
    impossible counts: ``CountTable(10, 10, 10, 10, 10, 5)`` at ``k_x = 5``,
    ``k_x_prime = -5`` gives 1.5, where the interval's ``hi`` is 1.0.
    """
    if not -table.n_abx - 1e-9 <= k_x <= table.n_abx + 1e-9:
        raise InvalidInput(f"k_x={k_x!r} outside [-n_abx, n_abx]")
    if not -table.n_abx_prime - 1e-9 <= k_x_prime <= table.n_abx_prime + 1e-9:
        raise InvalidInput(f"k_x_prime={k_x_prime!r} outside [-n_abx', n_abx']")
    message = "phase choice drives the normalization to zero"
    return _count_ratios(table, message, (k_x, k_x + k_x_prime))[0]


def mu_ab_interference(
    table: CountTable, deltas_x: Sequence[float], deltas_x_prime: Sequence[float]
) -> float:
    """The unclamped count ratio at per-page phase differences on the abx and abx' pages.

    It is ``mu_ab_interference_sums`` at the sums of their cosines.
    """
    lists = (("abx", deltas_x, table.n_abx), ("abx'", deltas_x_prime, table.n_abx_prime))
    for pages, deltas, need in lists:
        if len(deltas) != need:
            raise InvalidInput(f"need {need} phase differences for the {pages} pages, got {len(deltas)}")
        for delta in deltas:
            if not math.isfinite(delta):
                raise InvalidInput(f"phase difference for the {pages} pages must be finite, got {delta!r}")
    k_x = sum(math.cos(d) for d in deltas_x)
    k_x_prime = sum(math.cos(d) for d in deltas_x_prime)
    return mu_ab_interference_sums(table, k_x, k_x_prime)


def interference_interval(table: CountTable) -> InterferenceInterval:
    """Range of the combined probability over all phase assignments."""
    d = table.n_abx - table.n_abx_prime
    message = "|n_abx - n_abx'| reaches sqrt(n_a * n_b); the extremal ratio is singular"
    raw_lo, raw_hi = _count_ratios(table, message, (-table.n_abx, -d), (table.n_abx, d))
    # raw_lo <= 1 (a / 2 <= 1, d <= k) and raw_hi >= 0 (a, k >= 0) hold for every table;
    # the clamps keep max(0.0, raw_lo) and min(1.0, raw_hi): -0.0 reads 0.0, NaN 0.0 and 1.0
    lo = raw_lo if raw_lo > 0.0 else 0.0
    hi = raw_hi if raw_hi < 1.0 else 1.0
    return InterferenceInterval(lo, hi, raw_lo, raw_hi)


def _side(mu_a: float, mu_b: float, t: float) -> int:
    """+1 where t lies above both mu_a and mu_b, -1 below both, 0 on or between them."""
    return (t > mu_a and t > mu_b) - (t < mu_a and t < mu_b)


def classify_extension(mu_a: float, mu_b: float, mu_ab: float) -> ExtensionClass:
    """Classify mu_ab against [min(mu_a, mu_b), max(mu_a, mu_b)].

    Ties within 1e-12 of either edge are BOUNDARY (observed ratios are exact
    rationals, so ties carry meaning); ``_side`` places any other mu_ab.
    """
    if not 0.0 <= mu_a <= 1.0:
        raise _outside_unit("mu_a", mu_a)
    if not 0.0 <= mu_b <= 1.0:
        raise _outside_unit("mu_b", mu_b)
    if not 0.0 <= mu_ab <= 1.0:
        raise _outside_unit("mu_ab", mu_ab)
    if abs(mu_ab - mu_a) <= BOUNDARY_TOL or abs(mu_ab - mu_b) <= BOUNDARY_TOL:
        return ExtensionClass.BOUNDARY
    return _EXTENSIONS[_side(mu_a, mu_b, mu_ab)]
