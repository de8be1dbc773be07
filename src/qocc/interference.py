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
from dataclasses import dataclass

from .corpus import CountTable
from .errors import DegenerateDenominator, InvalidInput, ZeroDenominator

DENOMINATOR_TOL = 1e-12
BOUNDARY_TOL = 1e-12
FEASIBILITY_SLACK = 1e-12


@dataclass(frozen=True)
class InterferenceInterval:
    """Admissible combined-concept probabilities, clamped to [0, 1].

    ``raw_lo`` and ``raw_hi`` keep the unclamped ratios for diagnostics;
    round-off (or classically impossible input counts) can push them
    marginally outside [0, 1].
    """

    lo: float
    hi: float
    raw_lo: float
    raw_hi: float

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi + 1e-12):
            raise DegenerateDenominator(f"interval endpoints out of order: {self.lo!r} > {self.hi!r}")

    def contains(self, value: float, slack: float = FEASIBILITY_SLACK) -> bool:
        return self.lo - slack <= value <= self.hi + slack

    def as_dict(self) -> dict[str, float]:
        return self.__dict__.copy()


@dataclass(frozen=True)
class PhaseAssignment:
    """Per-page phase differences for the abx pages and the abx' pages."""

    deltas_x: tuple[float, ...] = ()
    deltas_x_prime: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "deltas_x", tuple(float(d) for d in self.deltas_x))
        object.__setattr__(self, "deltas_x_prime", tuple(float(d) for d in self.deltas_x_prime))


class ExtensionClass(enum.Enum):
    """Position of the combined probability against the individual ones."""

    DOUBLE_UNDEREXTENSION = "double_underextension"
    SINGLE_EXTENSION = "single_extension"
    DOUBLE_OVEREXTENSION = "double_overextension"
    BOUNDARY = "boundary"


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise InvalidInput(f"{name}={value!r} is outside [0, 1]")


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
    if table.n_a == 0 or table.n_b == 0:
        raise DegenerateDenominator("n_a and n_b must be positive")
    half_a = (table.n_ax / table.n_a + table.n_bx / table.n_b) / 2.0
    r = math.sqrt(table.n_a * table.n_b)
    return [_model_ratio(half_a, 1.0, 1.0, u / r, v / r, message) for u, v in sums]


def mu_ab_interference_sums(table: CountTable, k_x: float, k_x_prime: float) -> float:
    """Combined probability from the two aggregate cosine sums."""
    if not -table.n_abx - 1e-9 <= k_x <= table.n_abx + 1e-9:
        raise InvalidInput(f"k_x={k_x!r} outside [-n_abx, n_abx]")
    if not -table.n_abx_prime - 1e-9 <= k_x_prime <= table.n_abx_prime + 1e-9:
        raise InvalidInput(f"k_x_prime={k_x_prime!r} outside [-n_abx', n_abx']")
    message = "phase choice drives the normalization to zero"
    return _count_ratios(table, message, (k_x, k_x + k_x_prime))[0]


def mu_ab_interference(table: CountTable, phases: PhaseAssignment) -> float:
    """Combined probability from explicit per-page phase differences."""
    lists = (("abx", phases.deltas_x, table.n_abx), ("abx'", phases.deltas_x_prime, table.n_abx_prime))
    for pages, deltas, need in lists:
        if len(deltas) != need:
            raise InvalidInput(f"need {need} phase differences for the {pages} pages, got {len(deltas)}")
    k_x = sum(math.cos(d) for d in phases.deltas_x)
    k_x_prime = sum(math.cos(d) for d in phases.deltas_x_prime)
    return mu_ab_interference_sums(table, k_x, k_x_prime)


def interference_interval(table: CountTable) -> InterferenceInterval:
    """Range of the combined probability over all phase assignments."""
    d = table.n_abx - table.n_abx_prime
    message = "|n_abx - n_abx'| reaches sqrt(n_a * n_b); the extremal ratio is singular"
    raw_lo, raw_hi = _count_ratios(table, message, (-table.n_abx, -d), (table.n_abx, d))
    return InterferenceInterval(min(1.0, max(0.0, raw_lo)), min(1.0, max(0.0, raw_hi)), raw_lo, raw_hi)


def fits_interference_only(table: CountTable) -> bool:
    """Whether the observed n_abx/n_ab is attainable by phases alone."""
    if table.n_ab == 0:
        raise ZeroDenominator("marginal n_ab is zero")
    observed = table.n_abx / table.n_ab
    return interference_interval(table).contains(observed)


def classify_extension(mu_a: float, mu_b: float, mu_ab: float) -> ExtensionClass:
    """Classify mu_ab against [min(mu_a, mu_b), max(mu_a, mu_b)].

    Ties within 1e-12 of either edge are BOUNDARY; observed ratios are exact
    rationals, so ties carry meaning.
    """
    for name, value in (("mu_a", mu_a), ("mu_b", mu_b), ("mu_ab", mu_ab)):
        _check_probability(name, value)
    low, high = min(mu_a, mu_b), max(mu_a, mu_b)
    if abs(mu_ab - low) <= BOUNDARY_TOL or abs(mu_ab - high) <= BOUNDARY_TOL:
        return ExtensionClass.BOUNDARY
    if mu_ab > high:
        return ExtensionClass.DOUBLE_OVEREXTENSION
    if mu_ab < low:
        return ExtensionClass.DOUBLE_UNDEREXTENSION
    return ExtensionClass.SINGLE_EXTENSION
