"""The benchmark's own copies of the paper's formulas, used to check qocc.

Nothing here imports qocc.  The expressions are written out from the paper
(and arranged differently from qocc's code where that is natural), so a
formula error in qocc does not cancel against the same error here.
"""
from __future__ import annotations

import json
import math

RESIDUAL_BOUND = 1e-9
INTERVAL_TOL = 1e-12


def canonical(obj) -> str:
    """Sorted keys, no whitespace: the CLI's documented --json form."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def table_from_cells(cells: dict[str, int]) -> dict[str, int]:
    """Marginals of the eight presence cells, keyed like qocc's count tables."""
    return {
        "n_a": cells["n111"] + cells["n110"] + cells["n101"] + cells["n100"],
        "n_b": cells["n111"] + cells["n110"] + cells["n011"] + cells["n010"],
        "n_ab": cells["n111"] + cells["n110"],
        "n_ax": cells["n111"] + cells["n101"],
        "n_bx": cells["n111"] + cells["n011"],
        "n_abx": cells["n111"],
    }


def ratios(t: dict[str, int]) -> tuple[float, float, float]:
    return t["n_ax"] / t["n_a"], t["n_bx"] / t["n_b"], t["n_abx"] / t["n_ab"]


def interference_endpoints(t: dict[str, int]) -> tuple[float, float]:
    """Unclamped (lo, hi) of the interference interval.

    With r = sqrt(n_a n_b) and the two cosine sums at their extremes,
    hi = (r avg + n_abx) / (r + n_abx - n_abx') and
    lo = (r avg - n_abx) / (r - n_abx + n_abx').
    """
    r = math.sqrt(t["n_a"] * t["n_b"])
    avg = 0.5 * (t["n_ax"] / t["n_a"] + t["n_bx"] / t["n_b"])
    k, k_bar = t["n_abx"], t["n_ab"] - t["n_abx"]
    return (r * avg - k) / (r - k + k_bar), (r * avg + k) / (r + k - k_bar)


def model(mu_a: float, mu_b: float, p_a: float, p_b: float, c: float, c_prime: float,
          phi: float, phi_prime: float) -> float:
    """The six-parameter context-plus-interference probability, unclamped."""
    w = 2.0 * math.sqrt(p_a * p_b)
    inside = math.sqrt(mu_a * mu_b) * c * math.cos(phi)
    outside = math.sqrt((1.0 - mu_a) * (1.0 - mu_b)) * c_prime * math.cos(phi_prime)
    return (p_a * mu_a + p_b * mu_b + w * inside) / (p_a + p_b + w * (inside + outside))


def context_endpoints(mu_a: float, mu_b: float, p_a: float, p_b: float, c: float,
                      c_prime: float) -> tuple[float, float]:
    """Unclamped (lo, hi) over all phases: (phi, phi') = (pi, 0) and (0, pi)."""
    return (model(mu_a, mu_b, p_a, p_b, c, c_prime, math.pi, 0.0),
            model(mu_a, mu_b, p_a, p_b, c, c_prime, 0.0, math.pi))


def extension(mu_a: float, mu_b: float, mu_ab: float) -> str:
    lo, hi = min(mu_a, mu_b), max(mu_a, mu_b)
    if abs(mu_ab - lo) <= 1e-12 or abs(mu_ab - hi) <= 1e-12:
        return "boundary"
    if mu_ab > hi:
        return "double_overextension"
    if mu_ab < lo:
        return "double_underextension"
    return "single_extension"


def strategy_for(mu_a: float, mu_b: float, target: float) -> str | None:
    """The fit strategy a target calls for; None on a tie with mu_a or mu_b,
    where either neighbouring strategy is a correct choice."""
    if target in (mu_a, mu_b):
        return None
    if target < min(mu_a, mu_b):
        return "underextension_branch"
    if target > max(mu_a, mu_b):
        return "overextension_branch"
    return "convex_no_interference"


def close(x: float, y: float, tol: float = INTERVAL_TOL) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def check_fit(fit: dict, mu_a: float, mu_b: float, target: float, pinned: dict | None = None) -> list[str]:
    """Problems with a fit given as its as_dict(): residual, strategy, pins."""
    problems = []
    mu = model(mu_a, mu_b, fit["p_a"], fit["p_b"], fit["c"], fit["c_prime"], fit["phi"], fit["phi_prime"])
    residual = abs(clamp01(mu) - target)
    if not residual <= RESIDUAL_BOUND:
        problems.append(f"fit residual {residual!r} > {RESIDUAL_BOUND} at {(mu_a, mu_b, target)}")
    if strategy_for(mu_a, mu_b, target) not in (None, fit["strategy"]):
        problems.append(f"fit strategy {fit['strategy']} for {(mu_a, mu_b, target)}")
    for key, value in (pinned or {}).items():
        if fit[key] != value:
            problems.append(f"pinned {key}={value!r} came back as {fit[key]!r}")
    return problems


def check_interval(got: dict, lo: float, hi: float) -> list[str]:
    """Problems with an interval given as {lo, hi, raw_lo, raw_hi}."""
    want = {"raw_lo": lo, "raw_hi": hi, "lo": clamp01(lo), "hi": clamp01(hi)}
    return [f"interval {k} {got[k]!r} != {v!r}" for k, v in want.items() if not close(got[k], v)]


def check_report(report: dict, table: dict[str, int]) -> list[str]:
    """Problems with a report given as its as_dict(), against the table alone."""
    problems = []
    if report["table"] != table:
        problems.append(f"report table {report['table']} != {table}")
    mu_a, mu_b, mu_ab = ratios(table)
    triple = report["triple"]
    for key, value in (("mu_a", mu_a), ("mu_b", mu_b), ("mu_ab_observed", mu_ab)):
        if not close(triple[key], value):
            problems.append(f"report {key} {triple[key]!r} != {value!r}")
    if report["extension"] != extension(mu_a, mu_b, mu_ab):
        problems.append(f"report extension {report['extension']}")
    lo, hi = interference_endpoints(table)
    problems += check_interval(report["interference"], lo, hi)
    inside = clamp01(lo) - 1e-12 <= mu_ab <= clamp01(hi) + 1e-12
    if report["interference_only_feasible"] != inside:
        problems.append("report interference_only_feasible disagrees with the interval")
    if report["context_only_feasible"] != (min(mu_a, mu_b) <= mu_ab <= max(mu_a, mu_b)):
        problems.append("report context_only_feasible disagrees with the ratios")
    problems += check_fit(report["fit"], mu_a, mu_b, mu_ab)
    return problems
