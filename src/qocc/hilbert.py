"""Exact complex-vector machinery over a finite page basis.

Implements:
  * StateVector: unit vectors sum_j a_j e^{i alpha_j} |e_j> over n basis pages.
  * SubsetProjector: the orthogonal projector onto a set of basis pages, a
    diagonal 0/1 pattern, so any two of them commute as the model assumes.
  * born_probability: <psi|M|psi>.
  * apply_context / mu_with_context: N|psi>/||N|psi>|| and the conditional
    probability <psi|N M N|psi> / <psi|N|psi>.
  * superpose: (|a> + |b>) / |||a> + |b>||, the equal-footing combination.
  * characteristic_state: uniform-modulus state over an index set with free
    per-page phases.
  * mu_combined: probability of the combined concept, computed along two
    independent routes (projected superposition vs. the term-by-term
    expansion) and cross-checked.
  * DimensionMismatch, AnnihilatedState, DegenerateSuperposition,
    EmptyIndexSet, NumericsError: the oracle's own QoccError subclasses.

Everything here is brute-force linear algebra at small dimension.  The
aggregate count-ratio formulas elsewhere in the package are tested against
these routines, so this module deliberately avoids any shortcut that would
share code with them.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import QoccError

NORM_TOL = 1e-12          # unit-norm acceptance for states
ANNIHILATION_TOL = 1e-12  # smallest surviving norm after a context projection
CLAMP_TOL = 1e-9          # probability round-off absorbed silently
ORACLE_PATH_TOL = 1e-12   # agreement required between the two mu routes
EXPANSION_ROUNDING = 8 * 2.0**-52  # the expansion's rounding per unit of weights / denominator


class DimensionMismatch(QoccError):
    """Operands live in Hilbert spaces of different dimension."""


class AnnihilatedState(QoccError):
    """A context projection left (numerically) nothing of the state."""


class DegenerateSuperposition(QoccError):
    """The two states cancel, so their sum cannot be normalized."""


class EmptyIndexSet(QoccError):
    """A basis-index set that must be nonempty is empty."""


class NumericsError(QoccError):
    """A computed value violates a bound by more than round-off can explain."""


def as_probability(value: float) -> float:
    """Clamp round-off at the [0, 1] edges; larger excursions are bugs."""
    if value < -CLAMP_TOL or value > 1.0 + CLAMP_TOL:
        raise NumericsError(f"value {value!r} is outside [0, 1] beyond round-off")
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class StateVector:
    """Unit vector of complex amplitudes over the page basis."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 1:
            raise DimensionMismatch("amplitudes must be a nonempty 1-d vector")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            # reject rather than renormalize: a bad norm means a bad construction
            raise NumericsError(f"state norm^2 = {norm_sq!r} deviates from 1 beyond {NORM_TOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)


def _index_set(dim: int, indices: Iterable[int]) -> frozenset[int]:
    """The page indices as a set of ints in [0, dim); a float or str index is refused."""
    idx = frozenset(operator.index(i) for i in indices)
    if any(i < 0 or i >= dim for i in idx):
        raise DimensionMismatch(f"indices must lie in [0, {dim})")
    return idx


@dataclass(frozen=True)
class SubsetProjector:
    """Projector onto the basis vectors indexed by ``indices`` (0-based)."""

    dim: int
    indices: frozenset[int]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DimensionMismatch("projector dimension must be >= 1")
        object.__setattr__(self, "indices", _index_set(self.dim, self.indices))


def identity_projector(dim: int) -> SubsetProjector:
    return SubsetProjector(dim, frozenset(range(dim)))


def characteristic_state(
    dim: int,
    indices: frozenset[int] | set[int],
    phases: Mapping[int, float] | None = None,
) -> StateVector:
    """Uniform-modulus state (1/sqrt|J|) sum_{j in J} e^{i phase_j} |e_j>."""
    idx = sorted(_index_set(dim, indices))
    if not idx:
        raise EmptyIndexSet("characteristic state needs a nonempty index set")
    amps = np.zeros(dim, dtype=np.complex128)
    scale = 1.0 / math.sqrt(len(idx))
    for j in idx:
        theta = 0.0 if phases is None else float(phases.get(j, 0.0))
        amps[j] = scale * complex(math.cos(theta), math.sin(theta))
    return StateVector(amps)


def _check_dims(psi: StateVector, *projectors: SubsetProjector) -> None:
    for proj in projectors:
        if proj.dim != psi.dim:
            raise DimensionMismatch(f"state dim {psi.dim} != projector dim {proj.dim}")


def project(proj: SubsetProjector, vec: np.ndarray) -> np.ndarray:
    """Apply the projector to a raw amplitude vector."""
    out = np.zeros_like(vec)
    for j in proj.indices:
        out[j] = vec[j]
    return out


def born_probability(psi: StateVector, m: SubsetProjector) -> float:
    """<psi|M|psi>, the probability of the outcome subspace of M."""
    _check_dims(psi, m)
    value = float(np.vdot(psi.amplitudes, project(m, psi.amplitudes)).real)
    return as_probability(value)


def apply_context(psi: StateVector, n_proj: SubsetProjector) -> StateVector:
    """N|psi> / ||N|psi>||, the deterministic pre-measurement state change."""
    _check_dims(psi, n_proj)
    projected = project(n_proj, psi.amplitudes)
    norm = float(np.linalg.norm(projected))
    if norm < ANNIHILATION_TOL:
        raise AnnihilatedState("state is orthogonal to the context subspace")
    return StateVector(projected / norm)


def mu_with_context(psi: StateVector, n_proj: SubsetProjector, m: SubsetProjector) -> float:
    """<psi|N M N|psi> / <psi|N|psi>, probability after the context N acts."""
    _check_dims(psi, n_proj, m)
    contexted = project(n_proj, psi.amplitudes)
    weight = float(np.vdot(contexted, contexted).real)
    if weight <= ANNIHILATION_TOL:
        raise AnnihilatedState("context weight <psi|N|psi> vanishes")
    value = float(np.vdot(contexted, project(m, contexted)).real) / weight
    return as_probability(value)


def superpose(psi_a: StateVector, psi_b: StateVector) -> StateVector:
    """(|a> + |b>) / |||a> + |b>||, both states entering on equal footing."""
    if psi_a.dim != psi_b.dim:
        raise DimensionMismatch(f"dims {psi_a.dim} != {psi_b.dim}")
    total = psi_a.amplitudes + psi_b.amplitudes
    norm = float(np.linalg.norm(total))
    if norm < ANNIHILATION_TOL:
        raise DegenerateSuperposition("states cancel; superposition is the zero vector")
    return StateVector(total / norm)


def mu_combined(
    psi_a: StateVector,
    psi_b: StateVector,
    n_proj: SubsetProjector,
    m: SubsetProjector,
) -> float:
    """Probability that the combined concept passes M after the context N.

    Computed twice: directly, as mu_with_context(superpose(a, b), N, M), and
    through the expansion

        (<a|NMN|a> + <b|NMN|b> + 2 Re <a|NMN|b>)
        -----------------------------------------
        (<a|N|a>   + <b|N|b>   + 2 Re <a|N|b>)

    The two routes must agree to within ORACLE_PATH_TOL plus the expansion's
    own rounding, EXPANSION_ROUNDING * (<a|N|a> + <b|N|b>) / denominator: the
    cross term cancels the two weights where the states interfere
    destructively, and the direct route adds no such loss.  A disagreement
    beyond that raises NumericsError.  A denominator that rounds to zero or
    below bounds nothing, so only the states the direct route refuses are
    refused.
    """
    _check_dims(psi_a, n_proj, m)
    direct = mu_with_context(superpose(psi_a, psi_b), n_proj, m)

    na = project(n_proj, psi_a.amplitudes)
    nb = project(n_proj, psi_b.amplitudes)
    mna = project(m, na)
    mnb = project(m, nb)
    numerator = (
        float(np.vdot(na, mna).real)
        + float(np.vdot(nb, mnb).real)
        + 2.0 * float(np.vdot(na, mnb).real)
    )
    weights = float(np.vdot(na, na).real) + float(np.vdot(nb, nb).real)
    denominator = weights + 2.0 * float(np.vdot(na, nb).real)
    if denominator > 0.0:
        expanded = numerator / denominator
        if abs(direct - expanded) > ORACLE_PATH_TOL + EXPANSION_ROUNDING * weights / denominator:
            raise NumericsError(
                f"combined-probability routes disagree: {direct!r} vs {expanded!r}"
            )
    return as_probability(direct)
