"""Exact complex-vector machinery over a finite page basis.

Implements:
  * StateVector: unit vectors sum_j a_j e^{i alpha_j} |e_j> over n basis pages.
  * SubsetProjector / DenseProjector: orthogonal projectors (diagonal 0/1
    pattern over a basis-index set, or a validated Hermitian idempotent).
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
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .errors import QoccError

NORM_TOL = 1e-12          # unit-norm acceptance for states
PROJECTOR_TOL = 1e-10     # Hermiticity / idempotence acceptance, entrywise
ANNIHILATION_TOL = 1e-12  # smallest surviving norm after a context projection
CLAMP_TOL = 1e-9          # probability round-off absorbed silently
ORACLE_PATH_TOL = 1e-12   # agreement required between the two mu routes
DENSE_DIM_LIMIT = 64      # dense matrices are an oracle-scale device only


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


@dataclass(frozen=True)
class SubsetProjector:
    """Projector onto the basis vectors indexed by ``indices`` (0-based)."""

    dim: int
    indices: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DimensionMismatch("projector dimension must be >= 1")
        idx = frozenset(int(i) for i in self.indices)
        if any(i < 0 or i >= self.dim for i in idx):
            raise DimensionMismatch(f"indices must lie in [0, {self.dim})")
        object.__setattr__(self, "indices", idx)


@dataclass(frozen=True)
class DenseProjector:
    """General orthogonal projector given as a Hermitian idempotent matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        p = np.array(self.matrix, dtype=np.complex128)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
            raise DimensionMismatch("projector matrix must be square and nonempty")
        if p.shape[0] > DENSE_DIM_LIMIT:
            raise DimensionMismatch(
                f"dense projectors are capped at dim {DENSE_DIM_LIMIT}; "
                "use SubsetProjector for larger spaces"
            )
        if not np.allclose(p, p.conj().T, rtol=0.0, atol=PROJECTOR_TOL):
            raise NumericsError("projector matrix is not Hermitian within tolerance")
        if not np.allclose(p @ p, p, rtol=0.0, atol=PROJECTOR_TOL):
            raise NumericsError("projector matrix is not idempotent within tolerance")
        p.flags.writeable = False
        object.__setattr__(self, "matrix", p)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


Projector = Union[SubsetProjector, DenseProjector]


def identity_projector(dim: int) -> SubsetProjector:
    return SubsetProjector(dim, frozenset(range(dim)))


def basis_state(dim: int, index: int) -> StateVector:
    """|e_index> in an n-dimensional space."""
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


def characteristic_state(
    dim: int,
    indices: frozenset[int] | set[int],
    phases: Mapping[int, float] | None = None,
) -> StateVector:
    """Uniform-modulus state (1/sqrt|J|) sum_{j in J} e^{i phase_j} |e_j>."""
    idx = sorted(int(i) for i in indices)
    if not idx:
        raise EmptyIndexSet("characteristic state needs a nonempty index set")
    if idx[0] < 0 or idx[-1] >= dim:
        raise DimensionMismatch(f"indices must lie in [0, {dim})")
    amps = np.zeros(dim, dtype=np.complex128)
    scale = 1.0 / math.sqrt(len(idx))
    for j in idx:
        theta = 0.0 if phases is None else float(phases.get(j, 0.0))
        amps[j] = scale * complex(math.cos(theta), math.sin(theta))
    return StateVector(amps)


def _check_dims(psi: StateVector, *projectors: Projector) -> None:
    for proj in projectors:
        if proj.dim != psi.dim:
            raise DimensionMismatch(f"state dim {psi.dim} != projector dim {proj.dim}")


def project(proj: Projector, vec: np.ndarray) -> np.ndarray:
    """Apply the projector to a raw amplitude vector."""
    if isinstance(proj, SubsetProjector):
        out = np.zeros_like(vec)
        for j in proj.indices:
            out[j] = vec[j]
        return out
    return proj.matrix @ vec


def born_probability(psi: StateVector, m: Projector) -> float:
    """<psi|M|psi>, the probability of the outcome subspace of M."""
    _check_dims(psi, m)
    value = float(np.vdot(psi.amplitudes, project(m, psi.amplitudes)).real)
    return as_probability(value)


def apply_context(psi: StateVector, n_proj: Projector) -> StateVector:
    """N|psi> / ||N|psi>||, the deterministic pre-measurement state change."""
    _check_dims(psi, n_proj)
    projected = project(n_proj, psi.amplitudes)
    norm = float(np.linalg.norm(projected))
    if norm < ANNIHILATION_TOL:
        raise AnnihilatedState("state is orthogonal to the context subspace")
    return StateVector(projected / norm)


def mu_with_context(psi: StateVector, n_proj: Projector, m: Projector) -> float:
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
    n_proj: Projector,
    m: Projector,
) -> float:
    """Probability that the combined concept passes M after the context N.

    Computed twice: directly, as mu_with_context(superpose(a, b), N, M), and
    through the expansion

        (<a|NMN|a> + <b|NMN|b> + 2 Re <a|NMN|b>)
        -----------------------------------------
        (<a|N|a>   + <b|N|b>   + 2 Re <a|N|b>)

    The two routes must agree to within round-off; disagreement raises
    NumericsError because it can only come from a bug.
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
    denominator = (
        float(np.vdot(na, na).real)
        + float(np.vdot(nb, nb).real)
        + 2.0 * float(np.vdot(na, nb).real)
    )
    if denominator <= ANNIHILATION_TOL:
        raise AnnihilatedState("combined context weight vanishes")
    expanded = numerator / denominator

    if abs(direct - expanded) > ORACLE_PATH_TOL:
        raise NumericsError(
            f"combined-probability routes disagree: {direct!r} vs {expanded!r}"
        )
    return as_probability(direct)
