"""Shared builders: random page universes, model-parameter extraction, a reference tally."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from qocc.context_model import ModelParams
from qocc.corpus import CountTable, ThreeTermCounts
from qocc.hilbert import (
    Projector,
    StateVector,
    SubsetProjector,
    characteristic_state,
    project,
)
from qocc.interference import PhaseAssignment


@dataclass(frozen=True)
class Web:
    """A small synthetic page universe with word-occurrence index sets."""

    dim: int
    j_a: frozenset[int]
    j_b: frozenset[int]
    j_x: frozenset[int]
    alphas: dict[int, float]
    betas: dict[int, float]

    @property
    def state_a(self) -> StateVector:
        return characteristic_state(self.dim, self.j_a, self.alphas)

    @property
    def state_b(self) -> StateVector:
        return characteristic_state(self.dim, self.j_b, self.betas)

    @property
    def word_projector(self) -> SubsetProjector:
        return SubsetProjector(self.dim, self.j_x)

    def count_table(self) -> CountTable:
        """Exact set-cardinality counts, the independent route to the table."""
        ab = self.j_a & self.j_b
        return CountTable(
            n_a=len(self.j_a),
            n_b=len(self.j_b),
            n_ab=len(ab),
            n_ax=len(self.j_a & self.j_x),
            n_bx=len(self.j_b & self.j_x),
            n_abx=len(ab & self.j_x),
        )

    def phase_assignment(self) -> PhaseAssignment:
        """Per-page phase differences beta_j - alpha_j over the shared pages."""
        ab = self.j_a & self.j_b
        with_x = sorted(ab & self.j_x)
        without_x = sorted(ab - self.j_x)
        return PhaseAssignment(
            deltas_x=tuple(self.betas[j] - self.alphas[j] for j in with_x),
            deltas_x_prime=tuple(self.betas[j] - self.alphas[j] for j in without_x),
        )


def random_subset(rng: np.random.Generator, dim: int, nonempty: bool = True) -> frozenset[int]:
    while True:
        density = rng.uniform(0.2, 0.9)
        chosen = frozenset(int(j) for j in np.flatnonzero(rng.random(dim) < density))
        if chosen or not nonempty:
            return chosen


def random_web(rng: np.random.Generator, max_dim: int = 12) -> Web:
    dim = int(rng.integers(2, max_dim + 1))
    j_a = random_subset(rng, dim)
    j_b = random_subset(rng, dim)
    j_x = random_subset(rng, dim, nonempty=False)
    alphas = {j: float(rng.uniform(0.0, 2.0 * math.pi)) for j in j_a}
    betas = {j: float(rng.uniform(0.0, 2.0 * math.pi)) for j in j_b}
    return Web(dim, j_a, j_b, j_x, alphas, betas)


def superposition_is_degenerate(web: Web) -> bool:
    """True when the two characteristic states nearly cancel."""
    total = web.state_a.amplitudes + web.state_b.amplitudes
    return float(np.linalg.norm(total)) < 1e-6


def extract_model_params(
    psi_a: StateVector,
    psi_b: StateVector,
    n_proj: Projector,
    m: Projector,
) -> tuple[float, float, ModelParams]:
    """Read (mu_a, mu_b, ModelParams) off explicit states.

    Splits each contexted state into its component inside the measured
    subspace and the component outside it, then measures the moduli and
    relative phases of the two overlaps.  Requires N and M to commute,
    which subset projectors always do.
    """
    na = project(n_proj, psi_a.amplitudes)
    nb = project(n_proj, psi_b.amplitudes)
    p_a = float(np.vdot(na, na).real)
    p_b = float(np.vdot(nb, nb).real)
    if min(p_a, p_b) <= 1e-12:
        raise ValueError("context annihilates a state; pick another web")

    in_a, in_b = project(m, na), project(m, nb)
    out_a, out_b = na - in_a, nb - in_b
    a_mod = float(np.linalg.norm(in_a))
    b_mod = float(np.linalg.norm(in_b))
    a_out = float(np.linalg.norm(out_a))
    b_out = float(np.linalg.norm(out_b))

    mu_a = min(1.0, a_mod**2 / p_a)
    mu_b = min(1.0, b_mod**2 / p_b)

    overlap_in = complex(np.vdot(in_a, in_b))
    overlap_out = complex(np.vdot(out_a, out_b))
    if a_mod * b_mod > 1e-12:
        c = min(1.0, abs(overlap_in) / (a_mod * b_mod))
        phi = cmath.phase(overlap_in)
    else:
        c, phi = 0.0, math.pi / 2.0
    if a_out * b_out > 1e-12:
        c_prime = min(1.0, abs(overlap_out) / (a_out * b_out))
        phi_prime = cmath.phase(overlap_out)
    else:
        c_prime, phi_prime = 0.0, math.pi / 2.0

    params = ModelParams(
        p_a=min(1.0, p_a), p_b=min(1.0, p_b),
        c=c, c_prime=c_prime, phi=phi, phi_prime=phi_prime,
    )
    return mu_a, mu_b, params


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20161108)


def brute_force_cells(documents, a: str, b: str, x: str) -> ThreeTermCounts:
    """Reference tally: one presence set per document, built on the spot."""
    cells = dict.fromkeys(("n111", "n110", "n101", "n100", "n011", "n010", "n001", "n000"), 0)
    for doc in documents:
        present = set(doc.tokens)
        cells[f"n{int(a in present)}{int(b in present)}{int(x in present)}"] += 1
    return ThreeTermCounts(**cells)
