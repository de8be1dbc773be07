"""Vector-level machinery: constructors, Born rule, context, superposition."""
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from qocc import hilbert
from qocc.hilbert import (
    AnnihilatedState,
    DegenerateSuperposition,
    DimensionMismatch,
    EmptyIndexSet,
    NumericsError,
    StateVector,
    SubsetProjector,
    apply_context,
    born_probability,
    characteristic_state,
    identity_projector,
    mu_combined,
    mu_with_context,
    project,
    superpose,
)

from conftest import random_web, superposition_is_degenerate


class TestProbabilityClamp:
    def test_round_off_is_absorbed(self):
        from qocc.hilbert import as_probability

        assert as_probability(1.0 + 5e-10) == 1.0
        assert as_probability(-5e-10) == 0.0

    def test_large_excursions_raise(self):
        from qocc.hilbert import as_probability

        with pytest.raises(NumericsError):
            as_probability(1.0 + 1e-8)
        with pytest.raises(NumericsError):
            as_probability(-1e-8)


class TestConstructors:
    def test_state_rejects_bad_norm(self):
        with pytest.raises(NumericsError):
            StateVector(np.array([0.5, 0.5], dtype=complex))

    def test_state_accepts_norm_within_tolerance(self):
        amps = np.array([1.0 + 4e-13, 0.0], dtype=complex)
        assert StateVector(amps).dim == 2

    def test_state_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            StateVector(np.array([], dtype=complex))

    def test_subset_projector_rejects_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            SubsetProjector(3, frozenset({3}))

    def test_subset_projector_rejects_zero_dimension(self):
        with pytest.raises(DimensionMismatch, match=r"^projector dimension must be >= 1$"):
            SubsetProjector(0, frozenset())

    def test_subset_projector_rejects_non_integer_index(self):
        with pytest.raises(TypeError):
            SubsetProjector(3, frozenset({1.5}))

    def test_characteristic_state_rejects_non_integer_index(self):
        with pytest.raises(TypeError):
            characteristic_state(3, {1.7})

    def test_characteristic_state_rejects_empty_set(self):
        with pytest.raises(EmptyIndexSet):
            characteristic_state(4, frozenset())


class TestBornProbability:
    def test_eigenstate(self):
        assert born_probability(characteristic_state(4, {0}), SubsetProjector(4, {0})) == 1.0

    def test_orthogonal(self):
        assert born_probability(characteristic_state(4, {0}), SubsetProjector(4, {1, 2})) == 0.0

    def test_uniform_half_weight(self):
        # |<chi|M|chi>| = |J intersect J_X| / |J| for zero phases
        chi = characteristic_state(8, frozenset(range(4)))
        assert born_probability(chi, SubsetProjector(8, {0, 1})) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            born_probability(characteristic_state(3, {0}), SubsetProjector(4, {0}))

    def test_phase_choice_never_moves_single_word_probability(self, rng):
        # the marginal <chi|M|chi> depends only on the index sets
        for _ in range(50):
            web = random_web(rng)
            mu_plain = born_probability(
                characteristic_state(web.dim, web.j_a), web.word_projector
            )
            mu_phased = born_probability(web.state_a, web.word_projector)
            assert mu_phased == pytest.approx(mu_plain, abs=1e-12)

    def test_dense_equals_subset_on_same_subspace(self, rng):
        for _ in range(20):
            web = random_web(rng, max_dim=8)
            mask = np.diag([1.0 if j in web.j_x else 0.0 for j in range(web.dim)])
            amps = web.state_a.amplitudes
            assert np.array_equal(project(web.word_projector, amps), mask @ amps)


class TestApplyContext:
    def test_identity_context(self):
        psi = characteristic_state(4, {0})
        out = apply_context(psi, identity_projector(4))
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_projection_then_renormalization(self):
        psi = StateVector(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))
        out = apply_context(psi, SubsetProjector(2, {0}))
        assert np.allclose(out.amplitudes, characteristic_state(2, {0}).amplitudes)

    def test_orthogonal_state_is_annihilated(self):
        with pytest.raises(AnnihilatedState):
            apply_context(characteristic_state(2, {1}), SubsetProjector(2, {0}))

    def test_result_is_normalized_and_in_range(self, rng):
        for _ in range(50):
            web = random_web(rng)
            try:
                out = apply_context(web.state_a, web.word_projector)
            except AnnihilatedState:
                continue
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
            # lies in the range of the projector: projecting again changes nothing
            assert np.allclose(project(web.word_projector, out.amplitudes), out.amplitudes, atol=1e-10)


class TestMuWithContext:
    def test_trivial(self):
        psi = characteristic_state(4, {0})
        assert mu_with_context(psi, identity_projector(4), SubsetProjector(4, {0})) == 1.0

    def test_hand_expansion_half(self):
        psi = characteristic_state(3, frozenset({0, 1, 2}))
        value = mu_with_context(psi, SubsetProjector(3, {0, 1}), SubsetProjector(3, {0}))
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_matches_two_step_composition(self, rng):
        for _ in range(100):
            dim = 6
            amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi = StateVector(amps / np.linalg.norm(amps))
            n_proj = SubsetProjector(dim, {int(j) for j in rng.choice(dim, size=3, replace=False)})
            m = SubsetProjector(dim, {int(j) for j in rng.choice(dim, size=2, replace=False)})
            try:
                one_shot = mu_with_context(psi, n_proj, m)
            except AnnihilatedState:
                continue
            two_step = born_probability(apply_context(psi, n_proj), m)
            assert one_shot == pytest.approx(two_step, abs=1e-12)


class TestSuperpose:
    def test_identical_states(self):
        psi = characteristic_state(3, {0})
        assert np.allclose(superpose(psi, psi).amplitudes, psi.amplitudes)

    def test_orthogonal_states(self):
        out = superpose(characteristic_state(2, {0}), characteristic_state(2, {1}))
        assert np.allclose(out.amplitudes, np.array([1.0, 1.0]) / math.sqrt(2.0))

    def test_cancellation_raises(self):
        plus = characteristic_state(2, {0})
        minus = StateVector(-plus.amplitudes)
        with pytest.raises(DegenerateSuperposition):
            superpose(plus, minus)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"^dims 2 != 3$"):
            superpose(characteristic_state(2, {0}), characteristic_state(3, {0}))

    def test_normalization_preserved(self, rng):
        for _ in range(50):
            web = random_web(rng)
            if superposition_is_degenerate(web):
                continue
            out = superpose(web.state_a, web.state_b)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


class TestCharacteristicState:
    def test_single_index_is_basis_vector(self):
        assert np.allclose(characteristic_state(4, {0}).amplitudes, np.eye(4)[0])

    def test_pi_phase_flips_sign(self):
        out = characteristic_state(4, {0, 1}, {0: 0.0, 1: math.pi})
        expected = np.array([1.0, -1.0, 0.0, 0.0]) / math.sqrt(2.0)
        assert np.allclose(out.amplitudes, expected, atol=1e-15)

    def test_uniform_moduli(self, rng):
        web = random_web(rng)
        state = web.state_a
        expected = 1.0 / math.sqrt(len(web.j_a))
        for j in range(web.dim):
            magnitude = abs(state.amplitudes[j])
            assert magnitude == pytest.approx(expected if j in web.j_a else 0.0, abs=1e-15)


class TestMuCombined:
    def test_trivial_same_state(self):
        psi = characteristic_state(3, {0})
        assert mu_combined(psi, psi, identity_projector(3), SubsetProjector(3, {0})) == 1.0

    def test_orthogonal_pair_is_plain_average(self):
        # no overlap: the value reduces to (mu_a + mu_b) / 2 with zero cross term
        value = mu_combined(
            characteristic_state(2, {0}), characteristic_state(2, {1}),
            identity_projector(2), SubsetProjector(2, {0}),
        )
        assert value == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("theta", [1e-2, 1e-3])
    def test_destructive_interference_keeps_the_direct_value(self, theta):
        # the expansion's denominator, about theta**2 / 2, is left by terms near 1 that cancel
        half = math.sin(theta) / math.sqrt(2.0)
        psi_a, psi_b = StateVector([1.0, 0.0, 0.0]), StateVector([-math.cos(theta), half, half])
        value = mu_combined(psi_a, psi_b, SubsetProjector(3, {0, 1}), SubsetProjector(3, {0}))
        # N(a + b) = (1 - cos theta, half, 0) exactly, and M keeps its first page
        kept = (1 - Fraction(math.cos(theta))) ** 2
        assert value == pytest.approx(float(kept / (kept + Fraction(half) ** 2)), rel=1e-14)

    def test_an_expansion_denominator_that_rounds_to_zero_leaves_the_direct_value(self):
        theta = 1e-4
        psi_a, psi_b = StateVector([1.0, 0.0]), StateVector([-math.cos(theta), math.sin(theta)])
        context = SubsetProjector(2, {0})
        assert mu_combined(psi_a, psi_b, context, context) == 1.0

    @pytest.mark.parametrize("direct, raises", [(0.5 + 9e-13, False), (0.5 + 1.1e-12, True)])
    def test_routes_that_disagree_beyond_the_tolerance_raise(self, monkeypatch, direct, raises):
        # orthogonal states: the expansion gives exactly 1/2, with weights / denominator = 1
        monkeypatch.setattr(hilbert, "mu_with_context", lambda psi, n_proj, m: direct)
        states = characteristic_state(2, {0}), characteristic_state(2, {1})
        projectors = identity_projector(2), SubsetProjector(2, {0})
        if raises:
            message = f"combined-probability routes disagree: {direct!r} vs 0.5"
            with pytest.raises(NumericsError, match=f"^{re.escape(message)}$"):
                mu_combined(*states, *projectors)
        else:
            assert mu_combined(*states, *projectors) == direct

    def test_expansion_route_agrees_with_direct_route(self, rng):
        # mu_combined raises NumericsError internally if its two routes differ
        checked = 0
        while checked < 200:
            web = random_web(rng)
            if superposition_is_degenerate(web):
                continue
            n_proj = SubsetProjector(web.dim, frozenset(random_subset_indices(rng, web.dim)))
            try:
                value = mu_combined(web.state_a, web.state_b, n_proj, web.word_projector)
            except AnnihilatedState:
                continue
            assert 0.0 <= value <= 1.0
            checked += 1

    def test_uniform_average_reduction_when_context_fixes_states(self, rng):
        # with both states untouched by the context, the value equals
        # ((mu_a + mu_b)/2 + Re<A|M|B>) / (1 + Re<A|B>)
        checked = 0
        while checked < 100:
            web = random_web(rng)
            if superposition_is_degenerate(web):
                continue
            psi_a, psi_b, m = web.state_a, web.state_b, web.word_projector
            direct = mu_combined(psi_a, psi_b, identity_projector(web.dim), m)
            mu_a = born_probability(psi_a, m)
            mu_b = born_probability(psi_b, m)
            cross_m = float(np.vdot(psi_a.amplitudes, project(m, psi_b.amplitudes)).real)
            cross = float(np.vdot(psi_a.amplitudes, psi_b.amplitudes).real)
            reduced = (0.5 * (mu_a + mu_b) + cross_m) / (1.0 + cross)
            assert direct == pytest.approx(reduced, abs=1e-12)
            checked += 1

    def test_orthogonal_reduction_drops_denominator(self, rng):
        # disjoint supports make <A|B> = 0, leaving the average plus cross term
        checked = 0
        while checked < 50:
            web = random_web(rng)
            j_b = frozenset(range(web.dim)) - web.j_a
            if not j_b:
                continue
            psi_a = web.state_a
            psi_b = characteristic_state(web.dim, j_b, web.betas)
            m = web.word_projector
            direct = mu_combined(psi_a, psi_b, identity_projector(web.dim), m)
            mu_a = born_probability(psi_a, m)
            mu_b = born_probability(psi_b, m)
            cross_m = float(np.vdot(psi_a.amplitudes, project(m, psi_b.amplitudes)).real)
            assert direct == pytest.approx(0.5 * (mu_a + mu_b) + cross_m, abs=1e-12)
            checked += 1


def random_subset_indices(rng, dim):
    size = int(rng.integers(1, dim + 1))
    return {int(j) for j in rng.choice(dim, size=size, replace=False)}


class TestProjectorProperties:
    def test_subset_idempotence(self, rng):
        for _ in range(30):
            web = random_web(rng)
            vec = web.state_a.amplitudes
            once = project(web.word_projector, vec)
            assert np.allclose(project(web.word_projector, once), once, atol=1e-10)
