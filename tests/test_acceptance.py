"""Acceptance suite: one test per exit criterion, each prints PASS or FAIL.

Criteria 1 and 3b compare against values recorded with the bundled dataset.
Those recorded values are internally inconsistent (see the fixtures module
docstring and the README section on known dataset discrepancies), so the two
tests fail honestly rather than loosening their stated tolerances.  Every
computed quantity they exercise is validated independently by criteria 2, 3a
and 4, which pass.
"""
import copy
import math
import pickle
import time

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qocc.context_model import (
    fit_params,
    mu_ab_convex,
    mu_ab_cosines,
    mu_ab_full,
    ModelParams,
)
from qocc.corpus import Corpus, CountTable, Document, count_corpus, marginals, probabilities
from qocc.errors import DegenerateDenominator
from qocc.fixtures import CONTEXT_EXAMPLES, INTERFERENCE_FEASIBLE, ROWS, exemplar_table
from qocc.hilbert import born_probability, identity_projector, mu_combined, project
from qocc.interference import interference_interval, mu_ab_interference
from qocc.report import fits_interference_only

from conftest import brute_force_cells, extract_model_params, random_web, superposition_is_degenerate


def report(number: str, passed: bool, detail: str) -> None:
    print(f"CRITERION {number}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_recorded_interval_endpoints():
    """All 16 recorded interval endpoints within 0.5% of recomputation, < 1 s."""
    start = time.perf_counter()
    failures = []
    for row in ROWS:
        interval = interference_interval(exemplar_table(row.name))
        for cell, computed, recorded in (
            ("mu_min", interval.lo, row.reported_lo),
            ("mu_max", interval.hi, row.reported_hi),
        ):
            relative = abs(computed - recorded) / recorded
            if relative > 0.005:
                failures.append(
                    f"{row.name}/{cell}: computed {computed:.4e} vs recorded "
                    f"{recorded:.2e} (off by {relative:.1%})"
                )
    elapsed = time.perf_counter() - start
    passed = not failures and elapsed < 1.0
    report("1", passed, f"{16 - len(failures)}/16 endpoint cells within 0.5% in {elapsed:.3f}s")
    assert elapsed < 1.0
    assert not failures, (
        "recorded endpoints are not reproducible from the dataset's own count "
        "ratios (known data inconsistency, see README):\n  " + "\n  ".join(failures)
    )


def test_criterion_2_pinned_parameter_intervals():
    """The four recorded pinned-parameter intervals within 1%, < 1 s."""
    start = time.perf_counter()
    failures = []
    for example in CONTEXT_EXAMPLES:
        triple = probabilities(exemplar_table(example.name))
        lo = mu_ab_cosines(
            triple.mu_a, triple.mu_b, example.p_a, example.p_b,
            example.c, example.c_prime, -1.0, 1.0,
        )
        hi = mu_ab_cosines(
            triple.mu_a, triple.mu_b, example.p_a, example.p_b,
            example.c, example.c_prime, 1.0, -1.0,
        )
        for cell, computed, recorded in (("lo", lo, example.reported_lo), ("hi", hi, example.reported_hi)):
            relative = abs(computed - recorded) / recorded
            if relative > 0.01:
                failures.append(f"{example.name}/{cell}: {computed:.4e} vs {recorded:.2e}")
        if not lo - 1e-12 <= triple.mu_ab_observed <= hi + 1e-12:
            failures.append(f"{example.name}: observed ratio escapes [{lo:.3e}, {hi:.3e}]")
    elapsed = time.perf_counter() - start
    passed = not failures and elapsed < 1.0
    report("2", passed, f"4 pinned intervals reproduced within 1% in {elapsed:.3f}s")
    assert elapsed < 1.0
    assert not failures, "\n".join(failures)


def test_criterion_3a_interference_feasibility_split():
    """Phases alone explain apple, parsley, yam, elderberry and nothing else."""
    observed = {row.name: fits_interference_only(exemplar_table(row.name)) for row in ROWS}
    expected = {row.name: row.name in INTERFERENCE_FEASIBLE for row in ROWS}
    passed = observed == expected
    report("3a", passed, f"interference-only split {observed}")
    assert observed == expected


def test_criterion_3b_context_only_split():
    """Recorded claim: exactly parsley and raisin sit between their marginals."""
    observed = {}
    for row in ROWS:
        triple = probabilities(exemplar_table(row.name))
        observed[row.name] = (
            min(triple.mu_a, triple.mu_b)
            <= triple.mu_ab_observed
            <= max(triple.mu_a, triple.mu_b)
        )
    expected = {row.name: row.name in {"parsley", "raisin"} for row in ROWS}
    passed = observed == expected
    report("3b", passed, f"context-only split {observed}")
    assert observed == expected, (
        "raisin's observed ratio 1.04e-1 exceeds both of its marginals "
        "(3.49e-2 and 3.83e-2), so it cannot sit between them; the recorded "
        "claim contradicts the dataset itself (see README)"
    )


def test_criterion_4_aggregate_formula_equals_vector_oracle():
    """On >= 500 random small webs the count-ratio formula matches brute force."""
    rng = np.random.default_rng(4)
    checked = 0
    worst = 0.0
    while checked < 500:
        web = random_web(rng, max_dim=12)
        if superposition_is_degenerate(web):
            continue
        table = web.count_table()
        try:
            aggregate = mu_ab_interference(table, *web.phase_assignment())
        except DegenerateDenominator:
            continue
        direct = mu_combined(
            web.state_a, web.state_b, identity_projector(web.dim), web.word_projector
        )
        worst = max(worst, abs(aggregate - direct))
        checked += 1
    passed = worst <= 1e-10
    report("4", passed, f"{checked} webs, worst |aggregate - vector| = {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_5_fit_completeness():
    """1000 random triples fit to residual <= 1e-9; endpoints exact, < 5 s."""
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    worst_residual = 0.0
    for _ in range(1000):
        mu_a = float(rng.uniform(0.01, 0.99))
        mu_b = float(rng.uniform(0.01, 0.99))
        target = float(rng.uniform(0.0, 1.0))
        result = fit_params(mu_a, mu_b, target)
        worst_residual = max(worst_residual, result.residual)

    worst_endpoint = 0.0
    for _ in range(200):
        mu_a = float(rng.uniform(0.01, 0.99))
        mu_b = float(rng.uniform(0.01, 0.99))
        at_zero = mu_ab_full(mu_a, mu_b, fit_params(mu_a, mu_b, 0.0).params)
        at_one = mu_ab_full(mu_a, mu_b, fit_params(mu_a, mu_b, 1.0).params)
        worst_endpoint = max(worst_endpoint, at_zero, 1.0 - at_one)
    elapsed = time.perf_counter() - start

    passed = worst_residual <= 1e-9 and worst_endpoint <= 1e-12 and elapsed < 5.0
    report(
        "5",
        passed,
        f"worst residual {worst_residual:.2e}, worst endpoint miss "
        f"{worst_endpoint:.2e}, {elapsed:.2f}s",
    )
    assert worst_residual <= 1e-9
    assert worst_endpoint <= 1e-12
    assert elapsed < 5.0


def test_criterion_6_monotonicity_sweeps():
    """Dense grids: non-increasing in x', non-decreasing in x at x' = +/-1."""
    rng = np.random.default_rng(6)
    grid = np.linspace(-1.0, 1.0, 201)
    worst = 0.0
    for _ in range(100):
        mu_a = float(rng.uniform(0.01, 0.99))
        mu_b = float(rng.uniform(0.01, 0.99))
        p_a = float(rng.uniform(0.05, 1.0))
        p_b = float(rng.uniform(0.05, 1.0))
        c = float(rng.uniform(0.0, 1.0))
        c_prime = float(rng.uniform(0.0, 1.0))
        for x in (-1.0, 0.0, 1.0):
            values = [mu_ab_cosines(mu_a, mu_b, p_a, p_b, c, c_prime, x, float(xp)) for xp in grid]
            worst = max(worst, float(np.diff(values).max(initial=-1.0)))
        for x_prime in (-1.0, 1.0):
            values = [mu_ab_cosines(mu_a, mu_b, p_a, p_b, c, c_prime, float(x), x_prime) for x in grid]
            worst = max(worst, float(-np.diff(values).min(initial=1.0)))
    passed = worst <= 1e-12
    report("6", passed, f"largest monotonicity violation {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_7_reduction_identities():
    """Right angles and zero moduli reduce to the convex combination; the
    closed form agrees with the vector computation on matching states."""
    rng = np.random.default_rng(7)
    convex_gap = 0.0
    for _ in range(200):
        mu_a = float(rng.uniform(0.01, 0.99))
        mu_b = float(rng.uniform(0.01, 0.99))
        p_a = float(rng.uniform(0.05, 1.0))
        p_b = float(rng.uniform(0.05, 1.0))
        c = float(rng.uniform(0.0, 1.0))
        c_prime = float(rng.uniform(0.0, 1.0))
        expected = mu_ab_convex(mu_a, mu_b, p_a, p_b)
        # cosine domain at exactly (0, 0) and zero moduli: bit-exact
        convex_gap = max(
            convex_gap,
            abs(mu_ab_cosines(mu_a, mu_b, p_a, p_b, c, c_prime, 0.0, 0.0) - expected),
            abs(
                mu_ab_full(mu_a, mu_b, ModelParams(p_a, p_b, 0.0, 0.0, 1.0, 2.0))
                - expected
            ),
        )
        # angle domain at pi/2: limited only by cos(pi/2) ~ 6e-17
        params = ModelParams(p_a, p_b, c, c_prime, math.pi / 2.0, math.pi / 2.0)
        convex_gap = max(convex_gap, abs(mu_ab_full(mu_a, mu_b, params) - expected))

    vector_gap = 0.0
    checked = 0
    while checked < 100:
        web = random_web(rng)
        if superposition_is_degenerate(web):
            continue
        psi_a, psi_b, m = web.state_a, web.state_b, web.word_projector
        n_proj = identity_projector(web.dim)
        direct = mu_combined(psi_a, psi_b, n_proj, m)
        # uniform-average reduction, valid because N fixes both states
        cross_m = float(np.vdot(psi_a.amplitudes, project(m, psi_b.amplitudes)).real)
        cross = float(np.vdot(psi_a.amplitudes, psi_b.amplitudes).real)
        reduced = (
            0.5 * (born_probability(psi_a, m) + born_probability(psi_b, m)) + cross_m
        ) / (1.0 + cross)
        vector_gap = max(vector_gap, abs(direct - reduced))
        # the six-parameter closed form, with parameters read off the states
        mu_a, mu_b, params = extract_model_params(psi_a, psi_b, n_proj, m)
        vector_gap = max(vector_gap, abs(mu_ab_full(mu_a, mu_b, params) - direct))
        checked += 1

    passed = convex_gap <= 1e-14 and vector_gap <= 1e-10
    report("7", passed, f"convex gap {convex_gap:.2e}, vector gap {vector_gap:.2e}")
    assert convex_gap <= 1e-14
    assert vector_gap <= 1e-10


def test_criterion_8_corpus_counting_parity():
    """100 random corpora: cells sum to corpus size, marginals recount exactly."""
    rng = np.random.default_rng(8)
    vocabulary = ["fruits", "vegetables", "apple", "pear", "yam", "stone"]
    mismatches = 0
    for _ in range(100):
        size = int(rng.integers(0, 80))
        docs = [
            Document(str(i), tuple(rng.choice(vocabulary, size=int(rng.integers(0, 7)))))
            for i in range(size)
        ]
        counts = count_corpus(docs, "fruits", "vegetables", "apple")
        table = marginals(counts)
        sets = [
            (set(doc.tokens) >= {"fruits"}, set(doc.tokens) >= {"vegetables"}, set(doc.tokens) >= {"apple"})
            for doc in docs
        ]
        independent = CountTable(
            n_a=sum(1 for has_a, _, _ in sets if has_a),
            n_b=sum(1 for _, has_b, _ in sets if has_b),
            n_ab=sum(1 for has_a, has_b, _ in sets if has_a and has_b),
            n_ax=sum(1 for has_a, _, has_x in sets if has_a and has_x),
            n_bx=sum(1 for _, has_b, has_x in sets if has_b and has_x),
            n_abx=sum(1 for flags in sets if all(flags)),
        )
        if counts.total != size or table != independent:
            mismatches += 1
    passed = mismatches == 0
    report("8", passed, f"100 corpora recounted, {mismatches} mismatches")
    assert mismatches == 0


# corpus words, three of them non-ASCII; probes add a word no document holds
PARITY_WORDS = ["a", "b", "x", "\u00e4pfel", "stra\u00dfe", "\u03c9\u03bc\u03ad\u03b3\u03b1"]
PARITY_TOKEN = st.sampled_from(PARITY_WORDS).flatmap(lambda word: st.sampled_from([word, np.str_(word)]))
PARITY_PROBE = st.tuples(*[st.sampled_from(PARITY_WORDS + ["absent"])] * 3)
PARITY_CLONES = (
    lambda corpus: corpus,
    lambda corpus: pickle.loads(pickle.dumps(corpus, 0)),
    lambda corpus: pickle.loads(pickle.dumps(corpus, pickle.HIGHEST_PROTOCOL)),
    copy.copy,
    copy.deepcopy,
)


@given(
    docs=st.lists(st.lists(PARITY_TOKEN, max_size=8), max_size=25),
    probes=st.lists(PARITY_PROBE, min_size=1, max_size=6),
)
@example(docs=[], probes=[("a", "b", "x"), ("absent", "absent", "absent")])
@example(docs=[[], ["a", "a", "a"], [np.str_("x"), "x"], []], probes=[("a", "b", "x"), ("x", "x", np.str_("a"))])
@example(docs=[["\u00e4pfel", "b", "\u00e4pfel"], ["b"]], probes=[("\u00e4pfel", "b", "absent")])
@settings(max_examples=200, deadline=None)
def test_criterion_8_posting_index_parity(docs, probes):
    """The posting index counts as the reference tally, with or without given words, and in copies."""
    documents = [Document(str(i), tokens) for i, tokens in enumerate(docs)]
    words = {word for probe in probes for word in probe}
    for corpus in (Corpus(documents), Corpus(documents, words)):
        for clone in PARITY_CLONES:
            copied = clone(corpus)
            for probe in probes:
                assert count_corpus(copied, *probe) == brute_force_cells(documents, *probe)
