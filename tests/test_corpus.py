"""Tokenizing, three-term counting, marginals, ratios, and serialization."""
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qocc.corpus import (
    _WORD_RE,
    CountTable,
    Document,
    ThreeTermCounts,
    TokenizerConfig,
    count_corpus,
    document_from_text,
    load_corpus,
    marginals,
    probabilities,
    table_from_ratios,
    tokenize,
)
from qocc.errors import InconsistentRatios, InvalidCounts, ZeroDenominator

from conftest import brute_force_cells

# all of ASCII, plus characters that lowercase to ASCII (KELVIN SIGN), to
# more than one character (dotted capital I), or are letters, digits or
# neither outside ASCII
TOKENIZER_ALPHABET = [chr(c) for c in range(128)] + ["\u212a", "\u0130", "\u00df", "\u00b2", "\u00c4"]
STEMMED = TokenizerConfig(stemmer=lambda tok: tok.rstrip("s"))


class TestTokenize:
    def test_lowercases_and_strips_punctuation(self):
        assert tokenize("Fruits and Vegetables!") == ["fruits", "and", "vegetables"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_whitespace_collapse_keeps_duplicates(self):
        assert tokenize("juicy   fruits\nfruits") == ["juicy", "fruits", "fruits"]

    def test_digits_and_underscores_split_words(self):
        assert tokenize("apple2orange snake_case") == ["apple", "orange", "snake", "case"]

    def test_unicode_words_survive(self):
        assert tokenize("Äpfel über alles") == ["äpfel", "über", "alles"]

    def test_stemmer_hook(self):
        assert tokenize("fruits stems", STEMMED) == ["fruit", "stem"]

    def test_ascii_fast_path_equals_the_regex(self):
        """tokenize splits lowered ASCII text without the regex; both branches agree."""
        branches = set()

        @given(st.text(alphabet=TOKENIZER_ALPHABET, max_size=40))
        @example("\u212aelvin K")  # lowercases to ASCII: the fast path
        @example("\u0130stanbul stra\u00dfe x\u00b2y")
        @example("a\x1cb\x1dc\x1ed\x1fe\x0bf\x0cg")  # str.split separators
        @example("snake_case2words")
        @settings(max_examples=300, deadline=None)
        def check(text):
            lowered = text.lower()
            branches.add(lowered.isascii())
            expected = _WORD_RE.findall(lowered)
            assert tokenize(text) == expected
            assert tokenize(text, STEMMED) == [STEMMED.stemmer(tok) for tok in expected]

        check()
        assert branches == {True, False}


class TestDocument:
    def test_terms_leave_equality_hash_and_repr_alone(self):
        doc = Document("1", ["a", "b", "a"])
        assert doc == Document("1", ("a", "b", "a"))
        assert hash(doc) == hash(("1", ("a", "b", "a")))
        assert "terms" not in repr(doc)
        assert doc.terms == frozenset({"a", "b"})

    def test_numpy_string_tokens_count(self):
        docs = [Document("1", (np.str_("a"), np.str_("x"))), Document("2", np.array(["b"]))]
        assert count_corpus(docs, "a", "b", "x") == ThreeTermCounts(n101=1, n010=1)


class TestCountCorpus:
    def test_three_document_exhaustive(self):
        docs = [
            Document("1", ("fruits",)),
            Document("2", ("vegetables",)),
            Document("3", ("fruits", "vegetables", "apple")),
        ]
        counts = count_corpus(docs, "fruits", "vegetables", "apple")
        assert counts.n111 == 1
        assert counts.n100 == 1
        assert counts.n010 == 1
        assert counts.total == 3

    def test_empty_corpus(self):
        counts = count_corpus([], "a", "b", "x")
        assert counts.total == 0

    def test_presence_not_frequency(self):
        docs = [Document("1", ("apple",) * 7)]
        counts = count_corpus(docs, "apple", "b", "x")
        assert counts.n100 == 1

    def test_random_corpus_matches_per_document_recount(self, rng):
        vocabulary = ["a", "b", "x", "y", "z"]
        docs = []
        for i in range(50):
            size = int(rng.integers(0, 6))
            docs.append(Document(str(i), tuple(rng.choice(vocabulary, size=size))))
        counts = count_corpus(docs, "a", "b", "x")
        assert counts.total == 50
        # brute-force recount, one document at a time
        recount = ThreeTermCounts()
        for doc in docs:
            recount = recount + count_corpus([doc], "a", "b", "x")
        assert recount == counts

    def test_adding_a_document_never_decreases_any_cell(self, rng):
        vocabulary = ["a", "b", "x"]
        docs = [
            Document(str(i), tuple(rng.choice(vocabulary, size=int(rng.integers(0, 4)))))
            for i in range(20)
        ]
        before = count_corpus(docs, "a", "b", "x").as_dict()
        extended = docs + [Document("extra", ("a", "x"))]
        after = count_corpus(extended, "a", "b", "x").as_dict()
        assert all(after[key] >= before[key] for key in before)

    def test_partition_and_merge_equals_single_pass(self, rng):
        vocabulary = ["a", "b", "x", "w"]
        docs = [
            Document(str(i), tuple(rng.choice(vocabulary, size=int(rng.integers(0, 5)))))
            for i in range(40)
        ]
        whole = count_corpus(docs, "a", "b", "x")
        merged = count_corpus(docs[:13], "a", "b", "x") + count_corpus(docs[13:], "a", "b", "x")
        assert merged == whole

    @given(
        docs=st.lists(st.lists(st.sampled_from(["a", "b", "x", "y"]), max_size=6), max_size=30),
        terms=st.tuples(*[st.sampled_from(["a", "b", "x", "absent"])] * 3),
    )
    @example(docs=[[], ["a"], ["a", "x"]], terms=("a", "a", "x"))
    @example(docs=[[], ["a", "b"], ["b", "x"]], terms=("a", "b", "a"))
    @example(docs=[[], ["a"]], terms=("a", "b", "absent"))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_presence_tally(self, docs, terms):
        documents = [Document(str(i), tokens) for i, tokens in enumerate(docs)]
        assert count_corpus(documents, *terms) == brute_force_cells(documents, *terms)


class TestThreeTermCounts:
    def test_rejects_a_negative_cell(self):
        with pytest.raises(InvalidCounts, match=r"^cell n101 is negative: -3$"):
            ThreeTermCounts(n101=-3)

    def test_rejects_a_negative_cell_too_long_to_print(self):
        with pytest.raises(InvalidCounts, match=r"^cell n111 is negative: an integer of \d+ bits$"):
            ThreeTermCounts(n111=-10**5000)

    @pytest.mark.parametrize("value", [1.5, "3", None, True, False])
    def test_rejects_a_cell_that_is_not_an_integer(self, value):
        message = f"cell n111 must be an integer, got {value!r}"
        with pytest.raises(InvalidCounts, match=f"^{re.escape(message)}$"):
            ThreeTermCounts(n111=value)

    def test_cells_are_bounded_by_2_to_the_53(self):
        assert marginals(ThreeTermCounts(n111=2**53)).n_abx == 2**53
        with pytest.raises(InvalidCounts, match=r"^cell n010 exceeds 2\*\*53, above which"):
            ThreeTermCounts(n010=2**53 + 1)


class TestMarginals:
    def test_symmetric_cube(self):
        counts = ThreeTermCounts(1, 1, 1, 1, 1, 1, 1, 1)
        table = marginals(counts)
        assert table.as_dict() == {
            "n_a": 4, "n_b": 4, "n_ab": 2, "n_ax": 2, "n_bx": 2, "n_abx": 1,
        }

    def test_single_cell(self):
        table = marginals(ThreeTermCounts(n111=7))
        assert table.as_dict() == {
            "n_a": 7, "n_b": 7, "n_ab": 7, "n_ax": 7, "n_bx": 7, "n_abx": 7,
        }

    def test_marginals_always_satisfy_table_invariants(self, rng):
        for _ in range(200):
            cells = {
                key: int(rng.integers(0, 25))
                for key in ("n111", "n110", "n101", "n100", "n011", "n010", "n001", "n000")
            }
            table = marginals(ThreeTermCounts(**cells))
            assert table.classically_consistent

    @given(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_cells_sum_to_document_count(self, patterns):
        docs = []
        for i, (has_a, has_b, has_x) in enumerate(patterns):
            tokens = tuple(
                word for word, present in (("a", has_a), ("b", has_b), ("x", has_x)) if present
            )
            docs.append(Document(str(i), tokens))
        counts = count_corpus(docs, "a", "b", "x")
        assert counts.total == len(docs)
        table = marginals(counts)
        assert table.n_a == sum(1 for p in patterns if p[0])
        assert table.n_b == sum(1 for p in patterns if p[1])
        assert table.n_ab == sum(1 for p in patterns if p[0] and p[1])
        assert table.n_ax == sum(1 for p in patterns if p[0] and p[2])
        assert table.n_bx == sum(1 for p in patterns if p[1] and p[2])
        assert table.n_abx == sum(1 for p in patterns if all(p))


class TestCountTable:
    def test_rejects_nabx_above_nab(self):
        with pytest.raises(InvalidCounts):
            CountTable(n_a=10, n_b=10, n_ab=2, n_ax=5, n_bx=5, n_abx=3)

    def test_rejects_negative(self):
        with pytest.raises(InvalidCounts, match=r"^n_a is negative: -1$"):
            CountTable(n_a=-1, n_b=1, n_ab=0, n_ax=0, n_bx=0, n_abx=0)

    def test_rejects_a_negative_count_too_long_to_print(self):
        # str() refuses ints longer than sys.get_int_max_str_digits() digits
        with pytest.raises(InvalidCounts, match=r"^n_a is negative: an integer of \d+ bits$"):
            CountTable(n_a=-10**5000, n_b=1, n_ab=0, n_ax=0, n_bx=0, n_abx=0)

    @pytest.mark.parametrize("value", [True, False, 1.5])
    def test_rejects_a_count_that_is_not_an_integer(self, value):
        message = f"n_bx must be an integer, got {value!r}"
        with pytest.raises(InvalidCounts, match=f"^{re.escape(message)}$"):
            CountTable(n_a=1, n_b=1, n_ab=1, n_ax=1, n_bx=value, n_abx=1)

    def test_rejects_nax_above_na(self):
        with pytest.raises(InvalidCounts, match=r"^n_ax=6 exceeds n_a=5$"):
            CountTable(n_a=5, n_b=10, n_ab=1, n_ax=6, n_bx=0, n_abx=0)

    def test_rejects_nab_above_totals(self):
        with pytest.raises(InvalidCounts):
            CountTable(n_a=5, n_b=10, n_ab=6, n_ax=0, n_bx=0, n_abx=0)

    def test_cross_marginal_excess_is_flagged_not_rejected(self):
        # counts from external search engines can report n_abx > n_ax
        table = CountTable(n_a=100, n_b=100, n_ab=50, n_ax=10, n_bx=40, n_abx=30)
        assert not table.classically_consistent

    def test_lower_cross_bound_is_flagged(self):
        # n_abx must be at least n_ab + n_ax - n_a for real documents
        table = CountTable(n_a=10, n_b=10, n_ab=10, n_ax=10, n_bx=10, n_abx=5)
        assert not table.classically_consistent

    def test_derived_fields(self):
        table = CountTable(n_a=10, n_b=8, n_ab=6, n_ax=4, n_bx=3, n_abx=2)
        assert table.n_ax_prime == 6
        assert table.n_bx_prime == 5
        assert table.n_abx_prime == 4

    def test_json_round_trip(self):
        table = CountTable(n_a=10, n_b=8, n_ab=6, n_ax=4, n_bx=3, n_abx=2)
        assert CountTable.from_dict(json.loads(json.dumps(table.as_dict()))) == table

    def test_from_dict_rejects_missing_key(self):
        with pytest.raises(InvalidCounts):
            CountTable.from_dict({"n_a": 1})

    @pytest.mark.parametrize("value", [True, False, None, "3", [], 1.5, math.nan, math.inf])
    def test_from_dict_leaves_every_cell_check_to_the_count_rule(self, value):
        data = {"n_a": 1, "n_b": 1, "n_ab": 1, "n_ax": 1, "n_bx": value, "n_abx": 1}
        message = f"n_bx must be an integer, got {value!r}"
        with pytest.raises(InvalidCounts, match=f"^{re.escape(message)}$"):
            CountTable.from_dict(data)

    def test_from_dict_reads_integral_floats_as_ints(self):
        data = {"n_a": 2.0, "n_b": 1, "n_ab": 1, "n_ax": -0.0, "n_bx": 1, "n_abx": 1}
        table = CountTable.from_dict(data)
        assert (type(table.n_a), table.n_a, type(table.n_ax), table.n_ax) == (int, 2, int, 0)

    def test_from_dict_rejects_fractional(self):
        data = {"n_a": 1.5, "n_b": 1, "n_ab": 1, "n_ax": 0, "n_bx": 0, "n_abx": 0}
        with pytest.raises(InvalidCounts):
            CountTable.from_dict(data)

    def test_counts_must_be_exact_as_floats(self):
        # above 2**53 a count has no exact float, and n_a * n_b may have none at all
        exact = CountTable(n_a=2**53, n_b=2**53, n_ab=2**53, n_ax=1, n_bx=2**53, n_abx=0)
        assert exact.n_abx_prime == 2**53
        for field in ("n_a", "n_bx"):
            for value in (2**53 + 1, 10**160, 10**5000):
                counts = dict(n_a=10, n_b=10, n_ab=1, n_ax=1, n_bx=1, n_abx=1) | {field: value}
                with pytest.raises(InvalidCounts, match=f"^{field} exceeds 2\\*\\*53"):
                    CountTable(**counts)
        data = {"n_a": 1e300, "n_b": 1e300, "n_ab": 1, "n_ax": 1, "n_bx": 1, "n_abx": 1}
        with pytest.raises(InvalidCounts):
            CountTable.from_dict(data)


class TestProbabilities:
    def test_fruits_vegetables_apple_row(self):
        table = table_from_ratios(378_000_000, 357_000_000, 115_000_000, 0.166, 0.236, 0.271)
        triple = probabilities(table)
        assert triple.mu_a == pytest.approx(1.66e-1, rel=5e-3)
        assert triple.mu_b == pytest.approx(2.36e-1, rel=5e-3)
        assert triple.mu_ab_observed == pytest.approx(2.71e-1, rel=5e-3)

    def test_fruits_vegetables_olive_row(self):
        table = table_from_ratios(378_000_000, 357_000_000, 115_000_000, 0.0522, 0.213, 0.290)
        triple = probabilities(table)
        assert triple.mu_a == pytest.approx(5.22e-2, rel=5e-3)
        assert triple.mu_b == pytest.approx(2.13e-1, rel=5e-3)
        assert triple.mu_ab_observed == pytest.approx(2.90e-1, rel=5e-3)

    def test_zero_numerator_is_fine(self):
        triple = probabilities(CountTable(n_a=5, n_b=5, n_ab=1, n_ax=0, n_bx=1, n_abx=0))
        assert triple.mu_a == 0.0

    def test_zero_denominator_names_the_marginal(self):
        with pytest.raises(ZeroDenominator, match="n_ab"):
            probabilities(CountTable(n_a=5, n_b=5, n_ab=0, n_ax=1, n_bx=1, n_abx=0))


class TestTableFromRatios:
    def test_reference_totals(self):
        table = table_from_ratios(378_000_000, 357_000_000, 115_000_000, 0.166, 0.236, 0.271)
        assert table.n_ax == 62_748_000
        assert table.n_bx == 84_252_000
        assert table.n_abx == 31_165_000

    def test_all_zero_ratios(self):
        table = table_from_ratios(10, 10, 5, 0.0, 0.0, 0.0)
        assert (table.n_ax, table.n_bx, table.n_abx) == (0, 0, 0)

    def test_saturated(self):
        table = table_from_ratios(10, 10, 10, 1.0, 1.0, 1.0)
        assert table.n_abx == 10

    def test_rejects_ratio_outside_unit_interval(self):
        with pytest.raises(InconsistentRatios):
            table_from_ratios(10, 10, 5, 1.2, 0.0, 0.0)

    def test_rejects_impossible_totals(self):
        with pytest.raises(InconsistentRatios):
            table_from_ratios(10, 10, 20, 0.5, 0.5, 0.5)

    def test_rejects_nonpositive_total(self):
        with pytest.raises(InconsistentRatios):
            table_from_ratios(0, 10, 5, 0.5, 0.5, 0.5)

    def test_round_half_up(self):
        table = table_from_ratios(10, 10, 10, 0.25, 0.35, 0.45)
        assert (table.n_ax, table.n_bx, table.n_abx) == (3, 4, 5)

    @given(
        n_a=st.integers(1, 10_000),
        n_b=st.integers(1, 10_000),
        ratios=st.tuples(
            st.floats(0.0, 1.0, allow_nan=False),
            st.floats(0.0, 1.0, allow_nan=False),
            st.floats(0.0, 1.0, allow_nan=False),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_ratio_round_trip_within_rounding_granularity(self, n_a, n_b, ratios):
        n_ab = min(n_a, n_b)
        mu_a, mu_b, mu_ab = ratios
        table = table_from_ratios(n_a, n_b, n_ab, mu_a, mu_b, mu_ab)
        triple = probabilities(table)
        granularity = 1.0 / min(n_a, n_b, n_ab)
        assert abs(triple.mu_a - mu_a) <= granularity
        assert abs(triple.mu_b - mu_b) <= granularity
        assert abs(triple.mu_ab_observed - mu_ab) <= granularity


class TestLoadCorpus:
    def test_directory_of_text_files(self, tmp_path):
        (tmp_path / "one.txt").write_text("Fruits here", encoding="utf-8")
        (tmp_path / "two.txt").write_text("vegetables there", encoding="utf-8")
        docs = load_corpus(tmp_path)
        assert [doc.id for doc in docs] == ["one.txt", "two.txt"]
        assert docs[0].tokens == ("fruits", "here")

    def test_directory_skips_dangling_and_looping_symlinks(self, tmp_path):
        (tmp_path / "doc.txt").write_text("apple", encoding="utf-8")
        (tmp_path / "link.txt").symlink_to(tmp_path / "doc.txt")
        (tmp_path / "dangling").symlink_to(tmp_path / "missing")
        (tmp_path / "loop").symlink_to(tmp_path / "loop")
        (tmp_path / "through_file").symlink_to(tmp_path / "doc.txt" / "x")
        (tmp_path / "sub").mkdir()
        docs = load_corpus(tmp_path)
        assert [(doc.id, doc.tokens) for doc in docs] == [("doc.txt", ("apple",)), ("link.txt", ("apple",))]

    def test_json_lines_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "d1", "text": "Apple pie"}\n\n{"id": "d2", "text": "olive oil"}\n',
            encoding="utf-8",
        )
        docs = load_corpus(path)
        assert [doc.id for doc in docs] == ["d1", "d2"]
        assert docs[1].tokens == ("olive", "oil")

    def test_equal_tokens_share_one_string(self, tmp_path):
        texts = ["Apple pie, apple!", "pie and APPLE", "\u00c4pfel apple \u00e4pfel"]
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            "".join(json.dumps({"id": f"d{i}", "text": t}) + "\n" for i, t in enumerate(texts)),
            encoding="utf-8",
        )
        folder = tmp_path / "dir"
        folder.mkdir()
        for i, text in enumerate(texts):
            (folder / f"d{i}.txt").write_text(text, encoding="utf-8")
        for docs in (load_corpus(path), load_corpus(folder)):
            tokens = [tok for doc in docs for tok in doc.tokens]
            assert tokens == [tok for text in texts for tok in tokenize(text)]
            for word in ("apple", "pie", "\u00e4pfel"):
                same = [tok for tok in tokens if tok == word]
                assert len(same) > 1 and all(tok is same[0] for tok in same)
                assert all(tok is same[0] for doc in docs for tok in doc.terms if tok == word)

    def test_document_rejects_empty_id(self):
        with pytest.raises(InvalidCounts):
            document_from_text("", "anything")
