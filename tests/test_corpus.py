"""Tokenizing, three-term counting, marginals, ratios, and serialization."""
import codecs
import copy
import json
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qocc.corpus import (
    _WORD_RE,
    Corpus,
    CountTable,
    Document,
    ThreeTermCounts,
    count_corpus,
    load_corpus,
    marginals,
    probabilities,
    table_from_ratios,
    tokenize,
)
from qocc.errors import InconsistentRatios, InvalidCounts, InvalidInput, ZeroDenominator

from conftest import brute_force_cells

# all of ASCII, plus characters that lowercase to ASCII (KELVIN SIGN), to
# more than one character (dotted capital I), or are letters, digits or
# neither outside ASCII
TOKENIZER_ALPHABET = [chr(c) for c in range(128)] + ["\u212a", "\u0130", "\u00df", "\u00b2", "\u00c4"]
# probe terms: every corpus word but "y", one as a numpy string, and one no document holds
PROBE_TERMS = ["a", "b", "x", np.str_("x"), "absent"]
# load_corpus reads every word, or only these
LOAD_MODES = pytest.mark.parametrize("terms", [None, ("a", "b", "x")], ids=["all-words", "terms"])


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

    def test_ascii_fast_path_equals_the_regex(self):
        """tokenize splits ASCII text without the regex; both branches agree."""
        branches = set()

        @given(st.text(alphabet=TOKENIZER_ALPHABET, max_size=40))
        @example("\u212aelvin K")  # not ASCII, so the regex branch, though it lowercases to ASCII
        @example("\u0130stanbul stra\u00dfe x\u00b2y")
        @example("a\x1cb\x1dc\x1ed\x1fe\x0bf\x0cg")  # str.split separators
        @example("snake_case2words")
        @example("".join(map(chr, range(128))))  # every ASCII entry of the byte table
        @example("ALL UPPERCASE, NO LOWER-CASE LETTER")
        @settings(max_examples=300, deadline=None)
        def check(text):
            branches.add(text.isascii())
            assert tokenize(text) == _WORD_RE.findall(text.lower())

        check()
        assert branches == {True, False}


class TestDocument:
    def test_terms_leave_equality_hash_and_repr_alone(self):
        doc = Document("1", ["a", "b", "a"])
        assert doc == Document("1", ("a", "b", "a"))
        assert hash(doc) == hash(("1", ("a", "b", "a")))
        assert "terms" not in repr(doc)
        assert doc.terms == frozenset({"a", "b"})

    def test_stores_only_its_id_and_tokens(self):
        doc = Document("1", ["a", "b", "a"])
        assert vars(doc).keys() == {"id", "tokens"}
        assert doc.as_dict() == {"id": "1", "tokens": ("a", "b", "a")}

    @pytest.mark.parametrize("tokens", ["apple pie", np.str_("apple pie")], ids=["str", "numpy-str"])
    def test_rejects_one_str_as_its_tokens(self, tokens):
        # a str is a sequence of characters: each would count as a word
        message = "document tokens must be a sequence of words, not one str"
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            Document("d", tokens)

    @pytest.mark.parametrize("doc_id", [5, 0, None, ["x"], b"d"], ids=["int", "zero", "none", "list", "bytes"])
    def test_rejects_an_id_that_is_not_a_str(self, doc_id):
        # a list id would leave the document unhashable, and 0 would read as an empty id
        message = f"document id must be a string, got {type(doc_id).__name__}"
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            Document(doc_id, ())

    def test_numpy_string_tokens_count(self):
        docs = [Document("1", (np.str_("a"), np.str_("x"))), Document("2", np.array(["b"]))]
        assert count_corpus(docs, "a", "b", "x") == ThreeTermCounts(n101=1, n010=1)


class TestCountCorpus:
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

    @pytest.mark.parametrize("item", ["a b", ("a", "b"), None], ids=["str", "tuple", "none"])
    def test_refuses_an_item_that_is_not_a_document(self, item):
        message = f"corpus item 1 is a {type(item).__name__}, not a Document"
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            count_corpus([Document("d", ("a",)), item], "a", "b", "x")
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            Corpus([Document("d", ("a",)), item])

    def test_partition_and_merge_equals_single_pass(self, rng):
        vocabulary = ["a", "b", "x", "w"]
        corpus = Corpus(
            Document(str(i), tuple(rng.choice(vocabulary, size=int(rng.integers(0, 5)))))
            for i in range(40)
        )
        whole = count_corpus(corpus, "a", "b", "x")
        assert whole == brute_force_cells(corpus, "a", "b", "x")
        for cut in (0, 13, 40):
            head, tail = corpus[:cut], corpus[cut:]
            assert count_corpus(head, "a", "b", "x") + count_corpus(tail, "a", "b", "x") == whole
            assert count_corpus(head + tail, "a", "b", "x") == whole

    @given(
        docs=st.lists(st.lists(st.sampled_from(["a", "b", "x", "y"]), max_size=6), max_size=30),
        numpy_tokens=st.booleans(),
        probes=st.lists(st.tuples(*[st.sampled_from(PROBE_TERMS)] * 3), min_size=1, max_size=8),
    )
    @example(docs=[[], ["a"], ["a", "x"]], numpy_tokens=False, probes=[("a", "a", "x"), ("x", "x", "x")])
    @example(docs=[[], ["a", "b"], ["b", "x"]], numpy_tokens=True, probes=[("a", "b", "a"), ("a", "b", "x")])
    @example(docs=[[], ["a"]], numpy_tokens=False, probes=[("a", "b", "absent")])
    @example(docs=[], numpy_tokens=False, probes=[("a", "b", "x"), ("absent", "absent", "absent")])
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_presence_tally(self, docs, numpy_tokens, probes):
        """One Corpus reused across probes counts as the reference tally, and as a list or generator."""
        documents = [
            Document(str(i), np.array(tokens, dtype=str) if numpy_tokens else tokens)
            for i, tokens in enumerate(docs)
        ]
        corpus = Corpus(documents)
        for terms in probes:
            expected = brute_force_cells(documents, *terms)
            assert count_corpus(corpus, *terms) == expected
            assert count_corpus(documents, *terms) == expected
            assert count_corpus((doc for doc in documents), *terms) == expected


class TestCorpus:
    DOCS = (Document("1", ("a", "x")), Document("2", ("b", "a")), Document("3", ("x",)))

    def test_cannot_be_mutated(self):
        corpus = Corpus(self.DOCS)
        before = count_corpus(corpus, "a", "b", "x")
        assert not hasattr(corpus, "append")
        with pytest.raises(TypeError):
            corpus[0] = Document("4", ("b",))
        with pytest.raises(TypeError):
            del corpus[0]
        with pytest.raises(TypeError):
            corpus + [Document("4", ("b",))]
        with pytest.raises(AttributeError):
            corpus[0].tokens = ("b",)
        with pytest.raises(AttributeError):
            corpus[0].terms = frozenset({"b"})
        assert count_corpus(corpus, "a", "b", "x") == before

    @pytest.mark.parametrize(
        "clone",
        [
            lambda corpus: pickle.loads(pickle.dumps(corpus, 0)),
            lambda corpus: pickle.loads(pickle.dumps(corpus, pickle.HIGHEST_PROTOCOL)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle-0", "pickle-highest", "copy", "deepcopy"],
    )
    def test_copies_round_trip_and_count(self, clone):
        corpus = Corpus(self.DOCS)
        counted = count_corpus(corpus, "a", "b", "x")  # the original now holds bitmaps
        copied = clone(corpus)
        assert type(copied) is Corpus and copied == corpus
        assert count_corpus(copied, "a", "b", "x") == counted
        for terms in (("x", "a", "b"), ("b", "b", "absent")):
            assert count_corpus(copied, *terms) == brute_force_cells(self.DOCS, *terms)
        # a corpus of given words keeps them as plain words, and keeps refusing any other
        restricted = Corpus(self.DOCS, ("a", np.str_("b"), "x", "a"))
        counted = count_corpus(restricted, "a", "b", "x")
        copied = clone(restricted)
        assert copied.terms == frozenset({"a", "b", "x"})
        assert {type(term) for term in copied.terms} == {str}
        assert count_corpus(copied, "x", "b", np.str_("a")) == brute_force_cells(self.DOCS, "x", "b", "a")
        assert count_corpus(copied, "a", "b", "x") == counted
        with pytest.raises(InvalidInput, match="'absent'"):
            count_corpus(copied, "a", "b", "absent")

    @pytest.mark.parametrize(
        "terms, message",
        [("ab", "terms must be a sequence of words, not one str"),
         (["a", "Apple"], "term 'Apple' is not one word as tokenize gives it")],
        ids=["one-str", "not-a-token"],
    )
    def test_refuses_the_terms_load_corpus_refuses(self, terms, message):
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            Corpus(self.DOCS, terms)

    @pytest.mark.parametrize("name, value", [("terms", None), ("_postings", {}), ("_bitmaps", {"a": 0})])
    def test_attributes_cannot_be_assigned_or_deleted(self, name, value):
        corpus = Corpus(self.DOCS, ("a", "b", "x"))
        assert vars(corpus).keys() == {"terms", "_postings", "_bitmaps"}
        before = count_corpus(corpus, "a", "b", "b")
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(corpus, name, value)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(corpus, name)
        assert count_corpus(corpus, "a", "b", "b") == before
        assert count_corpus(corpus, "a", "b", "x") == brute_force_cells(self.DOCS, "a", "b", "x")
        with pytest.raises(InvalidInput, match="'zzz'"):
            count_corpus(corpus, "a", "b", "zzz")

    def test_bitmap_has_document_0_as_its_highest_bit(self):
        corpus = Corpus([Document("1", ("a", "b", "a")), Document("2", ("b",)), Document("3", ("a",))])
        assert corpus._bitmap("a") == 0b101
        assert corpus._bitmap("b") == 0b110
        assert corpus._bitmap("absent") == 0
        assert Corpus()._bitmap("a") == 0

    def test_keeps_one_bitmap_per_distinct_term(self):
        corpus = Corpus(Document(str(i), ("a", f"w{i % 20}")) for i in range(40))
        for _ in range(2):
            for i in range(16):
                count_corpus(corpus, "a", "b", f"w{i}")
        assert len(corpus._bitmaps) == 18

    @pytest.mark.parametrize("n, itemsize", [(65536, 2), (65537, 4)])
    def test_index_entries_widen_past_65536_documents(self, n, itemsize):
        """Document numbers take 2 bytes up to 65,536 documents and 4 above; counts match either way."""
        documents = [Document(str(i), ("a",)) for i in range(n - 1)] + [Document("last", ("x",))]
        corpus = Corpus(documents)
        for terms in (("a", "b", "x"), ("x", "x", "a")):
            assert count_corpus(corpus, *terms) == brute_force_cells(documents, *terms)
        assert corpus._postings["x"].tolist() == [n - 1]
        assert {entries.itemsize for entries in corpus._postings.values()} == {itemsize}

    def test_index_takes_at_most_3_bytes_per_token(self):
        """200,000 tokens over 5 words: a list-based index would take over 8 bytes per token."""
        words = ("a", "b", "x", "y", "z")
        documents = [Document(str(i), [words[(i + j) % 5] for j in range(100)]) for i in range(2000)]
        tracemalloc.start()
        try:
            corpus = Corpus(documents)
            allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus) == 2000
        assert allocated / 200_000 <= 3


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

    @pytest.mark.parametrize("other", [1, None, (0,) * 8, {"n111": 1}], ids=["int", "none", "tuple", "dict"])
    def test_adds_only_another_three_term_counts(self, other):
        with pytest.raises(TypeError, match="^unsupported operand type"):
            ThreeTermCounts(n111=1) + other
        assert ThreeTermCounts(n111=1) + ThreeTermCounts(n000=2) == ThreeTermCounts(n111=1, n000=2)


class TestMarginals:
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

    def test_rejects_nbx_above_nb(self):
        with pytest.raises(InvalidCounts, match=r"^n_bx=11 exceeds n_b=10$"):
            CountTable(n_a=5, n_b=10, n_ab=1, n_ax=0, n_bx=11, n_abx=0)

    @pytest.mark.parametrize("n_a, n_b", [(5, 10), (10, 5)])
    def test_nab_reaches_the_smaller_total_and_no_further(self, n_a, n_b):
        assert CountTable(n_a=n_a, n_b=n_b, n_ab=5, n_ax=0, n_bx=0, n_abx=0).n_ab == 5
        with pytest.raises(InvalidCounts, match=r"^n_ab=6 exceeds min\(n_a, n_b\)$"):
            CountTable(n_a=n_a, n_b=n_b, n_ab=6, n_ax=0, n_bx=0, n_abx=0)

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

    @pytest.mark.parametrize("data", [None, [1, 2], "table", 3])
    def test_from_dict_rejects_a_value_that_is_not_an_object(self, data):
        message = f"count-table JSON must be an object, got {type(data).__name__}"
        with pytest.raises(InvalidCounts, match=f"^{re.escape(message)}$"):
            CountTable.from_dict(data)

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
        message = "ratio mu_b=1.0000000000000002 is outside [0, 1]"
        with pytest.raises(InconsistentRatios, match=f"^{re.escape(message)}$"):
            table_from_ratios(10, 10, 5, 0.5, math.nextafter(1.0, 2.0), 0.0)

    def test_rejects_impossible_totals(self):
        with pytest.raises(InconsistentRatios):
            table_from_ratios(10, 10, 20, 0.5, 0.5, 0.5)

    def test_rejects_nonpositive_total(self):
        with pytest.raises(InconsistentRatios, match=r"^total n_a must be positive, got 0$"):
            table_from_ratios(0, 10, 5, 0.5, 0.5, 0.5)
        assert table_from_ratios(1, 1, 1, 1.0, 0.0, 0.0).as_dict() == {
            "n_a": 1, "n_b": 1, "n_ab": 1, "n_ax": 1, "n_bx": 0, "n_abx": 0,
        }

    @pytest.mark.parametrize("total, message", [
        (1.5, "n_b must be an integer, got 1.5"),
        (math.nan, "n_b must be an integer, got nan"),
        (math.inf, "n_b must be an integer, got inf"),
        (-math.inf, "total n_b must be positive, got -inf"),
        (None, "n_b must be an integer, got None"),
        ("10", "n_b must be an integer, got '10'"),
    ], ids=["non-integer", "nan", "inf", "-inf", "none", "str"])
    def test_rejects_a_total_that_is_not_a_count(self, total, message):
        with pytest.raises(InconsistentRatios, match=f"^{re.escape(message)}$"):
            table_from_ratios(10, total, 5, 0.5, 0.5, 0.5)

    def test_round_half_up(self):
        table = table_from_ratios(10, 10, 10, 0.25, 0.35, 0.45)
        assert (table.n_ax, table.n_bx, table.n_abx) == (3, 4, 5)
        # a product 1e-10 short of a half rounds down
        assert table_from_ratios(10, 10, 10, 0.04999999999, 0.0, 0.0).n_ax == 0

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
        assert type(docs) is Corpus
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
        assert type(docs) is Corpus
        assert [doc.id for doc in docs] == ["d1", "d2"]
        assert docs[1].tokens == ("olive", "oil")

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"id": "d3", "text": ', "Expecting value: line 1 column 21 (char 20)"),
            ('{"id": "d3"}', "missing key 'text'"),
            ("[1, 2]", "expected a JSON object, got list"),
            ('{"id": 1%s, "text": "a"}' % ("0" * 5000), "Exceeds the limit"),
            ('{"id": "", "text": "a"}', "document id must be nonempty"),
            ('{"id": null, "text": "apple"}', "id must be a string, got NoneType"),
            ('{"id": false, "text": "pear"}', "id must be a string, got bool"),
            ('{"id": 7, "text": "plum"}', "id must be a string, got int"),
            ('{"id": "d", "text": null}', "text must be a string, got NoneType"),
            ('{"id": "e", "text": 12}', "text must be a string, got int"),
            # only "\n" ends a line: a lone "\r" parts no records, and is refused inside a string
            ('{"id": "a", "text": "x"}\r{"id": "b", "text": "y"}', "Extra data: line 1 column 26 (char 25)"),
            ('{"id": "a", "text": "x\ry"}', "Invalid control character at: line 1 column 23 (char 22)"),
        ],
        ids=[
            "cut-short", "missing-key", "not-an-object", "int-too-long", "empty-id",
            "null-id", "false-id", "int-id", "null-text", "int-text", "cr-between-records", "cr-in-a-string",
        ],
    )
    @LOAD_MODES
    def test_json_lines_errors_name_their_line(self, tmp_path, line, message, terms):
        # line 2 is blank, and still counted
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1", "text": "a"}\n\n' + line + "\n", encoding="utf-8")
        with pytest.raises(InvalidInput, match=f"^line 3: {re.escape(message)}"):
            load_corpus(path, terms)

    @LOAD_MODES
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, terms):
        # line 2 outruns the reader's 8 KiB chunk, so line 3's bad byte is read with line 2's end
        long_line = json.dumps({"id": "d2", "text": "a " * 4500}).encode("utf-8")
        path = tmp_path / "corpus.jsonl"
        bad_line = b' {"id": "d3", "text": "caf\xe9"}'  # the position counts the leading space
        path.write_bytes(b'{"id": "d1", "text": "a"}\n' + long_line + b"\n" + bad_line + b"\n")
        message = "line 3: 'utf-8' codec can't decode byte 0xe9 in position 26: invalid continuation byte"
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            load_corpus(path, terms)

    @pytest.mark.parametrize("first", [
        '{"id": "d1", "text": "fruits apple"}', '{"id": "d1", "text": "Caf\u00e9 fruits"}', "",
    ], ids=["ascii", "non-ascii", "blank"])
    @LOAD_MODES
    def test_a_byte_order_mark_may_open_a_json_lines_file(self, tmp_path, first, terms):
        body = (first + '\n{"id": "d2", "text": "fruits vegetables apple"}\n').encode("utf-8")
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        plain.write_bytes(body)
        marked.write_bytes(codecs.BOM_UTF8 + body)
        assert load_corpus(marked, terms) == load_corpus(plain, terms)
        for probe in ("apple", "caf\u00e9", "absent"):
            words = ("fruits", "vegetables", probe)
            docs = load_corpus(marked, None if terms is None else words)
            assert count_corpus(docs, *words) == brute_force_cells(load_corpus(plain), *words)

    @pytest.mark.parametrize("data, message", [
        (b'{"id": "d1", "text": "a"}\n\xef\xbb\xbf{"id": "d2", "text": "b"}\n',
         "line 2: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (b"\xef\xbb", "line 1: 'utf-8' codec can't decode bytes in position 0-1: unexpected end of data"),
    ], ids=["second-line", "cut-short"])
    @LOAD_MODES
    def test_a_byte_order_mark_elsewhere_or_cut_short_is_refused(self, tmp_path, data, message, terms):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(data)
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            load_corpus(path, terms)

    @LOAD_MODES
    def test_a_bad_byte_after_an_opening_mark_counts_from_the_mark(self, tmp_path, terms):
        line = b'{"id": "d1", "text": "caf\xe9"}\n'
        message = "line 1: 'utf-8' codec can't decode byte 0xe9 in position 25: invalid continuation byte"
        path = tmp_path / "corpus.jsonl"
        for data in (line, codecs.BOM_UTF8 + line):
            path.write_bytes(data)
            with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
                load_corpus(path, terms)

    @LOAD_MODES
    def test_crlf_lines_load_as_lf_lines(self, tmp_path, terms):
        lines = ['{"id": "d1", "text": "a b"}', "", '{"id": "d2", "text": "Caf\u00e9 x"}', '{"id": ""}']
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        lf.write_bytes("\n".join(lines[:3]).encode("utf-8") + b"\n")
        crlf.write_bytes("\r\n".join(lines[:3]).encode("utf-8") + b"\r\n")
        assert load_corpus(crlf, terms) == load_corpus(lf, terms)
        # a refused line keeps its number
        crlf.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
        with pytest.raises(InvalidInput, match="^line 4: missing key 'text'$"):
            load_corpus(crlf, terms)

    @LOAD_MODES
    def test_a_file_that_is_not_utf8_names_itself(self, tmp_path, terms):
        (tmp_path / "a.txt").write_text("apple", encoding="utf-8")
        (tmp_path / "b.txt").write_bytes(b"caf\xe9 apple")
        message = "b.txt: 'utf-8' codec can't decode byte 0xe9 in position 3: invalid continuation byte"
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            load_corpus(tmp_path, terms)

    @given(
        texts=st.lists(st.text(alphabet=TOKENIZER_ALPHABET, max_size=30), max_size=8),
        ascii_lines=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_the_two_readers_agree(self, tmp_path_factory, texts, ascii_lines, data):
        """The same texts as a directory of files and as JSON lines give the same documents,
        and loading only three words counts as loading every word."""
        root = tmp_path_factory.mktemp("corpus")
        folder, path = root / "docs", root / "corpus.jsonl"
        folder.mkdir()
        names = [f"{i:03d}.txt" for i in range(len(texts))]
        for name, text in zip(names, texts):
            (folder / name).write_bytes(text.encode("utf-8"))
        lines = [json.dumps({"id": n, "text": t}, ensure_ascii=ascii_lines) for n, t in zip(names, texts)]
        path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
        full = load_corpus(folder)
        from_files = [(doc.id, doc.tokens) for doc in full]
        assert from_files == [(doc.id, doc.tokens) for doc in load_corpus(path)]
        assert from_files == [(name, tuple(tokenize(text))) for name, text in zip(names, texts)]
        # the texts' own words, and words they may lack: "k" is what U+212A lowercases to
        words = sorted({token for _, tokens in from_files for token in tokens}) + ["absent", "k", "\u00e4"]
        a, b, x = data.draw(st.tuples(*[st.sampled_from(words)] * 3))
        for terms in ((a, b, x), (a, b, a), (x, x, x)):
            expected = brute_force_cells(full, *terms)
            assert count_corpus(full, *terms) == expected
            for layout in (folder, path):
                docs = load_corpus(layout, terms)
                assert count_corpus(docs, *terms) == expected
                assert [(doc.id, doc.tokens) for doc in docs] == [
                    (name, tuple(t for t in dict.fromkeys(terms) if t in tokens)) for name, tokens in from_files
                ]

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

    @LOAD_MODES
    def test_document_rejects_empty_id(self, tmp_path, terms):
        with pytest.raises(InvalidInput, match="^document id must be nonempty$"):
            Document("", tokenize("anything"))
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "", "text": "a b x"}\n', encoding="utf-8")
        with pytest.raises(InvalidInput, match="^line 1: document id must be nonempty$"):
            load_corpus(path, terms)

    @pytest.mark.parametrize("terms, bad", [
        (("two words",), "two words"), (("Apple",), "Apple"), (("",), ""), (("a", "x1"), "x1"),
        (("a", "b", 7), 7), (("a", None), None), ("abx", None),
    ], ids=["phrase", "capital", "empty", "digit", "int", "none", "one-str"])
    def test_terms_must_each_be_one_token_of_itself(self, tmp_path, terms, bad):
        """A substring test would find a phrase that no token equals, so such a term is refused."""
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1", "text": "a two words: Apple x1"}\n', encoding="utf-8")
        message = "terms must be a sequence of words, not one str" if isinstance(terms, str) else (
            f"term {bad!r} is not one word as tokenize gives it"
        )
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            load_corpus(path, terms)

    def test_a_corpus_of_given_words_refuses_others(self, tmp_path):
        (tmp_path / "d1.txt").write_text("Apple pie, apple!", encoding="utf-8")
        (tmp_path / "d2.txt").write_text("\u00c4pfel and pears", encoding="utf-8")
        docs = load_corpus(tmp_path, [np.str_("apple"), "\u00e4pfel", "apple", "fig"])
        assert docs.terms == frozenset({"apple", "\u00e4pfel", "fig"})
        assert [(doc.id, doc.tokens) for doc in docs] == [("d1.txt", ("apple",)), ("d2.txt", ("\u00e4pfel",))]
        assert all(type(word) is str for doc in docs for word in doc.tokens)
        expected = brute_force_cells(load_corpus(tmp_path), "apple", "fig", "\u00e4pfel")
        assert count_corpus(docs, np.str_("apple"), "fig", "\u00e4pfel") == expected
        for word in ("pie", "pears", np.str_("and")):
            message = f"this corpus was loaded without the word {word!r}"
            with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
                count_corpus(docs, "apple", "fig", word)
