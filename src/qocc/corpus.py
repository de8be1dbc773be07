"""Document counting: three-term presence cells, marginals, count ratios.

All counting is presence-based: a word occurs in a document if it appears at
least once, term frequency is ignored.  Marginal counts are always derived
from the eight disjoint presence/absence cells of a three-word search, never
queried separately, so they are consistent by construction.
"""
from __future__ import annotations

import errno
import json
import math
import os
import re
from array import array
from collections import defaultdict
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import InconsistentRatios, InvalidCounts, InvalidInput, QoccError, ZeroDenominator

_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)
# On ASCII text _WORD_RE matches exactly the runs of ASCII letters, so mapping
# A-Z to a-z and every other ASCII byte to a space, then splitting, gives the
# same tokens as lowering and matching.  Bytes above 127 are never translated:
# only ASCII text is encoded and read through this table.
_ASCII_BYTES = bytes(c + 32 if 65 <= c <= 90 else c if 97 <= c <= 122 else 32 for c in range(256))


def tokenize(raw_text: str) -> list[str]:
    """Lowercase word tokens in order, duplicates kept, '' gives [].

    ASCII text is lowered and split in one pass through ``_ASCII_BYTES``.
    Other text is lowered, and its tokens are ``_WORD_RE``'s matches.
    """
    if raw_text.isascii():
        return raw_text.encode().translate(_ASCII_BYTES).decode().split()
    return _WORD_RE.findall(raw_text.lower())


def _present(raw_text: str, words: tuple[str, ...]) -> tuple[str, ...]:
    """The words that ``tokenize(raw_text)`` holds, found without listing its tokens.

    Each word must be one token of itself.  ASCII text is read through
    ``_ASCII_BYTES`` as ``tokenize`` reads it: runs of lowercase letters
    between spaces, so a word padded with a space at each end occurs in the
    padded text exactly where it is a whole token.  Other text is tokenized.
    """
    if raw_text.isascii():
        spaced = f" {raw_text.encode().translate(_ASCII_BYTES).decode()} "
        return tuple(word for word in words if f" {word} " in spaced)
    found = set(tokenize(raw_text))
    return tuple(word for word in words if word in found)


class _Record:
    """Base of the package's frozen records, with a frozen dataclass's behaviour.

    A record's fields are the parameters of its ``__init__``, in order, which
    ``__init_subclass__`` reads into ``_fields``; equality, hash and repr read
    that tuple.  Each ``__init__`` stores its fields with one ``__dict__``
    store per field, which costs less than a generic ``__init__`` or the
    dataclass's ``object.__setattr__`` calls; ``import dataclasses`` alone
    would load ``inspect`` at every cold start.
    """

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def as_dict(self) -> dict:
        """Field name -> value, in field order: the ``__dict__`` that ``__init__`` filled, copied."""
        return self.__dict__.copy()


class Document(_Record):
    """A document's tokens in order, and ``terms``, the set of words it contains.

    ``terms`` is computed from ``tokens`` on each read and not stored: a
    document keeps only its two fields, ``id`` and ``tokens``.
    """

    def __init__(self, id: str, tokens: Iterable[str]) -> None:
        if not isinstance(id, str):
            raise InvalidInput(f"document id must be a string, got {type(id).__name__}")
        if not id:
            raise InvalidInput("document id must be nonempty")
        if isinstance(tokens, str):
            raise InvalidInput("document tokens must be a sequence of words, not one str")
        # not through self.__dict__: reading it would give every document a dict of its own
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "tokens", tuple(tokens))

    @property
    def terms(self) -> frozenset[str]:
        return frozenset(self.tokens)


class Corpus(tuple):
    """An immutable sequence of ``Document``s that counts any probe from bitmaps.

    ``__new__`` builds one posting index in a plain loop over every token:
    each term to an ``array`` of the indices of the documents that hold it,
    one entry per token, so a repeated token repeats its index.  An entry
    takes 2 bytes (typecode "H") on a corpus of up to 65,536 documents and
    4 bytes ("I") above, against 8 for a ``list`` slot.  The bitmap of a
    term is one int with one bit per document, set where the document
    contains the term, document 0 the highest.  The first time the term is
    counted, a plain loop over its postings writes a "1" digit per posting
    into a row of "0"s, which ``int(..., 2)`` reads; then it is kept: n/8
    bytes for each distinct term counted on this corpus, never evicted.  The
    tuple, its documents and its attributes cannot change, so a kept bitmap
    cannot go stale.

    ``terms`` is None, or the only words this corpus may count: a corpus that
    ``load_corpus`` read for given words holds no others, so counting another
    raises InvalidInput instead of giving a silent 0.  ``terms`` are read as
    ``load_corpus`` reads them: one str, or a term that is not one token of
    itself, raises InvalidInput.
    """

    def __new__(cls, documents: Iterable[Document] = (), terms: Iterable[str] | None = None) -> "Corpus":
        terms = None if terms is None else frozenset(_words(terms))
        corpus = super().__new__(cls, documents)
        # document numbers 0 to 65535 fit in 2 bytes, and any above in 4
        typecode = "H" if len(corpus) <= 65536 else "I"
        postings: defaultdict[str, array] = defaultdict(partial(array, typecode))
        for i, doc in enumerate(corpus):
            if not isinstance(doc, Document):
                raise InvalidInput(f"corpus item {i} is a {type(doc).__name__}, not a Document")
            # array.append converts each int through PyArg_Parse, about 100 ns a call,
            # against 30-60 ns for frombytes of the document's index packed once
            index = array(typecode, (i,)).tobytes()
            for token in doc.tokens:
                postings[token].frombytes(index)
        object.__setattr__(corpus, "terms", terms)
        object.__setattr__(corpus, "_postings", postings)
        object.__setattr__(corpus, "_bitmaps", {})
        return corpus

    __setattr__ = _Record.__setattr__
    __delattr__ = _Record.__delattr__

    def __reduce__(self):
        return self.__class__, (tuple(self), self.terms)

    def _bitmap(self, term: str) -> int:
        bits = self._bitmaps.get(term)
        if bits is None:
            if self.terms is not None and term not in self.terms:
                raise InvalidInput(f"this corpus was loaded without the word {term!r}")
            # one ASCII digit per document, document 0 first: the highest bit
            digits = bytearray(b"0") * len(self)
            for i in self._postings.get(term, ()):
                digits[i] = 49  # ord("1")
            # int() refuses no digits at all: an empty corpus counts from b"0"
            bits = self._bitmaps[term] = int(digits or b"0", 2)
        return bits


# errors that Path.is_file reads as "not a file": a dangling or looping symlink,
# or one that passes through a regular file
_NOT_A_FILE = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)


def _is_file(entry: os.DirEntry) -> bool:
    try:
        return entry.is_file()
    except OSError as exc:
        if exc.errno in _NOT_A_FILE:
            return False
        raise


def _documents(p: Path, document: Callable[[str, str], Document]) -> Iterator[Document]:
    """``document(id, text)`` of each document under p, checked as ``load_corpus`` says."""
    if p.is_dir():
        with os.scandir(p) as entries:
            files = sorted((entry.name, entry.path) for entry in entries if _is_file(entry))
        for name, file_path in files:
            # read bytes and decode whole: newline translation would not change a token
            with open(file_path, "rb") as handle:
                data = handle.read()
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InvalidInput(f"{name}: {exc}") from exc
            yield document(name, text)
        return
    # split at b"\n" alone; a line is decoded once and made a Document in the try that names it
    with p.open("rb") as handle:
        for line_no, data in enumerate(handle, 1):
            try:
                line = data.decode("utf-8-sig" if line_no == 1 else "utf-8").strip()
                if not line:
                    continue
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise InvalidInput(f"expected a JSON object, got {type(record).__name__}")
                doc_id, text = record["id"], record["text"]
                if type(doc_id) is not str:
                    raise InvalidInput(f"id must be a string, got {type(doc_id).__name__}")
                if type(text) is not str:
                    raise InvalidInput(f"text must be a string, got {type(text).__name__}")
                yield document(doc_id, text)
            except KeyError as exc:
                raise InvalidInput(f"line {line_no}: missing key {exc}") from exc
            except (ValueError, RecursionError, QoccError) as exc:
                raise InvalidInput(f"line {line_no}: {exc}") from exc


def _words(terms: Iterable[str]) -> tuple[str, ...]:
    """The distinct terms in order, each checked to be one token of itself."""
    if isinstance(terms, str):
        raise InvalidInput("terms must be a sequence of words, not one str")
    words = []
    for term in terms:
        # tokenize gives a plain str for a str subclass such as numpy.str_
        tokens = tokenize(term) if isinstance(term, str) else None
        if tokens != [term]:
            raise InvalidInput(f"term {term!r} is not one word as tokenize gives it")
        words += tokens
    return tuple(dict.fromkeys(words))


def load_corpus(path: str | Path, terms: Iterable[str] | None = None) -> Corpus:
    """Read a corpus: a directory of text files, or a JSON-lines file.

    Directory: every regular file is one document, id = file name, in name
    order; a file that is not UTF-8 raises InvalidInput naming the file.
    JSON lines: one {"id": ..., "text": ...} object of two strings per line.
    Only "\\n" ends a line, and a byte order mark may open line 1 alone.  A
    line that is not such an object, or not UTF-8, raises InvalidInput naming
    its number and, for a bad byte, its position counted past any mark.
    Equal tokens share one string object across the whole corpus.  The
    documents come back as a ``Corpus``, which keeps the presence bitmap of
    every term it has counted.
    With ``terms``, words that are each one token of themselves, the files
    and lines are read and checked the same way, but no text is tokenized:
    each document's ``tokens`` are the terms it contains, and the ``Corpus``
    counts those terms only.
    """
    if terms is None:
        shared: dict[str, str] = {}

        def document(doc_id: str, text: str) -> Document:
            tokens = tokenize(text)
            return Document(doc_id, tuple(map(shared.setdefault, tokens, tokens)))
    else:
        terms = _words(terms)

        def document(doc_id: str, text: str) -> Document:
            return Document(doc_id, _present(text, terms))
    return Corpus(_documents(Path(path), document), terms)


def _count_text(value: int) -> str:
    """str(value), or its size where the int has more digits than str() will print."""
    try:
        return str(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _outside_unit(name: str, value: float) -> InvalidInput:
    """The error for a probability outside [0, 1]; each check is one comparison written where it runs."""
    return InvalidInput(f"{name}={value!r} is outside [0, 1]")


def _check_count(name: str, value: int) -> None:
    """Raise InvalidCounts unless value is an int, not a bool, in [0, 2**53]."""
    if type(value) is bool or not isinstance(value, int):
        raise InvalidCounts(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise InvalidCounts(f"{name} is negative: {_count_text(value)}")
    if value > 2**53:
        raise InvalidCounts(f"{name} exceeds 2**53, above which counts are not exact as floats")


class ThreeTermCounts(_Record):
    """The eight disjoint cells of a three-word presence pattern.

    Field ``n<a><b><x>`` counts documents where digit 1 means the word is
    present and 0 absent, in the order (a, b, x): n101 is "a and x but not b".
    """

    def __init__(
        self, n111: int = 0, n110: int = 0, n101: int = 0, n100: int = 0,
        n011: int = 0, n010: int = 0, n001: int = 0, n000: int = 0,
    ) -> None:
        cells = self.__dict__
        cells["n111"] = n111
        cells["n110"] = n110
        cells["n101"] = n101
        cells["n100"] = n100
        cells["n011"] = n011
        cells["n010"] = n010
        cells["n001"] = n001
        cells["n000"] = n000
        for name, value in cells.items():
            _check_count(f"cell {name}", value)

    @property
    def total(self) -> int:
        return sum(self.as_dict().values())

    def __add__(self, other: "ThreeTermCounts") -> "ThreeTermCounts":
        if not isinstance(other, ThreeTermCounts):
            return NotImplemented
        mine, theirs = self.as_dict(), other.as_dict()
        return ThreeTermCounts(**{k: mine[k] + theirs[k] for k in mine})


def count_corpus(documents: Iterable[Document], a: str, b: str, x: str) -> ThreeTermCounts:
    """The eight presence cells, from the bitmaps of a, b and x.

    Any iterable other than a ``Corpus`` is counted through a throwaway one,
    which indexes every token, so only a ``Corpus`` that is kept reuses its
    posting index and bitmaps across probes.
    """
    corpus = documents if isinstance(documents, Corpus) else Corpus(documents)
    a_bits, b_bits, x_bits = corpus._bitmap(a), corpus._bitmap(b), corpus._bitmap(x)
    both, a_only, b_only, not_x = a_bits & b_bits, a_bits & ~b_bits, b_bits & ~a_bits, ~x_bits
    return ThreeTermCounts(
        (both & x_bits).bit_count(), (both & not_x).bit_count(),
        (a_only & x_bits).bit_count(), (a_only & not_x).bit_count(),
        (b_only & x_bits).bit_count(), (b_only & not_x).bit_count(),
        (x_bits & ~(a_bits | b_bits)).bit_count(), len(corpus) - (a_bits | b_bits | x_bits).bit_count(),
    )


class CountTable(_Record):
    """Marginal page counts for words a, b, x and their co-occurrences.

    Structural invariants enforced here are the ones every formula in the
    package needs: integer cells in [0, 2**53], n_abx <= n_ab, n_ax <= n_a, n_bx <= n_b,
    n_ab <= min(n_a, n_b).  Cross-marginal consistency (for example
    n_abx <= n_ax) is reported by ``classically_consistent`` instead of
    enforced, because externally measured search counts routinely violate it.
    """

    def __init__(self, n_a: int, n_b: int, n_ab: int, n_ax: int, n_bx: int, n_abx: int) -> None:
        cells = self.__dict__
        cells["n_a"] = n_a
        cells["n_b"] = n_b
        cells["n_ab"] = n_ab
        cells["n_ax"] = n_ax
        cells["n_bx"] = n_bx
        cells["n_abx"] = n_abx
        for name, value in cells.items():
            _check_count(name, value)
        if n_ab > n_a or n_ab > n_b:
            raise InvalidCounts(f"n_ab={n_ab} exceeds min(n_a, n_b)")
        if n_ax > n_a:
            raise InvalidCounts(f"n_ax={n_ax} exceeds n_a={n_a}")
        if n_bx > n_b:
            raise InvalidCounts(f"n_bx={n_bx} exceeds n_b={n_b}")
        if n_abx > n_ab:
            raise InvalidCounts(f"n_abx={n_abx} exceeds n_ab={n_ab}")

    @property
    def n_ax_prime(self) -> int:
        return self.n_a - self.n_ax

    @property
    def n_bx_prime(self) -> int:
        return self.n_b - self.n_bx

    @property
    def n_abx_prime(self) -> int:
        return self.n_ab - self.n_abx

    @property
    def classically_consistent(self) -> bool:
        """True when some classical document collection could yield these counts."""
        upper = self.n_abx <= min(self.n_ax, self.n_bx)
        lower = self.n_abx >= max(0, self.n_ab + self.n_ax - self.n_a, self.n_ab + self.n_bx - self.n_b)
        return upper and lower

    @classmethod
    def from_dict(cls, data: dict) -> "CountTable":
        """The table of a count-table JSON object; integral floats are read as ints."""
        if not isinstance(data, dict):
            raise InvalidCounts(f"count-table JSON must be an object, got {type(data).__name__}")
        values = {}
        for key in cls._fields:
            if key not in data:
                raise InvalidCounts(f"count-table JSON is missing key {key!r}")
            value = data[key]
            values[key] = int(value) if isinstance(value, float) and value.is_integer() else value
        return cls(**values)


def marginals(counts: ThreeTermCounts) -> CountTable:
    """Sum the eight cells into the six marginals used downstream."""
    return CountTable(
        n_a=counts.n111 + counts.n110 + counts.n101 + counts.n100,
        n_b=counts.n111 + counts.n110 + counts.n011 + counts.n010,
        n_ab=counts.n111 + counts.n110,
        n_ax=counts.n111 + counts.n101,
        n_bx=counts.n111 + counts.n011,
        n_abx=counts.n111,
    )


class ProbabilityTriple(_Record):
    """mu_a = n_ax/n_a, mu_b = n_bx/n_b, and the observed n_abx/n_ab."""

    def __init__(self, mu_a: float, mu_b: float, mu_ab_observed: float) -> None:
        ratios = self.__dict__
        ratios["mu_a"] = mu_a
        ratios["mu_b"] = mu_b
        ratios["mu_ab_observed"] = mu_ab_observed


def _check_marginals(table: CountTable, *names: str) -> None:
    """Raise ZeroDenominator for the first of the named marginals that is zero."""
    for name in names:
        if getattr(table, name) == 0:
            raise ZeroDenominator(f"marginal {name} is zero")


def probabilities(table: CountTable) -> ProbabilityTriple:
    """Occurrence ratios of x within the a-pages, b-pages, and ab-pages."""
    _check_marginals(table, "n_a", "n_b", "n_ab")
    return ProbabilityTriple(
        mu_a=table.n_ax / table.n_a,
        mu_b=table.n_bx / table.n_b,
        mu_ab_observed=table.n_abx / table.n_ab,
    )


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def table_from_ratios(
    n_a: int,
    n_b: int,
    n_ab: int,
    mu_a: float,
    mu_b: float,
    mu_ab: float,
) -> CountTable:
    """Reconstruct a CountTable from totals and occurrence ratios.

    Products are rounded half-up; ratios reported at three significant
    figures therefore round-trip to the same figures.
    """
    totals = (("n_a", n_a), ("n_b", n_b), ("n_ab", n_ab))
    for name, total in totals:
        if isinstance(total, (int, float)) and total <= 0:
            raise InconsistentRatios(f"total {name} must be positive, got {total}")
    try:
        for name, ratio in (("mu_a", mu_a), ("mu_b", mu_b), ("mu_ab", mu_ab)):
            if not 0.0 <= ratio <= 1.0:
                raise _outside_unit(f"ratio {name}", ratio)
        # before the products: a NaN, infinite or non-numeric total cannot be rounded
        for name, total in totals:
            _check_count(name, total)
        return CountTable(
            n_a=n_a,
            n_b=n_b,
            n_ab=n_ab,
            n_ax=_round_half_up(mu_a * n_a),
            n_bx=_round_half_up(mu_b * n_b),
            n_abx=_round_half_up(mu_ab * n_ab),
        )
    except (InvalidInput, InvalidCounts) as exc:
        raise InconsistentRatios(str(exc)) from exc
