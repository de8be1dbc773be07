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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from .errors import InconsistentRatios, InvalidCounts, InvalidInput, ZeroDenominator

_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)
# On ASCII text _WORD_RE matches exactly the runs of ASCII letters, so mapping
# every other ASCII character to a space and splitting gives the same tokens.
# Letters map to themselves: str.translate raises and clears a KeyError per call
# for each distinct character missing from the table.
_ASCII_SPLIT = str.maketrans({chr(c): chr(c) if chr(c).isalpha() else " " for c in range(128)})


@dataclass(frozen=True)
class TokenizerConfig:
    """Unicode lowercasing, split on non-letters; optional stemmer hook."""

    stemmer: Callable[[str], str] | None = None


DEFAULT_TOKENIZER = TokenizerConfig()


def tokenize(raw_text: str, config: TokenizerConfig = DEFAULT_TOKENIZER) -> list[str]:
    """Lowercase word tokens in order, duplicates kept, '' gives []."""
    lowered = raw_text.lower()
    # test the lowered text: some non-ASCII letters lowercase to ASCII (U+212A -> 'k')
    if lowered.isascii():
        tokens = lowered.translate(_ASCII_SPLIT).split()
    else:
        tokens = _WORD_RE.findall(lowered)
    if config.stemmer is not None:
        tokens = [config.stemmer(tok) for tok in tokens]
    return tokens


@dataclass(frozen=True)
class Document:
    """A document's tokens in order, and ``terms``, the set of words it contains.

    ``terms`` is built once here, so that every probe counted against the
    document tests presence without rebuilding it.
    """

    id: str
    tokens: tuple[str, ...]
    terms: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.id:
            raise InvalidCounts("document id must be nonempty")
        tokens = tuple(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "terms", frozenset(tokens))


def document_from_text(doc_id: str, text: str, config: TokenizerConfig = DEFAULT_TOKENIZER) -> Document:
    return Document(doc_id, tuple(tokenize(text, config)))


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


def load_corpus(path: str | Path, config: TokenizerConfig = DEFAULT_TOKENIZER) -> list[Document]:
    """Read a corpus: a directory of text files, or a JSON-lines file.

    Directory: every regular file is one document, id = file name, in name
    order.  JSON lines: one {"id": ..., "text": ...} object per line; a line
    that is valid JSON but not an object raises InvalidInput.  Equal tokens
    share one string object across the whole corpus.
    """
    shared: dict[str, str] = {}

    def document(doc_id: str, text: str) -> Document:
        tokens = tokenize(text, config)
        return Document(doc_id, tuple(map(shared.setdefault, tokens, tokens)))

    p = Path(path)
    docs: list[Document] = []
    if p.is_dir():
        with os.scandir(p) as entries:
            files = sorted((entry.name, entry.path) for entry in entries if _is_file(entry))
        for name, file_path in files:
            # read bytes and decode whole: newline translation would not change a token
            with open(file_path, "rb") as handle:
                docs.append(document(name, handle.read().decode("utf-8")))
        return docs
    with p.open(encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if not isinstance(record, dict):
                raise InvalidInput(f"line {line_no}: expected a JSON object, got {type(record).__name__}")
            docs.append(document(str(record["id"]), str(record["text"])))
    return docs


def _count_text(value: int) -> str:
    """str(value), or its size where the int has more digits than str() will print."""
    try:
        return str(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _check_count(name: str, value: int) -> None:
    """Raise InvalidCounts unless value is an int, not a bool, in [0, 2**53]."""
    if type(value) is bool or not isinstance(value, int):
        raise InvalidCounts(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise InvalidCounts(f"{name} is negative: {_count_text(value)}")
    if value > 2**53:
        raise InvalidCounts(f"{name} exceeds 2**53, above which counts are not exact as floats")


@dataclass(frozen=True)
class ThreeTermCounts:
    """The eight disjoint cells of a three-word presence pattern.

    Field ``n<a><b><x>`` counts documents where digit 1 means the word is
    present and 0 absent, in the order (a, b, x): n101 is "a and x but not b".
    """

    n111: int = 0
    n110: int = 0
    n101: int = 0
    n100: int = 0
    n011: int = 0
    n010: int = 0
    n001: int = 0
    n000: int = 0

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            _check_count(f"cell {name}", value)

    def as_dict(self) -> dict[str, int]:
        return self.__dict__.copy()

    @property
    def total(self) -> int:
        return sum(self.as_dict().values())

    def __add__(self, other: "ThreeTermCounts") -> "ThreeTermCounts":
        mine, theirs = self.as_dict(), other.as_dict()
        return ThreeTermCounts(**{k: mine[k] + theirs[k] for k in mine})


def count_corpus(documents: Iterable[Document], a: str, b: str, x: str) -> ThreeTermCounts:
    """Tally each document into exactly one of the eight presence cells."""
    # slot (a in t) << 2 | (b in t) << 1 | (x in t): slot 7 is n111, slot 0 n000
    tally = [0] * 8
    for doc in documents:
        terms = doc.terms
        tally[(a in terms) << 2 | (b in terms) << 1 | (x in terms)] += 1
    return ThreeTermCounts(*reversed(tally))


@dataclass(frozen=True)
class CountTable:
    """Marginal page counts for words a, b, x and their co-occurrences.

    Structural invariants enforced here are the ones every formula in the
    package needs: integer cells in [0, 2**53], n_abx <= n_ab, n_ax <= n_a, n_bx <= n_b,
    n_ab <= min(n_a, n_b).  Cross-marginal consistency (for example
    n_abx <= n_ax) is reported by ``classically_consistent`` instead of
    enforced, because externally measured search counts routinely violate it.
    """

    n_a: int
    n_b: int
    n_ab: int
    n_ax: int
    n_bx: int
    n_abx: int

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            _check_count(name, value)
        if self.n_ab > min(self.n_a, self.n_b):
            raise InvalidCounts(f"n_ab={self.n_ab} exceeds min(n_a, n_b)")
        if self.n_ax > self.n_a:
            raise InvalidCounts(f"n_ax={self.n_ax} exceeds n_a={self.n_a}")
        if self.n_bx > self.n_b:
            raise InvalidCounts(f"n_bx={self.n_bx} exceeds n_b={self.n_b}")
        if self.n_abx > self.n_ab:
            raise InvalidCounts(f"n_abx={self.n_abx} exceeds n_ab={self.n_ab}")

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

    def as_dict(self) -> dict[str, int]:
        return self.__dict__.copy()

    @classmethod
    def from_dict(cls, data: dict) -> "CountTable":
        """The table of a count-table JSON object; integral floats are read as ints."""
        if not isinstance(data, dict):
            raise InvalidCounts(f"count-table JSON must be an object, got {type(data).__name__}")
        values = {}
        for key in cls.__dataclass_fields__:
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


@dataclass(frozen=True)
class ProbabilityTriple:
    """mu_a = n_ax/n_a, mu_b = n_bx/n_b, and the observed n_abx/n_ab."""

    mu_a: float
    mu_b: float
    mu_ab_observed: float


def probabilities(table: CountTable) -> ProbabilityTriple:
    """Occurrence ratios of x within the a-pages, b-pages, and ab-pages."""
    for name, denom in (("n_a", table.n_a), ("n_b", table.n_b), ("n_ab", table.n_ab)):
        if denom == 0:
            raise ZeroDenominator(f"marginal {name} is zero")
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
    for name, total in (("n_a", n_a), ("n_b", n_b), ("n_ab", n_ab)):
        if total <= 0:
            raise InconsistentRatios(f"total {name} must be positive, got {total}")
    for name, ratio in (("mu_a", mu_a), ("mu_b", mu_b), ("mu_ab", mu_ab)):
        if not 0.0 <= ratio <= 1.0:
            raise InconsistentRatios(f"ratio {name}={ratio!r} is outside [0, 1]")
    try:
        return CountTable(
            n_a=n_a,
            n_b=n_b,
            n_ab=n_ab,
            n_ax=_round_half_up(mu_a * n_a),
            n_bx=_round_half_up(mu_b * n_b),
            n_abx=_round_half_up(mu_ab * n_ab),
        )
    except InvalidCounts as exc:
        raise InconsistentRatios(str(exc)) from exc
