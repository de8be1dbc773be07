"""One SHA-256 per public numeric and table function of qocc, over seeded edge-heavy inputs.

Usage: python tools/output_hash.py SRC_DIR [--n N]

Imports ``qocc`` from SRC_DIR, the directory that holds the package (``src``
in a checkout), calls each function below N times and prints one line per
function:

    <function> calls=<N> errors=<E> sha256=<hex>

The hash runs over each call's result as its ``repr`` (floats by their
shortest round-trip digits), or over the type and message of the exception
the call raised.  The inputs depend only on N and the function's name, never
on what qocc returns, so running the tool on two checkouts and diffing the
output names every function whose values, error types or messages differ.
Standard library only.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import random
import sys
import tempfile
from pathlib import Path

# unit-interval arguments: both ends, signed zero, values 1e-12 or one ulp
# inside or outside the ends, values well outside, and the IEEE specials
UNIT_EDGES = (
    0.0, -0.0, 1.0, 0.5, 1e-12, 1.0 - 1e-12, 5e-324, 1.0000000000000002, -1e-300,
    -0.1, 1.5, math.nan, math.inf, -math.inf,
)
COSINE_EDGES = (-1.0, 1.0, 0.0, -0.0, 1e-12, -1.0000000000000002, 3.0, -math.inf, math.nan)
# -1e-20 and -5e-324 are phases that reduce modulo 2*pi to 2*pi itself
PHASE_EDGES = (
    0.0, math.pi / 2.0, math.pi, -math.pi, 2.0 * math.pi, 7.0, -1e-20, -5e-324, math.inf, math.nan,
)
# table cells as JSON decoding or a library caller can give them
CELL_EDGES = (
    0, 1, 2**53, 2**53 + 1, -1, 10**400, True, False, None, "3", [], 1.5, 2.0, -0.0,
    math.nan, math.inf, 1e300,
)
TOTALS = (0, 1, 7, 1000, 378_000_000)
COUNT_KEYS = ("n_a", "n_b", "n_ab", "n_ax", "n_bx", "n_abx")
TEXT_PIECES = (
    "apple", "Pear", "STONE", "caf\u00e9", "\u212a", "stra\u00dfe", "\u0130", "x_y", "a1b", "42",
    "-", " ", "\t\n", "",
)
# JSON values that are not strings, for a JSON-lines id or text
NON_STRINGS = (None, 0, 7, True, False, 1.5, [], ["a"], {}, {"text": "a"})
# probe words: words of TEXT_PIECES as tokenize gives them, and one no text holds
PROBE_WORDS = ("apple", "pear", "stone", "caf\u00e9", "k", "x", "y", "absent")
EDGE_SHARE = 0.1


def unit(rng: random.Random) -> float:
    return rng.choice(UNIT_EDGES) if rng.random() < EDGE_SHARE else rng.random()


def cosine(rng: random.Random) -> float:
    return rng.choice(COSINE_EDGES) if rng.random() < EDGE_SHARE else rng.uniform(-1.0, 1.0)


def phase(rng: random.Random) -> float:
    return rng.choice(PHASE_EDGES) if rng.random() < EDGE_SHARE else rng.uniform(0.0, 2.0 * math.pi)


def cell(rng: random.Random):
    return rng.choice(CELL_EDGES) if rng.random() < EDGE_SHARE else rng.randint(0, 40)


def counts(rng: random.Random, scaled: bool = True) -> dict:
    """A valid count table: every boundary of small tables, some scaled up to 2**53."""
    top = rng.choice((6, 6, 1000))
    n_a = rng.randint(0, top)
    n_b = n_a if rng.random() < 0.3 else rng.randint(0, top)
    n_ab = rng.randint(0, min(n_a, n_b))
    values = (n_a, n_b, n_ab, rng.randint(0, n_a), rng.randint(0, n_b), rng.randint(0, n_ab))
    scale = rng.choice((1, 1, 1, 10**9, 2**53 // 1000)) if scaled else 1
    return {key: value * scale for key, value in zip(COUNT_KEYS, values)}


def table_json(rng: random.Random):
    """A decoded count-table JSON value: a valid table with cells replaced or dropped, or no object."""
    if rng.random() < 0.03:
        return rng.choice((None, [1, 2], "table", 3))
    data = counts(rng)
    for key in COUNT_KEYS:
        draw = rng.random()
        if draw < 0.04:
            del data[key]
        elif draw < 0.2:
            data[key] = rng.choice(CELL_EDGES)
    return data


def text(rng: random.Random) -> str:
    return " ".join(rng.choice(TEXT_PIECES) for _ in range(rng.randint(0, 6)))


def json_lines(rng: random.Random) -> list[str]:
    """A JSON-lines corpus: documents of TEXT_PIECES with blank, non-object, keyless, cut or
    non-string lines."""
    lines = []
    for i in range(rng.randint(0, 6)):
        draw, line = rng.random(), json.dumps({"id": f"d{i}", "text": text(rng)})
        if draw < 0.05:
            line = rng.choice(("", " \t"))
        elif draw < 0.1:
            line = rng.choice(("[1, 2]", "3", '"text"', "null"))
        elif draw < 0.15:
            line = json.dumps({rng.choice(("id", "text")): "d"})
        elif draw < 0.2:
            line = line[: rng.randint(0, len(line) - 1)]
        elif draw < 0.25:
            record = {"id": f"d{i}", "text": text(rng)}
            record[rng.choice(("id", "text"))] = rng.choice(NON_STRINGS)
            line = json.dumps(record)
        lines.append(line)
    return lines


def bad_corpus(rng: random.Random) -> tuple[str, list[bytes]]:
    """A JSON-lines file's lines or a directory's files, some with an empty or non-string id, a
    non-string text or a raw 0xE9 byte."""
    kind, parts = rng.choice(("jsonl", "dir")), []
    for i in range(rng.randint(0, 6)):
        draw, body = rng.random(), text(rng)
        if kind == "jsonl":
            record = {"id": "" if draw < 0.1 else f"d{i}", "text": body}
            if 0.1 <= draw < 0.2:
                record[rng.choice(("id", "text"))] = rng.choice(NON_STRINGS)
            part = json.dumps(record, ensure_ascii=rng.random() < 0.5).encode("utf-8")
        else:
            part = body.encode("utf-8")
        if draw > 0.85:
            at = rng.randint(0, len(part))
            part = part[:at] + b"\xe9" + part[at:]
        parts.append(part)
    return kind, parts


@contextlib.contextmanager
def written(kind: str, parts: list[bytes]):
    """The path of parts, written as JSON lines or one file each, for the with-block."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder)
        if kind == "jsonl":
            path = path / "corpus.jsonl"
            path.write_bytes(b"".join(part + b"\n" for part in parts))
        else:
            for i, part in enumerate(parts):
                (path / f"d{i}.txt").write_bytes(part)
        yield path


def load(qocc, kind: str, parts: list[bytes], terms=None):
    """load_corpus on parts, of every word or of terms only."""
    with written(kind, parts) as path:
        return qocc.load_corpus(path, terms)


def read_corpus(qocc, kind: str, parts: list[bytes], terms=None) -> list[tuple[str, tuple[str, ...]]]:
    """(id, tokens) per document of load_corpus on parts."""
    return [(doc.id, doc.tokens) for doc in load(qocc, kind, parts, terms)]


def bad_corpus_and_terms(rng: random.Random) -> tuple[str, list[bytes], tuple[str, str, str]]:
    """A bad_corpus draw and three probe words to load it with."""
    kind, parts = bad_corpus(rng)
    return kind, parts, tuple(rng.choice(PROBE_WORDS) for _ in range(3))


def texts_and_probes(rng: random.Random) -> tuple[str, list[bytes], list[tuple[str, str, str]]]:
    """A valid corpus as JSON lines or files, and up to 16 probes of PROBE_WORDS to count on it."""
    kind = rng.choice(("jsonl", "dir"))
    bodies = [text(rng) for _ in range(rng.randint(0, 8))]
    if kind == "jsonl":
        bodies = [json.dumps({"id": f"d{i}", "text": body}) for i, body in enumerate(bodies)]
    parts = [body.encode("utf-8") for body in bodies]
    probes = [tuple(rng.choice(PROBE_WORDS) for _ in range(3)) for _ in range(rng.randint(1, 16))]
    return kind, parts, probes


def make_document(qocc, doc_id: str, tokens) -> tuple:
    doc = qocc.Document(doc_id, tokens)
    return doc, sorted(doc.terms)


def count_loaded(qocc, kind: str, parts: list[bytes], probes: list[tuple[str, str, str]]) -> list[dict]:
    """Every probe counted on one load_corpus result, so later probes reuse what earlier ones built."""
    docs = load(qocc, kind, parts)
    return [qocc.count_corpus(docs, *terms).as_dict() for terms in probes]


def count_each_loaded(qocc, kind: str, parts: list[bytes], probes: list[tuple[str, str, str]]) -> list[dict]:
    """Every probe counted on its own load_corpus(path, probe), as ``qocc count`` does."""
    with written(kind, parts) as path:
        return [qocc.count_corpus(qocc.load_corpus(path, terms), *terms).as_dict() for terms in probes]


def document(rng: random.Random) -> tuple[str, object]:
    """A Document's arguments: an id that may be empty, and tokens as a tuple, a list or one str."""
    doc_id = rng.choice(("", "d", "0", " ", "caf\u00e9"))
    tokens = text(rng)
    draw = rng.random()
    if draw < 0.4:
        return doc_id, tuple(tokens.split())
    if draw < 0.7:
        return doc_id, tokens.split()
    return doc_id, tokens


def corpus(rng: random.Random) -> tuple[list[list[str]], tuple[str, str, str]]:
    words = ("a", "b", "x", "y")
    docs = [rng.choices(words, k=rng.randint(0, 5)) for _ in range(rng.randint(0, 12))]
    return docs, tuple(rng.choice(("a", "b", "x", "absent")) for _ in range(3))


def phases(rng: random.Random) -> tuple[dict, list[float], list[float]]:
    """A small table and phase lists of the lengths it needs, sometimes one too long."""
    data = counts(rng, scaled=False)
    n_x, n_x_prime = data["n_abx"], data["n_ab"] - data["n_abx"]
    if rng.random() < 0.1:
        n_x += 1
    return data, [phase(rng) for _ in range(n_x)], [phase(rng) for _ in range(n_x_prime)]


def sums(rng: random.Random) -> tuple[dict, float, float]:
    """A table and cosine sums k_x, k_x' over up to 1.1 times their ranges."""
    data = counts(rng)
    n_x, n_x_prime = data["n_abx"], data["n_ab"] - data["n_abx"]
    return data, rng.uniform(-1.1, 1.1) * n_x, rng.uniform(-1.1, 1.1) * n_x_prime


def units(k: int):
    """A draw of k unit-interval arguments."""
    return lambda rng: [unit(rng) for _ in range(k)]


def one_table(rng: random.Random) -> tuple[dict]:
    return (counts(rng),)


def cases(qocc, canonical_json) -> dict:
    """function name -> (draw, call): draw(rng) builds plain arguments, call(*args) runs qocc."""
    table = qocc.CountTable
    return {
        "tokenize": (lambda r: (text(r),), qocc.tokenize),
        "load_corpus": (
            lambda r: (json_lines(r),),
            lambda lines: read_corpus(qocc, "jsonl", [line.encode("utf-8") for line in lines]),
        ),
        "load_corpus_errors": (bad_corpus, lambda kind, parts: read_corpus(qocc, kind, parts)),
        "load_corpus_terms_errors": (
            bad_corpus_and_terms, lambda kind, parts, terms: read_corpus(qocc, kind, parts, terms)
        ),
        "Document": (document, lambda doc_id, tokens: make_document(qocc, doc_id, tokens)),
        "count_corpus": (
            corpus,
            lambda docs, terms: qocc.count_corpus(
                [qocc.Document(str(i), tokens) for i, tokens in enumerate(docs)], *terms
            ).as_dict(),
        ),
        "count_corpus_loaded": (
            texts_and_probes, lambda kind, parts, probes: count_loaded(qocc, kind, parts, probes)
        ),
        "load_corpus_terms": (
            texts_and_probes, lambda kind, parts, probes: count_each_loaded(qocc, kind, parts, probes)
        ),
        "marginals": (
            lambda r: [cell(r) for _ in range(8)],
            lambda *cells: qocc.marginals(qocc.ThreeTermCounts(*cells)).as_dict(),
        ),
        "CountTable.from_dict": (
            lambda r: (table_json(r),), lambda data: table.from_dict(data).as_dict()
        ),
        "probabilities": (one_table, lambda data: qocc.probabilities(table(**data))),
        "table_from_ratios": (
            lambda r: [r.choice(TOTALS) for _ in range(3)] + units(3)(r),
            lambda *args: qocc.table_from_ratios(*args).as_dict(),
        ),
        "interference_interval": (
            one_table, lambda data: qocc.interference_interval(table(**data)).as_dict()
        ),
        "fits_interference_only": (one_table, lambda data: qocc.fits_interference_only(table(**data))),
        "mu_ab_interference_sums": (
            sums, lambda data, k_x, k_x_prime: qocc.mu_ab_interference_sums(table(**data), k_x, k_x_prime)
        ),
        "mu_ab_interference": (
            phases,
            lambda data, *deltas: qocc.mu_ab_interference(table(**data), *deltas),
        ),
        "classify_extension": (units(3), lambda *args: qocc.classify_extension(*args).value),
        "build_report": (
            one_table, lambda data: canonical_json(qocc.build_report(table(**data)).as_dict())
        ),
        "mu_ab_cosines": (lambda r: units(6)(r) + [cosine(r), cosine(r)], qocc.mu_ab_cosines),
        "ModelParams": (lambda r: units(4)(r) + [phase(r), phase(r)], qocc.ModelParams),
        "mu_ab_full": (
            lambda r: units(6)(r) + [phase(r), phase(r)],
            lambda mu_a, mu_b, *params: qocc.mu_ab_full(mu_a, mu_b, qocc.ModelParams(*params)),
        ),
        "mu_ab_convex": (units(4), qocc.mu_ab_convex),
        "context_interval": (units(6), lambda *args: qocc.context_interval(*args).as_dict()),
        "fit_params": (units(3), lambda *args: qocc.fit_params(*args).as_dict()),
        "fit_params_constrained": (
            units(7), lambda *args: qocc.fit_params_constrained(*args).as_dict()
        ),
    }


def hash_line(name: str, draw, call, n: int) -> str:
    rng = random.Random(name)
    digest = hashlib.sha256()
    errors = 0
    for _ in range(n):
        args = draw(rng)
        try:
            out = repr(call(*args))
        except Exception as exc:  # the error type and message are part of the output
            errors += 1
            out = f"{type(exc).__name__}: {exc}"
        digest.update(out.encode("utf-8", "backslashreplace") + b"\n")
    return f"{name} calls={n} errors={errors} sha256={digest.hexdigest()}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dir", metavar="SRC_DIR", help="directory that holds the qocc package")
    parser.add_argument("--n", type=int, default=2000, help="calls per function (default 2000)")
    args = parser.parse_args(argv)
    src = Path(args.src_dir).resolve()
    sys.path.insert(0, str(src))
    import qocc
    from qocc.cli import canonical_json

    if not Path(qocc.__file__).resolve().is_relative_to(src):
        print(f"output_hash: qocc was imported from {qocc.__file__}, not from {src}", file=sys.stderr)
        return 2
    for name, (draw, call) in cases(qocc, canonical_json).items():
        print(hash_line(name, draw, call, args.n), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
