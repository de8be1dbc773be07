"""Seeded benchmark inputs with planted ground truth.

Everything here is made from the seed alone and never by qocc, so the
benchmark can check qocc's outputs against values it did not compute.

Corpora use a letters-only Zipf vocabulary: qocc's tokenizer keeps runs of
letters only, so a word such as ``w123`` would collapse to ``w``.  The pair
(a, b) and every probe x are planted by choosing, for each of the four
(a, b) presence cells, exactly how many documents also carry x.  That fixes
all eight presence cells of every probe in advance; the generator writes
them next to the corpus.

Generated files are cached per seed under ``.bench_cache/`` at the root of
the checkout and written atomically, so an interrupted run leaves no partial
cache behind.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import string
from pathlib import Path

import oracle

GEN_VERSION = 3
CACHE_ROOT = Path(".bench_cache")

SWEEP_DOCS = 4000      # JSON-lines corpus for corpus-sweep
DIR_DOCS = 1000        # plain-text directory corpus for count-cold
DOC_TOKENS = (100, 200)
VOCAB_SIZE = 6000
ZIPF_S = 1.1

# (a, b) presence cell shares of the corpus: a and b, a only, b only
PAIR_SHARES = (0.08, 0.12, 0.10)

# base rate of a probe in the a-pages and b-pages, per frequency band
BANDS = {"common": 0.25, "mid": 0.05, "rare": 0.012}

# multipliers of the base rate in the cells (ab, a only, b only, neither);
# they steer each probe into one extension class
SHAPES = {
    "over": (2.5, 0.7, 0.7, 0.5),
    "over_strong": (3.5, 0.5, 0.5, 0.3),
    "under": (0.25, 1.4, 1.4, 1.0),
    "single": (1.0, 1.6, 0.5, 0.8),
    "neutral": (1.0, 1.0, 1.0, 1.0),
}

EVERY_PAGE = "every_page"
TABLE_PREFIX = "@"

FIT_STRATEGIES = ("convex_no_interference", "underextension_branch", "overextension_branch")
BATCH_ITEMS = 32


def _word(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(lo, hi)))


def _distinct_words(rng: random.Random, count: int, lo: int, hi: int, taken: set[str]) -> list[str]:
    words = []
    while len(words) < count:
        word = _word(rng, lo, hi)
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _pair_cells(rng: random.Random, n_docs: int) -> tuple[int, int, int, int]:
    """Sizes of the (a and b, a only, b only, neither) cells, jittered +-20%."""
    sizes = [max(4, round(share * n_docs * rng.uniform(0.8, 1.2))) for share in PAIR_SHARES]
    return sizes[0], sizes[1], sizes[2], n_docs - sum(sizes)


def plant_cells(rng: random.Random, pair: tuple[int, int, int, int], band: str, shape: str) -> dict[str, int]:
    """Eight presence cells of one probe: how many docs of each (a, b) cell carry x.

    Every cell keeps at least one document with x and one without, so
    mu_a, mu_b and the observed ratio are all strictly inside (0, 1).
    """
    base = BANDS[band]
    with_x = []
    for size, factor in zip(pair, SHAPES[shape]):
        rate = min(0.95, base * factor * rng.uniform(0.85, 1.15))
        with_x.append(min(size - 1, max(1, round(rate * size))))
    n11, n10, n01, n00 = pair
    k11, k10, k01, k00 = with_x
    return {
        "n111": k11, "n110": n11 - k11, "n101": k10, "n100": n10 - k10,
        "n011": k01, "n010": n01 - k01, "n001": k00, "n000": n00 - k00,
    }


def _probe_plan() -> list[tuple[str, str]]:
    """15 (band, shape) probes plus the probe on every page: 16 in all."""
    plan = [(band, shape) for band in BANDS for shape in SHAPES]
    plan.append((EVERY_PAGE, EVERY_PAGE))
    return plan


def make_corpus(seed: int, n_docs: int) -> tuple[dict, list[str]]:
    """(truth, document texts) for one seeded corpus with planted probes."""
    rng = random.Random(f"corpus:{seed}:{n_docs}")
    taken: set[str] = set()
    a, b = _distinct_words(rng, 2, 6, 9, taken)
    plan = _probe_plan()
    probes = _distinct_words(rng, len(plan), 5, 10, taken)
    vocab = _distinct_words(rng, VOCAB_SIZE, 2, 9, taken)
    cum, total = [], 0.0
    for rank in range(1, VOCAB_SIZE + 1):
        total += rank ** -ZIPF_S
        cum.append(total)

    pair = _pair_cells(rng, n_docs)
    cell_of_doc = [0] * pair[0] + [1] * pair[1] + [2] * pair[2] + [3] * pair[3]
    rng.shuffle(cell_of_doc)
    docs_in_cell: list[list[int]] = [[], [], [], []]
    for doc, cell in enumerate(cell_of_doc):
        docs_in_cell[cell].append(doc)

    planted: list[list[str]] = [[] for _ in range(n_docs)]
    for doc, cell in enumerate(cell_of_doc):
        if cell in (0, 1):
            planted[doc].append(a)
        if cell in (0, 2):
            planted[doc].append(b)

    truth_probes = []
    for word, (band, shape) in zip(probes, plan):
        if band == EVERY_PAGE:
            cells = {"n111": pair[0], "n110": 0, "n101": pair[1], "n100": 0,
                     "n011": pair[2], "n010": 0, "n001": pair[3], "n000": 0}
        else:
            cells = plant_cells(rng, pair, band, shape)
        for cell, key in enumerate(("n111", "n101", "n011", "n001")):
            for doc in rng.sample(docs_in_cell[cell], cells[key]):
                planted[doc].append(word)
        truth_probes.append({"x": word, "band": band, "shape": shape, "cells": cells})

    texts, n_tokens = [], 0
    for words in planted:
        tokens = rng.choices(vocab, cum_weights=cum, k=rng.randint(*DOC_TOKENS))
        for word in words:
            for _ in range(rng.randint(1, 2)):
                variant = rng.choice((word, word, word.capitalize(), word.upper()))
                tokens.insert(rng.randrange(len(tokens) + 1), variant)
        n_tokens += len(tokens)
        texts.append(_join(rng, tokens))
    truth = {
        "a": a, "b": b, "n_docs": n_docs, "tokens": n_tokens,
        "bytes": sum(len(t.encode("utf-8")) for t in texts), "probes": truth_probes,
    }
    return truth, texts


def _join(rng: random.Random, tokens: list[str]) -> str:
    """Tokens joined by separators the tokenizer must skip: spaces,
    punctuation, line breaks and free-standing numbers."""
    parts = []
    for token in tokens:
        parts.append(token)
        roll = rng.random()
        if roll < 0.08:
            parts.append(", ")
        elif roll < 0.12:
            parts.append(".\n")
        elif roll < 0.14:
            parts.append(f" {rng.randint(0, 999)} ")
        else:
            parts.append(" ")
    return "".join(parts)


def make_tables(rng: random.Random, count: int) -> list[dict]:
    """Count tables shaped like web page counts, spread over all probe shapes."""
    tables = []
    shapes = [shape for shape in SHAPES for _ in range(2)]
    for i in range(count):
        n = round(10 ** rng.uniform(3.0, 8.5))
        pair = _pair_cells(rng, n)
        band = ("common", "mid", "rare")[i % 3]
        tables.append(oracle.table_from_cells(plant_cells(rng, pair, band, shapes[i % len(shapes)])))
    return tables


def fit_triple(rng: random.Random, strategy: str) -> dict:
    """(mu_a, mu_b, target) whose target lies in the given strategy's region."""
    while True:
        mu_a, mu_b = rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)
        if abs(mu_a - mu_b) >= 0.01:
            break
    lo, hi = min(mu_a, mu_b), max(mu_a, mu_b)
    u = rng.uniform(0.05, 0.95)
    target = {
        "convex_no_interference": lo + (hi - lo) * u,
        "underextension_branch": lo * u,
        "overextension_branch": hi + (1.0 - hi) * u,
    }[strategy]
    return {"mu_a": mu_a, "mu_b": mu_b, "target": target, "strategy": strategy}


def pinned_params(rng: random.Random) -> dict:
    """Measurements and pinned (p_a, p_b, c, c'), plus a target strictly
    inside their context interval as the benchmark's own formula gives it."""
    p = {
        "mu_a": rng.uniform(0.02, 0.98), "mu_b": rng.uniform(0.02, 0.98),
        "p_a": rng.uniform(0.1, 1.0), "p_b": rng.uniform(0.1, 1.0),
        "c": rng.uniform(0.2, 1.0), "c_prime": rng.uniform(0.2, 1.0),
    }
    lo, hi = map(oracle.clamp01, oracle.context_endpoints(**p))
    p["target"] = lo + (hi - lo) * rng.uniform(0.05, 0.95)
    return p


def make_batch(seed: int) -> list[dict]:
    """Items of analyze-batch: each a count table, one fit triple per
    strategy, one pinned fit and one set of pinned context parameters."""
    rng = random.Random(f"batch:{seed}")
    tables = make_tables(rng, BATCH_ITEMS)
    return [{
        "table": table,
        "fits": [fit_triple(rng, s) for s in FIT_STRATEGIES],
        "pinned_fit": pinned_params(rng),
        "context_interval": pinned_params(rng),
    } for table in tables]


def _atomic_dir(final: Path, build) -> Path:
    """Create ``final`` by running build(tmp_dir) and renaming, once per seed."""
    if final.is_dir():
        return final
    tmp = final.with_name(final.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    build(tmp)
    try:
        tmp.rename(final)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
        if not final.is_dir():
            raise
    return final


def seed_dir(seed: int) -> Path:
    return CACHE_ROOT / f"v{GEN_VERSION}" / f"seed{seed}"


def sweep_corpus(seed: int) -> Path:
    """Directory holding corpus.jsonl and truth.json for corpus-sweep."""
    def build(tmp: Path) -> None:
        truth, texts = make_corpus(seed, SWEEP_DOCS)
        with open(tmp / "corpus.jsonl", "w", encoding="utf-8") as handle:
            for i, text in enumerate(texts):
                handle.write(json.dumps({"id": f"d{i:05d}", "text": text}) + "\n")
        (tmp / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    return _atomic_dir(seed_dir(seed) / "sweep", build)


def dir_corpus(seed: int) -> Path:
    """Directory holding docs/ (one text file per document) and truth.json."""
    def build(tmp: Path) -> None:
        truth, texts = make_corpus(seed, DIR_DOCS)
        (tmp / "docs").mkdir()
        for i, text in enumerate(texts):
            (tmp / "docs" / f"d{i:04d}.txt").write_text(text, encoding="utf-8")
        (tmp / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    return _atomic_dir(seed_dir(seed) / "dir", build)


def batch_inputs(seed: int) -> Path:
    def build(tmp: Path) -> None:
        (tmp / "batch.json").write_text(json.dumps(make_batch(seed)), encoding="utf-8")
    return _atomic_dir(seed_dir(seed) / "batch", build)


def cli_mix(seed: int, bundled_tables: dict[str, dict]) -> Path:
    """Directory holding tables/ and mix.json, the argv lists of cli-cold.

    One sweep of the mix is 16 calls in a fixed composition; the seed picks
    their parameters and order.  Table arguments are written as paths
    relative to this directory, prefixed with TABLE_PREFIX.
    """
    def build(tmp: Path) -> None:
        rng = random.Random(f"cli:{seed}")
        (tmp / "tables").mkdir()
        names = sorted(bundled_tables)
        written = []

        def table_arg(kind: str) -> str:
            if kind == "bundled":
                name = rng.choice(names)
                data = bundled_tables[name]
            else:
                name = f"random{len(written)}"
                data = make_tables(rng, 1)[0]
            path = f"tables/{name}.json"
            (tmp / path).write_text(json.dumps(data), encoding="utf-8")
            written.append(path)
            return TABLE_PREFIX + path

        def pinned_args(p: dict) -> list[str]:
            return ["--mu-a", repr(p["mu_a"]), "--mu-b", repr(p["mu_b"]),
                    "--p-a", repr(p["p_a"]), "--p-b", repr(p["p_b"]),
                    "--c", repr(p["c"]), "--c-prime", repr(p["c_prime"])]

        def fit_args(t: dict) -> list[str]:
            return ["--mu-a", repr(t["mu_a"]), "--mu-b", repr(t["mu_b"]), "--target", repr(t["target"])]

        mix = [["--json", "fit", *fit_args(fit_triple(rng, s))] for s in FIT_STRATEGIES]
        mix.append(["fit", *fit_args(fit_triple(rng, rng.choice(FIT_STRATEGIES)))])
        for _ in range(2):
            p = pinned_params(rng)
            mix.append(["--json", "fit", *pinned_args(p), "--target", repr(p["target"])])
        for kind, json_flag in (("bundled", True), ("bundled", True), ("bundled", False),
                                ("random", True), ("random", False)):
            mix.append((["--json"] if json_flag else []) + ["analyze", table_arg(kind)])
        mix.append(["--json", "interval", "--table", table_arg("random")])
        mix.append(["interval", "--table", table_arg("bundled")])
        for _ in range(2):
            mix.append(["--json", "interval", *pinned_args(pinned_params(rng))])
        mix.append(["table1"])
        rng.shuffle(mix)
        (tmp / "mix.json").write_text(json.dumps(mix), encoding="utf-8")
    return _atomic_dir(seed_dir(seed) / "cli", build)


def load_mix(mix_dir: Path) -> list[list[str]]:
    """The cli-cold argv lists with table arguments resolved against mix_dir."""
    mix = json.loads((mix_dir / "mix.json").read_text(encoding="utf-8"))
    return [[str(mix_dir / arg[len(TABLE_PREFIX):]) if arg.startswith(TABLE_PREFIX) else arg
             for arg in argv] for argv in mix]
