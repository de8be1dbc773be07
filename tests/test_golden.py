"""Byte contract of the CLI: recorded exit codes, stdout and stderr, replayed.

``tests/data/golden/cases.json`` holds one record per argv.  Argvs are
replayed from inside ``tests/data/golden``, so their paths are relative to it
and a message that quotes a path quotes the same bytes on every checkout.  A
change that alters any output byte fails here.  This replay is the one
referee of the argvs it records (``tests/test_cli.py`` does not re-run them),
so the table and corpus files they read are checked too, against the text
``golden_inputs()`` renders from the code.  After an announced output
change, regenerate the records with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""
import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from qocc.cli import canonical_json, main
from qocc.fixtures import EXEMPLAR_NAMES, all_tables

GOLDEN = Path(__file__).parent / "data" / "golden"
TABLES = GOLDEN / "tables"
# an empty directory is no part of a git checkout, so replay makes it
EMPTY_CORPUS = GOLDEN / "empty"
CASES = GOLDEN / "cases.json"

# tables the CLI cannot fully analyze: x on every page (the interval is
# singular), no shared page (n_ab = 0), x on no a-page (mu_a = 0), x on
# every a-page (mu_a = 1)
EDGE_TABLES = {
    "every_page": {"n_a": 10, "n_b": 10, "n_ab": 10, "n_ax": 10, "n_bx": 10, "n_abx": 10},
    "no_shared_page": {"n_a": 10, "n_b": 8, "n_ab": 0, "n_ax": 3, "n_bx": 2, "n_abx": 0},
    "x_on_no_a_page": {"n_a": 10, "n_b": 8, "n_ab": 4, "n_ax": 0, "n_bx": 2, "n_abx": 1},
    "x_on_every_a_page": {"n_a": 10, "n_b": 8, "n_ab": 4, "n_ax": 10, "n_bx": 2, "n_abx": 1},
}

PINNED = [
    # the pinned settings recorded with the dataset
    ("0.0522", "0.213", "0.5", "0.5", "0.5", "0.5"),
    ("0.0349", "0.0383", "0.2", "0.8", "0.3", "0.8"),
    ("0.0901", "0.11", "0.5", "0.5", "0.6", "0.6"),
    ("0.0142", "0.0169", "0.5", "0.5", "0.5", "0.5"),
    # ordinary settings
    ("0.3", "0.4", "1", "1", "1", "1"),
    ("0.166", "0.236", "0.25", "0.9", "0.7", "0.1"),
    ("0.5", "0.5", "1", "1", "0", "0"),
    ("0", "1", "0.5", "1", "1", "1"),
    ("0.999", "0.001", "1", "0.001", "1", "0.5"),
    # a raw endpoint rounds outside [0, 1] and is clamped
    ("0.327", "0.327", "1.0", "1.0", "1", "1"),
    ("0.047", "0.094", "0.950682056663169", "1.0", "1", "1"),
    ("0.944", "0.472", "0.5", "1.0", "1", "1"),
    # the normalization vanishes at an endpoint (exit 4)
    ("1", "1", "1", "1", "1", "1"),
    ("0", "0", "1", "1", "1", "1"),
    ("1e-12", "1e-12", "0.0293", "0.0293", "1", "1"),
    # outside the domain (exit 6)
    ("0.3", "0.4", "0", "1", "1", "1"),
    ("0.3", "0.4", "1", "1", "2", "1"),
    ("1.5", "0.4", "1", "1", "1", "1"),
    ("nan", "0.4", "1", "1", "1", "1"),
    ("0.3", "0.4", "1", "1", "1", "-0.5"),
]


FITS = [
    # free: the almond row, convex, equal measurements, under- and overextension,
    # targets 0 and 1, a target on a measurement
    ["--mu-a=0.0901", "--mu-b=0.110", "--target=0.255"],
    ["--mu-a=0.3", "--mu-b=0.4", "--target=0.35"],
    ["--mu-a=0.3", "--mu-b=0.3", "--target=0.3"],
    ["--mu-a=0.3", "--mu-b=0.4", "--target=0.1"],
    ["--mu-a=0.3", "--mu-b=0.4", "--target=0.9"],
    ["--mu-a=0.3", "--mu-b=0.4", "--target=0"],
    ["--mu-a=0.3", "--mu-b=0.4", "--target=1"],
    ["--mu-a=0.3", "--mu-b=0.4", "--target=0.4"],
    # pinned: all four, some (the others default to 1), the vanishing corner
    ["--mu-a=0.0522", "--mu-b=0.213", "--target=0.29",
     "--p-a=0.5", "--p-b=0.5", "--c=0.5", "--c-prime=0.5"],
    ["--mu-a=0.3", "--mu-b=0.4", "--target=0.2", "--c=0.5"],
    ["--mu-a=0.3", "--mu-b=0.4", "--target=0.45", "--p-b=0.25", "--c-prime=0"],
    ["--mu-a=0.3", "--mu-b=0.3", "--target=0.3",
     "--p-a=1", "--p-b=1", "--c=1", "--c-prime=1"],
    # an unreachable pinned target (exit 1)
    ["--mu-a=0.0522", "--mu-b=0.213", "--target=0.9",
     "--p-a=0.5", "--p-b=0.5", "--c=0.5", "--c-prime=0.5"],
    # outside the domain (exit 6): a measurement at 1, a target above 1, a pin at 0
    ["--mu-a=1.0", "--mu-b=0.5", "--target=0.5"],
    ["--mu-a=0.3", "--mu-b=0.4", "--target=1.5"],
    ["--mu-a=0.3", "--mu-b=0.4", "--target=0.35", "--p-a=0"],
]

# the small corpus ``count`` reads, as a directory (one file per document)
# and as JSON lines
CORPUS = {
    "d1.txt": "Fruits and vegetables: apple, APPLE pie.",
    "d2.txt": "vegetables parsley yam",
    "d3.txt": "fruits vegetables apple pear",
    "d4.txt": "fruits, pear and caf\u00e9",
    "d5.txt": "",
    "d6.txt": "\u00c4pfel und Gem\u00fcse \u2014 fruits\nvegetables parsley",
}
PROBES = [
    ("fruits", "vegetables", "apple"),
    ("fruits", "vegetables", "parsley"),
    ("Fruits", "VEGETABLES", "absent"),
    ("apple", "pear", "fruits"),
]


def golden_argvs() -> list[list[str]]:
    argvs = []
    for name in EXEMPLAR_NAMES:
        argvs.append(["--json", "analyze", f"tables/{name}.json"])
        argvs.append(["--json", "interval", "--table", f"tables/{name}.json"])
    argvs += [["table1"], ["table1", "--csv"], ["--json", "table1"]]
    for mu_a, mu_b, p_a, p_b, c, c_prime in PINNED:
        argvs.append([
            "--json", "interval", f"--mu-a={mu_a}", f"--mu-b={mu_b}",
            f"--p-a={p_a}", f"--p-b={p_b}", f"--c={c}", f"--c-prime={c_prime}",
        ])
    for name in EDGE_TABLES:
        for json_flag in (["--json"], []):
            argvs.append(json_flag + ["analyze", f"tables/{name}.json"])
            argvs.append(json_flag + ["interval", "--table", f"tables/{name}.json"])
    for name in EXEMPLAR_NAMES:
        argvs.append(["analyze", f"tables/{name}.json"])
    for mu_a, mu_b, p_a, p_b, c, c_prime in PINNED:
        argvs.append([
            "interval", f"--mu-a={mu_a}", f"--mu-b={mu_b}",
            f"--p-a={p_a}", f"--p-b={p_b}", f"--c={c}", f"--c-prime={c_prime}",
        ])
    argvs += [["interval"], ["interval", "--mu-a=0.3"], ["--json", "interval", "--p-a=0.5"]]
    for fit in FITS:
        for json_flag in (["--json"], []):
            argvs.append(json_flag + ["fit", *fit])
    for corpus in ("corpus", "corpus.jsonl"):
        for probe in PROBES:
            argvs.append(["count", corpus, *probe])
    argvs += [
        ["count", "corpus", "two words", "vegetables", "apple"],
        ["count", "empty", "fruits", "vegetables", "apple"],
        ["count", "missing", "fruits", "vegetables", "apple"],
        ["--quiet", "count", "corpus.jsonl", "fruits", "vegetables", "apple"],
        ["--quiet", "--json", "analyze", "tables/apple.json"],
        ["--quiet", "interval", "--table", "tables/olive.json"],
        ["--quiet", "fit", "--mu-a=0.0901", "--mu-b=0.110", "--target=0.255"],
        ["--quiet", "table1"],
    ]
    return argvs


def replay(argv: list[str]) -> dict:
    EMPTY_CORPUS.mkdir(exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)  # contextlib.chdir needs Python 3.11
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


RECORDS = json.loads(CASES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_cli_output_matches_the_recorded_bytes(record):
    assert replay(record["argv"]) == record


def test_every_golden_argv_has_a_record():
    assert [r["argv"] for r in RECORDS] == golden_argvs()


def golden_inputs() -> dict[Path, str]:
    """The text of each table and corpus file that the golden argvs read, by path."""
    tables = {name: table.as_dict() for name, table in all_tables().items()} | EDGE_TABLES
    files = {TABLES / f"{name}.json": canonical_json(table) + "\n" for name, table in tables.items()}
    files |= {GOLDEN / "corpus" / name: text for name, text in CORPUS.items()}
    lines = [json.dumps({"id": name, "text": text}) + "\n" for name, text in CORPUS.items()]
    files[GOLDEN / "corpus.jsonl"] = "".join(lines)
    return files


INPUTS = golden_inputs()
# a file of tables/ or corpus/ that golden_inputs() does not name is a case too, and fails
INPUT_PATHS = sorted(set(INPUTS) | set(GOLDEN.glob("tables/*")) | set(GOLDEN.glob("corpus/*")))


@pytest.mark.parametrize("path", INPUT_PATHS, ids=[path.relative_to(GOLDEN).as_posix() for path in INPUT_PATHS])
def test_committed_input_file_is_the_one_the_code_writes(path):
    assert path.read_bytes().decode("utf-8") == INPUTS.get(path)


def write_golden() -> None:
    """Write the tables and the corpus, and record every golden argv's output from the current code."""
    for path, text in INPUTS.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    records = [replay(argv) for argv in golden_argvs()]
    CASES.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden()
