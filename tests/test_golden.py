"""Byte contract of the CLI: recorded exit codes, stdout and stderr, replayed.

``tests/data/golden/cases.json`` holds one record per argv; ``{tables}`` in
an argv stands for ``tests/data/golden/tables``.  A change that alters any
output byte fails here.  After an announced output change, regenerate the
records with ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from qocc.cli import canonical_json, main
from qocc.fixtures import EXEMPLAR_NAMES, all_tables

GOLDEN = Path(__file__).parent / "data" / "golden"
TABLES = GOLDEN / "tables"
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


def golden_argvs() -> list[list[str]]:
    argvs = []
    for name in EXEMPLAR_NAMES:
        argvs.append(["--json", "analyze", f"{{tables}}/{name}.json"])
        argvs.append(["--json", "interval", "--table", f"{{tables}}/{name}.json"])
    argvs += [["table1"], ["table1", "--csv"], ["--json", "table1"]]
    for mu_a, mu_b, p_a, p_b, c, c_prime in PINNED:
        argvs.append([
            "--json", "interval", f"--mu-a={mu_a}", f"--mu-b={mu_b}",
            f"--p-a={p_a}", f"--p-b={p_b}", f"--c={c}", f"--c-prime={c_prime}",
        ])
    for name in EDGE_TABLES:
        for json_flag in (["--json"], []):
            argvs.append(json_flag + ["analyze", f"{{tables}}/{name}.json"])
            argvs.append(json_flag + ["interval", "--table", f"{{tables}}/{name}.json"])
    return argvs


def replay(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.format(tables=TABLES) for arg in argv])
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


RECORDS = json.loads(CASES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_cli_output_matches_the_recorded_bytes(record):
    assert replay(record["argv"]) == record


def test_every_golden_argv_has_a_record():
    assert [r["argv"] for r in RECORDS] == golden_argvs()


def write_golden() -> None:
    """Write the tables and record every golden argv's output from the current code."""
    TABLES.mkdir(parents=True, exist_ok=True)
    tables = {name: table.as_dict() for name, table in all_tables().items()} | EDGE_TABLES
    for name, table in tables.items():
        (TABLES / f"{name}.json").write_text(canonical_json(table) + "\n", encoding="utf-8")
    records = [replay(argv) for argv in golden_argvs()]
    CASES.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden()
