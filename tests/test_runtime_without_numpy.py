"""The library and CLI run without numpy; only the oracle ``qocc.hilbert`` needs it."""
import json
import os
import subprocess
import sys
from pathlib import Path

import qocc
from qocc.cli import canonical_json
from qocc.fixtures import exemplar_table

# Runs qocc.cli.main on each argv in-process, with numpy importable or not,
# and prints [exit code, stdout] per argv as JSON.
CLI_RUNNER = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from qocc.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def run_python(*args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(qocc.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout


def test_import_leaves_numpy_unloaded():
    out = run_python("-c", "import sys, qocc, qocc.cli; print('numpy' in sys.modules)")
    assert out == "False\n"


def test_cli_output_is_the_same_with_numpy_blocked(tmp_path):
    (tmp_path / "corpus").mkdir()
    for name, text in (("d1", "fruits apple"), ("d2", "vegetables"), ("d3", "fruits vegetables apple")):
        (tmp_path / "corpus" / f"{name}.txt").write_text(text, encoding="utf-8")
    table = tmp_path / "apple.json"
    table.write_text(canonical_json(exemplar_table("apple").as_dict()), encoding="utf-8")
    argvs = [
        ["count", str(tmp_path / "corpus"), "fruits", "vegetables", "apple"],
        ["--json", "analyze", str(table)],
        ["interval", "--table", str(table)],
        ["interval", "--mu-a", "0.0522", "--mu-b", "0.213", "--p-a", "0.5", "--c", "0.5"],
        ["--json", "fit", "--mu-a", "0.3", "--mu-b", "0.4", "--target", "0.35"],
        ["table1"],
    ]
    blocked = json.loads(run_python("-c", CLI_RUNNER, "blocked", json.dumps(argvs)))
    unblocked = json.loads(run_python("-c", CLI_RUNNER, "unblocked", json.dumps(argvs)))
    assert blocked == unblocked
    assert [code for code, _ in blocked] == [0, 0, 0, 0, 0, 5]
    assert all(out for _, out in blocked)


def test_every_exported_name_resolves():
    for name in qocc.__all__:
        assert getattr(qocc, name) is not None, name
