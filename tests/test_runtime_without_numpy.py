"""The library and CLI run without numpy; only the oracle ``qocc.hilbert`` needs it.

The CLI's cold import also leaves out ``dataclasses`` and the bundled dataset,
no module of the package, test or tool imports a name it does not read, and the functions
every report and fit runs clamp and order without builtin ``min``/``max`` calls.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qocc
from qocc.cli import canonical_json
from qocc.fixtures import EXEMPLAR_NAMES, exemplar_table

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


# Imports qocc.cli, prints whether the module in argv[1] was loaded, then runs
# table1 and prints its exit code and stdout as JSON.
COLD_IMPORT = """
import contextlib, io, json, sys
import qocc.cli
print(sys.argv[1] in sys.modules)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = qocc.cli.main(["table1"])
print(json.dumps([code, out.getvalue()]))
"""


@pytest.mark.parametrize("module", ["dataclasses", "inspect", "qocc.fixtures"])
def test_cli_import_leaves_module_unloaded(module):
    loaded, table1 = run_python("-c", COLD_IMPORT, module).splitlines()
    assert loaded == "False"
    code, out = json.loads(table1)
    assert code == 5
    assert [line.split()[0] for line in out.splitlines()] == ["exemplar", *EXEMPLAR_NAMES]


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


REPO = Path(__file__).resolve().parents[1]
MODULES = sorted(path for path in Path(qocc.__file__).parent.glob("*.py") if path.name != "__init__.py")
SCRIPTS = sorted([*(REPO / "tests").glob("*.py"), *(REPO / "tools").glob("*.py")])


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS,
    ids=lambda path: path.name if path in MODULES else f"{path.parent.name}/{path.name}",
)
def test_module_reads_every_name_it_imports(path):
    """A name imported at module level and never read is kept for something outside the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - read == set()


# Functions each report, fit or context interval runs, where a builtin min or
# max call costs more than the comparisons that clamp or order with it.
PER_CALL = {
    "context_model.py": ("_mu", "_solve_cosine", "fit_params", "fit_params_constrained"),
    "interference.py": ("interference_interval", "classify_extension"),
    "corpus.py": ("CountTable.__init__",),
}


def test_per_call_path_clamps_and_orders_without_min_or_max():
    calling = []
    for module, names in PER_CALL.items():
        tree = ast.parse((Path(qocc.__file__).parent / module).read_text(encoding="utf-8"))
        for name in names:
            scope = tree
            for part in name.split("."):
                scope = next(node for node in scope.body if getattr(node, "name", None) == part)
            called = {node.func.id for node in ast.walk(scope)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
            calling += [f"{module} {name} calls {builtin}" for builtin in sorted(called & {"min", "max"})]
    assert calling == []
