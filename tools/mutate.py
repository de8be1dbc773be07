"""Mutation sweep: which one-token changes to a module does no test notice?

Usage: python tools/mutate.py MODULE [MODULE ...] [--root DIR] [--check]

MODULE is a source file relative to ROOT, the checkout to test (by default the
one that holds this tool), for example ``src/qocc/corpus.py``.  The tool makes
every mutant of these kinds, one change per mutant:

  * a comparison flipped: < and <=, > and >=, == and !=, is and is not,
    in and not in;
  * a boolean operator swapped: and and or;
  * a raise statement dropped (replaced by pass);
  * a numeric constant nudged: an int by +1, the float 0.0 to 1e-9, any other
    float by a relative 1e-9.

Each mutant runs in a temporary copy of ROOT, never in ROOT itself, with
PYTHONDONTWRITEBYTECODE=1: an ``==`` and its ``!=`` have the same size, so a
mutant written in the same second as the original could otherwise be shadowed
by the original's cached bytecode.  The tests run are the test modules that
import the mutated module, directly or through other modules' imports, with
``pytest -x --hypothesis-seed=0`` and the known acceptance failures
deselected, the mutated module's own test file first; WORKERS (two) mutants
run at a time, each in its own copy.  A mutant is killed when pytest fails or
runs past its time limit, five times the unmutated run plus 30 s.  Before
its mutants, each module runs once rewritten by ``ast.unparse`` but
unchanged; if that run fails, the tool stops with exit code 2.

Output: one line per surviving mutant, then one ``#`` summary line per module
and a total.  A survivor's line is

    <module>:<line> <mutation> | <function> | <node> | <occurrence>

where the part after ``<line>`` keys the mutant independently of line numbers:
<function> is the qualified name of the enclosing function (``<module>`` at
module level), <node> is ``ast.unparse`` of the node before mutation, and
<occurrence> counts the earlier sites of the same node and mutation in that
function, from 0.  An edit elsewhere in the module moves <line> and leaves
every key.

With --check, the survivors are compared with ROOT's
tools/mutants_equivalent.txt, the mutants known to be equivalent: each
entry is a key line, ``<module> <mutation> | <function> | <node> |
<occurrence>`` (a survivor line without its ``:<line>``), then one indented
line that says why no test can tell that mutant from the module.  Entries of
modules not named on the command line are left alone.  The tool exits 1,
naming each on stderr, when a survivor is not listed or a listed key is not
a survivor (its site is gone, or a test now kills it); a last ``#`` line
counts both.  Standard library only.
"""
from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

# the two acceptance criteria that fail on the bundled dataset's own
# inconsistencies (README, "Known dataset discrepancies")
KNOWN_FAILURES = (
    "tests/test_acceptance.py::test_criterion_1_recorded_interval_endpoints",
    "tests/test_acceptance.py::test_criterion_3b_context_only_split",
)
# directories whose .py files tests import as top-level modules
FLAT_DIRS = ("tests", "tools", "bench")
# parallel pytest runs; each holds one copy of the checkout and one interpreter
WORKERS = 2
# the equivalent mutants that --check accepts, relative to ROOT
EQUIVALENTS = Path("tools", "mutants_equivalent.txt")
IGNORED = (".git", "__pycache__", "*.pyc", ".hypothesis", ".pytest_cache", ".bench_cache")
FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
}


def nudge(value: int | float) -> int | float:
    if isinstance(value, int):
        return value + 1
    return 1e-9 if value == 0.0 else value * (1.0 + 1e-9)


class Site(NamedTuple):
    """One mutation site: its line, and the key that names it without the line."""

    line: int
    function: str
    node: str
    mutation: str
    occurrence: int

    @property
    def key(self) -> tuple[str, str, str, int]:
        return self[1:]

    @property
    def label(self) -> str:
        """The key as survivor lines and the equivalents file write it."""
        return f"{self.mutation} | {self.function} | {self.node} | {self.occurrence}"

    def __str__(self) -> str:
        return f"{self.line} {self.label}"


class Mutator(ast.NodeTransformer):
    """Numbers the mutation sites in visiting order and applies the one at ``target``.

    Sites before the target are visited the same way in every pass, so an index
    from a pass with target -1 (list only) names the same site in a later pass.
    """

    def __init__(self, target: int = -1) -> None:
        self.target = target
        self.sites: list[Site] = []
        # the qualified name of the innermost def or class, and what its members' names start with
        self.function, self.prefix = "<module>", ""
        self.seen: dict[tuple[str, str, str], int] = {}

    def _hit(self, node: ast.AST, mutation: str) -> bool:
        where = (self.function, ast.unparse(node), mutation)
        occurrence = self.seen[where] = self.seen.get(where, -1) + 1
        self.sites.append(Site(node.lineno, *where, occurrence))
        return len(self.sites) - 1 == self.target

    def _scoped(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef, inner: str) -> ast.AST:
        outer = self.function, self.prefix
        self.function = self.prefix + node.name
        self.prefix = self.function + inner
        try:
            return self.generic_visit(node)
        finally:
            self.function, self.prefix = outer

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> ast.AST:
        return self._scoped(node, ".<locals>.")

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> ast.AST:
        return self._scoped(node, ".")

    def visit_Compare(self, node: ast.Compare) -> ast.AST:
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            flipped = FLIPS.get(type(op))
            if flipped and self._hit(node, f"{SYMBOLS[type(op)]} -> {SYMBOLS[flipped]}"):
                node.ops[i] = flipped()
        return node

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.AST:
        swapped = ast.Or if isinstance(node.op, ast.And) else ast.And
        names = {ast.And: "and", ast.Or: "or"}
        if self._hit(node, f"{names[type(node.op)]} -> {names[swapped]}"):
            node.op = swapped()
        return self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> ast.AST:
        if self._hit(node, "drop raise"):
            return ast.copy_location(ast.Pass(), node)
        return self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> ast.AST:
        if type(node.value) not in (int, float):
            return node
        if self._hit(node, f"{node.value!r} -> {nudge(node.value)!r}"):
            node.value = nudge(node.value)
        return node


def mutant_source(source: str, target: int) -> str:
    """The module's source rewritten by ast.unparse with site ``target`` mutated (-1: none)."""
    return ast.unparse(Mutator(target).visit(ast.parse(source)))


def module_names(root: Path) -> dict[str, Path]:
    """Import name -> file, for the packages under src and the flat directories' modules."""
    names = {}
    src = root / "src"
    for path in src.rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        names[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    for directory in FLAT_DIRS:
        for path in (root / directory).glob("*.py"):
            names.setdefault(path.stem, path)
    return names


def imports(path: Path, name: str, known: dict[str, Path]) -> set[str]:
    """The known modules that the module ``name`` at ``path`` imports by name."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
                base = f"{anchor}.{base}" if base else anchor
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found & known.keys()


def tests_reaching(root: Path, module: Path) -> list[Path]:
    """The test files that import ``module``, its own test file first, then the smaller ones."""
    known = module_names(root)
    graph = {name: imports(path, name, known) for name, path in known.items()}
    target = next(name for name, path in known.items() if path == module)

    def reaches(name: str) -> bool:
        seen, stack = set(), [name]
        while stack:
            current = stack.pop()
            if current == target:
                return True
            if current not in seen:
                seen.add(current)
                stack.extend(graph[current])
        return False

    files = [path for path in (root / "tests").glob("test_*.py") if reaches(path.stem)]
    own = f"test_{module.stem}"
    return sorted(files, key=lambda path: (path.stem != own, path.stat().st_size, path.name))


def run_tests(copy: Path, tests: list[Path], timeout: float | None) -> tuple[bool, float]:
    """(passed, seconds) of one pytest run in ``copy``; a run past ``timeout`` fails."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(copy / "src")}
    deselect = [arg for node_id in KNOWN_FAILURES for arg in ("--deselect", node_id)]
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *deselect, *(str(path) for path in tests),
    ]
    start = time.perf_counter()
    with subprocess.Popen(
        command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    ) as process:
        try:
            passed = process.wait(timeout) == 0
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            passed = False
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    return passed, time.perf_counter() - start


class Sweep:
    """Runs test jobs in WORKERS private copies of ``root``, one job per copy at a time."""

    def __init__(self, root: Path, scratch: Path) -> None:
        self.root = root
        self.copies: queue.Queue[Path] = queue.Queue()
        for i in range(WORKERS):
            copy = scratch / f"copy{i}"
            shutil.copytree(root, copy, ignore=shutil.ignore_patterns(*IGNORED), symlinks=True)
            self.copies.put(copy)
        self.pool = ThreadPoolExecutor(WORKERS)

    def _run(self, relative: Path, source: str, tests: list[Path], timeout: float | None):
        copy = self.copies.get()
        target = copy / relative
        # restore from the copy, never from ROOT, which may change while the sweep runs
        original = target.read_text(encoding="utf-8")
        try:
            target.write_text(source, encoding="utf-8")
            return run_tests(copy, [path.relative_to(self.root) for path in tests], timeout)
        finally:
            target.write_text(original, encoding="utf-8")
            self.copies.put(copy)

    def submit(self, relative: Path, source: str, tests: list[Path], timeout: float | None = None):
        """A future of (passed, seconds) for the tests run with ``relative`` replaced by ``source``."""
        return self.pool.submit(self._run, relative, source, tests, timeout)


def read_equivalents(path: Path) -> dict[str, str]:
    """Key -> reason of each entry in the equivalents file, or {} when there is none.

    Blank lines and lines that start with ``#`` are skipped.  A key listed
    twice, a key with no reason and a reason with no key raise ValueError.
    """
    if not path.exists():
        return {}
    entries: dict[str, str] = {}
    key = None
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        if key is None:
            if line[0].isspace():
                raise ValueError(f"{path}:{number}: a reason with no key above it")
            if line in entries:
                raise ValueError(f"{path}:{number}: {line!r} is listed twice")
            key = line
        elif line[0].isspace():
            entries[key], key = line.strip(), None
        else:
            raise ValueError(f"{path}:{number}: the key above has no reason")
    if key is not None:
        raise ValueError(f"{path}: the last key has no reason")
    return entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", metavar="MODULE", help="source file relative to ROOT")
    default_root = str(Path(__file__).resolve().parents[1])
    parser.add_argument("--root", default=default_root, help="checkout to test (default: this one)")
    parser.add_argument("--check", action="store_true", help=f"exit 1 unless the survivors are {EQUIVALENTS}'s")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    try:
        equivalents = read_equivalents(root / EQUIVALENTS) if args.check else {}
    except ValueError as exc:
        print(f"mutate: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    modules = [Path(name) for name in args.modules]
    sources = [(root / module).read_text(encoding="utf-8") for module in modules]
    tests = [tests_reaching(root, root / module) for module in modules]
    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        sweep = Sweep(root, Path(scratch))
        with sweep.pool:
            controls = [
                sweep.submit(module, mutant_source(source, -1), found)
                for module, source, found in zip(modules, sources, tests)
            ]
            runs = []
            for module, source, found, control in zip(modules, sources, tests, controls):
                passed, seconds = control.result()
                if not passed:
                    print(f"mutate: tests fail on unmutated {module}; no mutant run", file=sys.stderr)
                    sweep.pool.shutdown(cancel_futures=True)
                    return 2
                mutator = Mutator()
                mutator.visit(ast.parse(source))
                jobs = [
                    sweep.submit(module, mutant_source(source, i), found, 5 * seconds + 30)
                    for i in range(len(mutator.sites))
                ]
                runs.append((module, mutator.sites, jobs))
            mutants = 0
            # key -> line, of each survivor of every module
            survivors: dict[str, str] = {}
            for module, sites, jobs in runs:
                survived = [job.result()[0] for job in jobs]
                for site, alive in zip(sites, survived):
                    if alive:
                        print(f"{module}:{site}", flush=True)
                        survivors[f"{module} {site.label}"] = f"{module}:{site}"
                print(f"# {module} mutants={len(sites)} survived={sum(survived)}", flush=True)
                mutants += len(sites)
    seconds = time.perf_counter() - start
    killed = mutants - len(survivors)
    print(f"# total mutants={mutants} killed={killed} survived={len(survivors)} seconds={seconds:.0f}")
    if not args.check:
        return 0
    checked = {str(module) for module in modules}
    unlisted = [line for key, line in survivors.items() if key not in equivalents]
    stale = [key for key in equivalents if key.split(" ", 1)[0] in checked and key not in survivors]
    for line in unlisted:
        print(f"mutate: survivor not listed in {EQUIVALENTS}: {line}", file=sys.stderr)
    for key in stale:
        print(f"mutate: listed in {EQUIVALENTS} but not a survivor: {key}", file=sys.stderr)
    print(f"# check unlisted={len(unlisted)} stale={len(stale)}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
