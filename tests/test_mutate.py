"""tools/mutate.py names the mutants that no test fails, and writes nothing to the checkout it tests."""
import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[1] / "tools" / "mutate.py"
sys.path.insert(0, str(TOOL.parent))
from mutate import EQUIVALENTS, Mutator, read_equivalents  # noqa: E402

MODULE = '''def checked(x):
    if x is None:
        raise ValueError("x is None")
    return x
'''
# kills "is -> is not", which raises on 1, but not the dropped raise
TESTS = '''from pkg.m import checked


def test_checked():
    assert checked(1) == 1
'''


def checkout(root: Path, tests: str) -> dict[Path, bytes]:
    """A checkout with src/pkg/m.py and tests/test_m.py, as a map of its files' bytes."""
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "__init__.py").write_text("", encoding="utf-8")
    (root / "src" / "pkg" / "m.py").write_text(MODULE, encoding="utf-8")
    (root / "tests").mkdir()
    (root / "tests" / "test_m.py").write_text(tests, encoding="utf-8")
    return files(root)


def files(root: Path) -> dict[Path, bytes]:
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


def mutate(root: Path, *options: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), "src/pkg/m.py", "--root", str(root), *options],
        capture_output=True, text=True, timeout=120,
    )


def test_prints_each_survivor_and_leaves_the_checkout_alone(tmp_path):
    before = checkout(tmp_path, TESTS)
    done = mutate(tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:-1] == [
        "src/pkg/m.py:3 drop raise | checked | raise ValueError('x is None') | 0",
        "# src/pkg/m.py mutants=2 survived=1",
    ]
    assert re.fullmatch(r"# total mutants=2 killed=1 survived=1 seconds=\d+", lines[-1])
    assert files(tmp_path) == before


def test_stops_when_the_unmutated_module_fails_its_tests(tmp_path):
    checkout(tmp_path, TESTS.replace("== 1", "== 2"))
    done = mutate(tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "mutate: tests fail on unmutated src/pkg/m.py; no mutant run\n"


NESTED = """LIMIT = 2


class Box:
    size = 0

    def fits(self, x):
        def inner(y):
            return 0 < y < LIMIT and y != 0
        if x is None:
            raise ValueError("no x")
        return inner(x) or x == 0 or x == 0
"""


def sites(source):
    mutator = Mutator()
    mutator.visit(ast.parse(source))
    return mutator.sites


def test_keys_name_function_node_mutation_and_occurrence():
    assert [(site.line, *site.key) for site in sites(NESTED)] == [
        (1, "<module>", "2", "2 -> 3", 0),
        (5, "Box", "0", "0 -> 1", 0),
        (9, "Box.fits.<locals>.inner", "0 < y < LIMIT and y != 0", "and -> or", 0),
        (9, "Box.fits.<locals>.inner", "0", "0 -> 1", 0),
        (9, "Box.fits.<locals>.inner", "0 < y < LIMIT", "< -> <=", 0),
        (9, "Box.fits.<locals>.inner", "0 < y < LIMIT", "< -> <=", 1),
        (9, "Box.fits.<locals>.inner", "0", "0 -> 1", 1),
        (9, "Box.fits.<locals>.inner", "y != 0", "!= -> ==", 0),
        (10, "Box.fits", "x is None", "is -> is not", 0),
        (11, "Box.fits", "raise ValueError('no x')", "drop raise", 0),
        (12, "Box.fits", "inner(x) or x == 0 or x == 0", "or -> and", 0),
        (12, "Box.fits", "0", "0 -> 1", 0),
        (12, "Box.fits", "x == 0", "== -> !=", 0),
        (12, "Box.fits", "0", "0 -> 1", 1),
        (12, "Box.fits", "x == 0", "== -> !=", 1),
    ]


def test_a_blank_line_above_a_function_moves_lines_and_keeps_keys():
    before = sites(NESTED)
    after = sites(NESTED.replace("    def fits", "\n    def fits"))
    assert [site.key for site in after] == [site.key for site in before]
    assert [site.line for site in after] == [line + (line >= 7) for line, *_ in before]


SURVIVOR = "src/pkg/m.py drop raise | checked | raise ValueError('x is None') | 0"
KILLED = "src/pkg/m.py is -> is not | checked | x is None | 0"
# an entry of a module that the check does not run, which it leaves alone
ELSEWHERE = "src/pkg/other.py drop raise | f | raise KeyError | 0\n    not checked here\n"


def equivalents(root: Path, text: str) -> None:
    (root / "tools").mkdir()
    (root / "tools" / "mutants_equivalent.txt").write_text(text, encoding="utf-8")


def test_check_passes_when_the_survivors_are_the_listed_equivalents(tmp_path):
    checkout(tmp_path, TESTS)
    equivalents(tmp_path, f"# known\n{SURVIVOR}\n    the test never passes None\n\n{ELSEWHERE}")
    done = mutate(tmp_path, "--check")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "# check unlisted=0 stale=0"


def test_check_fails_on_a_survivor_that_is_not_listed(tmp_path):
    checkout(tmp_path, TESTS)
    equivalents(tmp_path, ELSEWHERE)
    done = mutate(tmp_path, "--check")
    assert done.returncode == 1
    assert done.stderr == (
        "mutate: survivor not listed in tools/mutants_equivalent.txt: "
        "src/pkg/m.py:3 drop raise | checked | raise ValueError('x is None') | 0\n"
    )
    assert done.stdout.splitlines()[-1] == "# check unlisted=1 stale=0"


def test_check_fails_on_a_listed_key_that_is_not_a_survivor(tmp_path):
    checkout(tmp_path, TESTS)
    gone = "src/pkg/m.py < -> <= | checked | x < 0 | 0"
    equivalents(tmp_path, f"{SURVIVOR}\n    never None\n{KILLED}\n    killed\n{gone}\n    no such site\n")
    done = mutate(tmp_path, "--check")
    assert done.returncode == 1
    assert done.stderr == "".join(
        f"mutate: listed in tools/mutants_equivalent.txt but not a survivor: {key}\n" for key in (KILLED, gone)
    )
    assert done.stdout.splitlines()[-1] == "# check unlisted=0 stale=2"


@pytest.mark.parametrize("text, message", [
    (f"{SURVIVOR}\n", ": the last key has no reason"),
    (f"{SURVIVOR}\n{KILLED}\n    why\n", ":2: the key above has no reason"),
    ("    why\n", ":1: a reason with no key above it"),
    (f"{SURVIVOR}\n    why\n{SURVIVOR}\n    why\n", f":3: {SURVIVOR!r} is listed twice"),
], ids=["last-key-alone", "key-alone", "reason-alone", "twice"])
def test_a_malformed_equivalents_file_is_refused(tmp_path, text, message):
    path = tmp_path / "equivalents.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path) + message)}$"):
        read_equivalents(path)


def test_an_absent_equivalents_file_lists_nothing(tmp_path):
    assert read_equivalents(tmp_path / "equivalents.txt") == {}


def test_every_committed_equivalent_names_a_site_the_mutator_still_finds():
    """A listed site that an edit removed fails here, without the full --check sweep."""
    root = TOOL.parents[1]
    keys = read_equivalents(root / EQUIVALENTS)
    found = {
        f"{module} {site.label}"
        for module in {key.split(" ", 1)[0] for key in keys}
        for site in sites((root / module).read_text(encoding="utf-8"))
    }
    assert sorted(keys.keys() - found) == []
