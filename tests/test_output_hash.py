"""tools/output_hash.py prints the same lines on every run, and at ``--n 500`` the recorded ones.

``tests/data/output_hash.txt`` holds the library's values the way
``tests/test_golden.py`` holds the CLI's bytes.  After an announced change to
a library value, remake it with
``python tools/output_hash.py src --n 500 > tests/data/output_hash.txt``
and name each changed line.
"""
import re
import subprocess
import sys
from pathlib import Path

import qocc

TOOL = Path(__file__).parents[1] / "tools" / "output_hash.py"
RECORDED = Path(__file__).parent / "data" / "output_hash.txt"
sys.path.insert(0, str(TOOL.parent))
import output_hash  # noqa: E402


def hashes(n: int) -> str:
    src = str(Path(qocc.__file__).parents[1])
    return subprocess.run(
        [sys.executable, str(TOOL), src, "--n", str(n)], capture_output=True, text=True, check=True
    ).stdout


def test_two_runs_print_the_same_line_per_function():
    runs = [hashes(40) for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert [line.split()[0] for line in lines] == list(output_hash.cases(qocc, None))
    for line in lines:
        assert re.fullmatch(r"\S+ calls=40 errors=\d+ sha256=[0-9a-f]{64}", line)


def test_library_values_are_the_recorded_ones():
    assert hashes(500) == RECORDED.read_text(encoding="utf-8")
