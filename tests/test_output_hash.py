"""tools/output_hash.py prints the same line per function on every run of the same tree."""
import re
import subprocess
import sys
from pathlib import Path

import qocc

TOOL = Path(__file__).parents[1] / "tools" / "output_hash.py"
sys.path.insert(0, str(TOOL.parent))
import output_hash  # noqa: E402


def test_two_runs_print_the_same_line_per_function():
    src = str(Path(qocc.__file__).parents[1])
    runs = [
        subprocess.run(
            [sys.executable, str(TOOL), src, "--n", "40"], capture_output=True, text=True, check=True
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert [line.split()[0] for line in lines] == list(output_hash.cases(qocc, None))
    for line in lines:
        assert re.fullmatch(r"\S+ calls=40 errors=\d+ sha256=[0-9a-f]{64}", line)
