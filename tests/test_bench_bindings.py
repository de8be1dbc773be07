"""Every function binding the benchmark's tracer wraps still resolves, and still fires.

``bench/spans.py`` times qocc from outside the program: ``Tracer.install``
replaces each ``(module, attribute)`` of ``SPANNED`` and ``COUNTED`` with a
wrapper, and raises AttributeError if one is missing.  Renaming a function, or
dropping an import from a module listed there, breaks the traced benchmark run
without failing any other test.  ``qocc.report`` defines
``fits_interference_only`` beside ``build_report``, which states the same fact
without calling it: the tracer wraps that binding, and its span never fires.
A binding that still resolves but is no longer called loses its span, and the
traced run then writes a NaN median for every per-layer figure it feeds.
"""
import importlib
import sys
from pathlib import Path

import pytest

import qocc.cli

sys.path.insert(0, str(Path(__file__).parents[1] / "bench"))
import spans  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "golden"
# one call through each command path that the benchmark's workloads time
TRACED_ARGVS = [
    ["count", str(GOLDEN / "corpus"), "fruits", "vegetables", "apple"],
    ["count", str(GOLDEN / "corpus.jsonl"), "fruits", "vegetables", "apple"],
    ["analyze", str(GOLDEN / "tables" / "apple.json")],
    ["fit", "--mu-a", "0.166", "--mu-b", "0.236", "--target", "0.271"],
    ["fit", "--mu-a", "0.166", "--mu-b", "0.236", "--target", "0.2", "--p-a", "0.5"],
    ["interval", "--table", str(GOLDEN / "tables" / "apple.json")],
    ["interval", "--mu-a", "0.166", "--mu-b", "0.236", "--p-a", "0.5"],
]
# build_report stopped calling fits_interference_only; its span cannot fire
NEVER_CALLED = {"interference.fits_interference_only"}

BINDINGS = [
    binding
    for table in (spans.SPANNED, spans.COUNTED)
    for bindings in table.values()
    for binding in bindings
]


@pytest.mark.parametrize("module, attr", BINDINGS, ids=[f"{m}.{a}" for m, a in BINDINGS])
def test_binding_names_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_every_span_the_traced_run_reads_still_fires():
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in TRACED_ARGVS:
            assert qocc.cli.main(["--quiet", *argv]) == 0, argv
    finally:
        tracer.uninstall()
    assert {span.name for span in tracer.spans} == set(spans.SPANNED) - NEVER_CALLED
    for name in ("interference.interference_interval", "interference.classify_extension"):
        assert spans.count_under(tracer.spans, name, "report.build_report") >= 1, name
