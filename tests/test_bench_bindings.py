"""Every function binding the benchmark's tracer wraps still resolves.

``bench/spans.py`` times qocc from outside the program: ``Tracer.install``
replaces each ``(module, attribute)`` of ``SPANNED`` and ``COUNTED`` with a
wrapper, and raises AttributeError if one is missing.  Renaming a function, or
dropping an import from a module listed there, breaks the traced benchmark run
without failing any other test.  That is why ``qocc.report`` imports
``fits_interference_only`` without calling it: the tracer wraps that binding.
"""
import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parents[1] / "bench"))
import spans  # noqa: E402

BINDINGS = [
    binding
    for table in (spans.SPANNED, spans.COUNTED)
    for bindings in table.values()
    for binding in bindings
]


@pytest.mark.parametrize("module, attr", BINDINGS, ids=[f"{m}.{a}" for m, a in BINDINGS])
def test_binding_names_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
