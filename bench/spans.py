"""In-memory spans around calls into qocc's public functions.

Tracing is done from outside the program: ``Tracer.install()`` replaces
public functions in the modules that call them with wrappers that record a
span (name, start, end, parent, run id) and restores the originals on
``uninstall()``.  A counter shim counts calls without a span and books them
on the innermost open span; it is used for the model evaluations inside a
fit, which are too many and too short to time one by one.
"""
from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field

# span name -> (module, attribute) bindings to wrap; a function is wrapped
# in every module that looks it up, because ``from x import f`` copies it
SPANNED = {
    "corpus.load_corpus": [("qocc.cli", "load_corpus")],
    "corpus.count_corpus": [("qocc.cli", "count_corpus")],
    "corpus.marginals": [("qocc.cli", "marginals")],
    "report.build_report": [("qocc.cli", "build_report")],
    "context_model.fit_params": [("qocc.cli", "fit_params"), ("qocc.report", "fit_params")],
    "context_model.fit_params_constrained": [("qocc.cli", "fit_params_constrained")],
    "context_model.context_interval": [("qocc.cli", "context_interval")],
    "interference.interference_interval": [
        ("qocc.cli", "interference_interval"),
        ("qocc.report", "interference_interval"),
        ("qocc.interference", "interference_interval"),
    ],
    "interference.fits_interference_only": [("qocc.report", "fits_interference_only")],
    "interference.classify_extension": [("qocc.report", "classify_extension")],
}
# span name -> what of the result to keep on the span
DETAIL = {
    "context_model.fit_params": lambda result: result.strategy.value,
}
COUNTED = {
    "context_model.model_evals": [("qocc.context_model", "mu_ab_cosines")],
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    counts: dict[str, int] = field(default_factory=dict)
    error: str | None = None
    detail: str | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.open: list[int] = []
        self.run = ""
        self._saved: list[tuple[object, str, object]] = []
        self.wrapped: dict[str, object] = {}

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name``."""
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self.open[-1] if self.open else None, self.run)
        self.spans.append(span)
        self.open.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.end = time.perf_counter()
            span.error = type(exc).__name__
            raise
        finally:
            self.open.pop()
        span.end = time.perf_counter()
        if name in DETAIL:
            span.detail = DETAIL[name](result)
        return result

    def _span_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        spans, open_ = self.spans, self.open

        def wrapper(*args, **kwargs):
            if open_:
                counts = spans[open_[-1]].counts
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for name, bindings in table.items():
                for module_name, attr in bindings:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    self._saved.append((module, attr, original))
                    wrapper = make(name, original)
                    setattr(module, attr, wrapper)
                    self.wrapped.setdefault(name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self.wrapped.clear()

    def write(self, path) -> None:
        """Spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                    "run": s.run, "counts": s.counts, "error": s.error, "detail": s.detail,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out


def count_under(spans: list[Span], name: str, ancestor: str) -> int:
    """How many spans called ``name`` have a span called ``ancestor`` above them."""
    count = 0
    for s in spans:
        if s.name == name:
            parent = s.parent
            while parent is not None and spans[parent].name != ancestor:
                parent = spans[parent].parent
            count += parent is not None
    return count
