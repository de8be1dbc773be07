"""The operations each workload performs, with their correctness checks.

Every check compares qocc's output with the planted truth or with the
benchmark's own formulas in ``oracle``; none reuses a qocc formula.  A check
that fails, a raised QoccError, a traceback or an unexpected exit code makes
the operation count as failed.  Only calls into qocc are timed; checks run
between them.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
import statistics
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import inputs
import oracle

WORKLOADS = ("corpus-sweep", "count-cold", "cli-cold", "analyze-batch")
TRACEBACK = "Traceback (most recent call last)"


class Recorder:
    """Timings and outcomes of one measured stretch.

    Every sweep repeats the same timed pieces (the corpus load, a probe, a
    study item, a CLI argv), each booked under its own key.  The host's
    speed swings by up to 2x for seconds at a time, and a swing only ever
    adds time, so each key's figure is its fastest time over the stretch
    (best of N, as ``timeit`` reports it).  The end-to-end figures are
    built from those: ``wall`` is the sum over one sweep's keys, and ``p50``
    and ``p90`` are taken over the keys of the verified operations.
    """

    def __init__(self) -> None:
        self.best: dict = {}
        self.verified: set = set()
        self.ops = 0
        self.sweeps: list[float] = []
        self.busy = 0.0
        self._sweep = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: Counter = Counter()

    def timed(self, key, seconds: float) -> None:
        """Book ``seconds`` spent in qocc on the timed piece ``key``."""
        self._sweep += seconds
        if seconds < self.best.get(key, math.inf):
            self.best[key] = seconds

    def fail(self, problems: list[str] | None = None, error: str | None = None) -> None:
        """One failed operation: wrong output (problems) or a raised error."""
        self.failed += 1
        if error:
            self.errors[error] += 1
        for problem in problems or ():
            if len(self.wrong) < 20:
                self.wrong.append(problem)

    def ok(self, key) -> None:
        """Book one verified operation, timed under ``key``."""
        self.ops += 1
        self.verified.add(key)

    def sweep_done(self) -> None:
        """Close one complete sweep."""
        self.sweeps.append(self._sweep)
        self.busy += self._sweep
        self._sweep = 0.0

    def state(self) -> dict:
        """What a worker process hands back to ``merge`` as JSON."""
        return {"best": list(self.best.items()), "verified": list(self.verified), "ops": self.ops,
                "sweeps": self.sweeps, "attempted": self.attempted, "failed": self.failed,
                "wrong": self.wrong, "errors": dict(self.errors)}

    def merge(self, state: dict) -> None:
        """Fold in another stretch of the same workload: a key keeps its
        fastest time over both."""
        for key, seconds in state["best"]:
            if seconds < self.best.get(key, math.inf):
                self.best[key] = seconds
        self.verified.update(state["verified"])
        self.ops += state["ops"]
        self.sweeps += state["sweeps"]
        self.busy += sum(state["sweeps"])
        self.attempted += state["attempted"]
        self.failed += state["failed"]
        self.wrong += state["wrong"][:20 - len(self.wrong)]
        self.errors.update(state["errors"])

    def summary(self) -> dict:
        """Fastest sweep and operation latencies in seconds (see the class
        docstring), with counts and outcomes."""
        lat = [self.best[key] for key in self.verified]
        return {
            "ops": self.ops, "keys": len(lat),
            "p50": statistics.median(lat) if lat else None,
            "p90": statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else None,
            "busy": self.busy, "sweeps": len(self.sweeps),
            "wall": sum(self.best.values()) if self.sweeps else None,
            "attempted": self.attempted, "failed": self.failed,
            "wrong": self.wrong, "errors": dict(self.errors),
        }


def make_api(tracer=None) -> SimpleNamespace:
    """qocc's public functions, or the tracer's wrappers around them."""
    import qocc
    from qocc.cli import canonical_json, main

    def serialize(report) -> str:
        return canonical_json(report.as_dict())

    api = SimpleNamespace(
        load_corpus=qocc.load_corpus, count_corpus=qocc.count_corpus, marginals=qocc.marginals,
        build_report=qocc.build_report, fit_params=qocc.fit_params,
        fit_params_constrained=qocc.fit_params_constrained, context_interval=qocc.context_interval,
        serialize=serialize, main=main,
    )
    if tracer is not None:
        for name, wrapper in tracer.wrapped.items():
            setattr(api, name.split(".", 1)[1], wrapper)
        api.serialize = lambda report: tracer.call("report.serialize", serialize, report)
        api.main = lambda argv: tracer.call("cli.main", main, argv)
    return api


class CorpusSweep:
    """Load the JSON-lines corpus, then count, report and serialize 16 probes."""

    def __init__(self, seed: int) -> None:
        from qocc import InvalidInput, QoccError
        self.QoccError = QoccError
        self.InvalidInput = InvalidInput
        folder = inputs.sweep_corpus(seed)
        self.path = folder / "corpus.jsonl"
        self.truth = json.loads((folder / "truth.json").read_text(encoding="utf-8"))
        self.texts: dict[str, str] = {}

    def sweep(self, api, rec: Recorder) -> None:
        a, b = self.truth["a"], self.truth["b"]
        t0 = time.perf_counter()
        docs = api.load_corpus(self.path)
        rec.timed("load", time.perf_counter() - t0)
        n_tokens = sum(len(d.tokens) for d in docs)
        if len(docs) != self.truth["n_docs"] or n_tokens != self.truth["tokens"]:
            rec.wrong.append(f"loaded {len(docs)} docs / {n_tokens} tokens, planted "
                             f"{self.truth['n_docs']} / {self.truth['tokens']}")
        for probe in self.truth["probes"]:
            x = probe["x"]
            rec.attempted += 1
            t = time.perf_counter()
            try:
                cells = api.count_corpus(docs, a, b, x)
                table = api.marginals(cells)
            except self.QoccError as exc:
                rec.timed(x, time.perf_counter() - t)
                rec.fail([f"{x}: count raised {exc!r}"], type(exc).__name__)
                continue
            counted = time.perf_counter() - t
            if cells.as_dict() != probe["cells"]:
                rec.timed(x, counted)
                rec.fail([f"{x}: cells {cells.as_dict()} != planted {probe['cells']}"])
                continue
            t = time.perf_counter()
            try:
                text = api.serialize(api.build_report(table))
            except self.QoccError as exc:
                rec.timed(x, counted + time.perf_counter() - t)
                error = f"{probe['band']} probe: {type(exc).__name__}"
                if self.known_defect(probe, exc):
                    rec.fail(error=error)
                else:
                    rec.fail([f"{x}: build_report raised {exc!r}"], error)
                continue
            rec.timed(x, counted + time.perf_counter() - t)
            problems = oracle.check_report(json.loads(text), oracle.table_from_cells(probe["cells"]))
            if self.texts.setdefault(x, text) != text:
                problems.append(f"{x}: report JSON differs between sweeps")
            if problems:
                rec.fail(problems)
            else:
                rec.ok(x)
        rec.sweep_done()

    def known_defect(self, probe: dict, exc: Exception) -> bool:
        """The one raise that is not a wrong result: build_report's
        InvalidInput on the probe that sits on every page (mu_a = 1)."""
        return probe["band"] == inputs.EVERY_PAGE and isinstance(exc, self.InvalidInput)


class AnalyzeBatch:
    """Study items: a report, a fit per strategy, a pinned fit and a context interval.

    One operation is one whole item, six calls into qocc.  The calls differ
    in cost by a factor of twenty, so a latency per call would be a mixture
    whose median jumps between clusters; a latency per item is not.
    """

    PINS = ("p_a", "p_b", "c", "c_prime")

    def __init__(self, seed: int) -> None:
        from qocc import CountTable, QoccError
        self.QoccError = QoccError
        self.items = json.loads((inputs.batch_inputs(seed) / "batch.json").read_text(encoding="utf-8"))
        for item in self.items:
            item["count_table"] = CountTable(**item["table"])

    def _calls(self, api, item: dict):
        """(call, check) pairs of one item; each check returns its problems."""
        table = item["table"]
        yield (lambda: api.serialize(api.build_report(item["count_table"])),
               lambda text: oracle.check_report(json.loads(text), table))
        for f in item["fits"]:
            yield (lambda f=f: api.fit_params(f["mu_a"], f["mu_b"], f["target"]),
                   lambda r, f=f: oracle.check_fit(r.as_dict(), f["mu_a"], f["mu_b"], f["target"]))
        p = item["pinned_fit"]
        pins = {k: p[k] for k in self.PINS}
        yield (lambda: api.fit_params_constrained(p["mu_a"], p["mu_b"], p["target"], **pins),
               lambda r: oracle.check_fit(r.as_dict(), p["mu_a"], p["mu_b"], p["target"], pins))
        c = item["context_interval"]
        args = (c["mu_a"], c["mu_b"], *(c[k] for k in self.PINS))
        yield (lambda: api.context_interval(*args),
               lambda iv: oracle.check_interval(vars(iv), *oracle.context_endpoints(*args)))

    def sweep(self, api, rec: Recorder) -> None:
        for index, item in enumerate(self.items):
            rec.attempted += 1
            elapsed, problems, error = 0.0, [], None
            for call, check in self._calls(api, item):
                t = time.perf_counter()
                try:
                    result = call()
                except self.QoccError as exc:
                    elapsed += time.perf_counter() - t
                    problems.append(f"raised {exc!r}")
                    error = type(exc).__name__
                    continue
                elapsed += time.perf_counter() - t
                problems += check(result)
            rec.timed(index, elapsed)
            if problems:
                rec.fail(problems, error)
            else:
                rec.ok(index)
        rec.sweep_done()


# ---- CLI calls -------------------------------------------------------------

def count_argvs(seed: int) -> tuple[list[list[str]], dict]:
    """count-cold: one `count DIR a b x` per probe, and the planted truth."""
    folder = inputs.dir_corpus(seed)
    truth = json.loads((folder / "truth.json").read_text(encoding="utf-8"))
    docs = str(folder / "docs")
    return [["count", docs, truth["a"], truth["b"], p["x"]] for p in truth["probes"]], truth


def cli_argvs(seed: int) -> list[list[str]]:
    from qocc import fixtures
    bundled = {name: t.as_dict() for name, t in fixtures.all_tables().items()}
    return inputs.load_mix(inputs.cli_mix(seed, bundled))


def run_main(main, argv: list[str]) -> tuple[int, str, str]:
    """qocc.cli.main in-process, with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is a traceback, as a cold call would print
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _flag(argv: list[str], name: str) -> float | None:
    return float(argv[argv.index(name) + 1]) if name in argv else None


def _sci3(value: float) -> str:
    return f"{value:.2e}"


def expected_outcome(argv: list[str], code: int, out: str, err: str, truth: dict | None) -> list[str]:
    """Problems with one CLI result, judged from the argv and planted truth.

    ``table1`` exiting 5 with its deviation lines on stderr is the documented
    outcome: two of the recorded reference values contradict the dataset.
    """
    import qocc
    from qocc import fixtures

    problems = []
    if TRACEBACK in err:
        problems.append(f"{argv[:2]}: traceback on stderr")
    as_json = argv[0] == "--json"
    command = argv[1] if as_json else argv[0]
    want_code = 5 if command == "table1" else 0
    if code != want_code:
        return problems + [f"{argv}: exit {code}, expected {want_code}: {err.strip()[:200]}"]
    if command != "table1" and err:
        problems.append(f"{argv}: unexpected stderr {err.strip()[:200]}")

    if command == "count":
        probe = next(p for p in truth["probes"] if p["x"] == argv[-1])
        if out != oracle.canonical(oracle.table_from_cells(probe["cells"])) + "\n":
            problems.append(f"count {argv[-1]}: stdout {out.strip()} != planted cells")
    elif command == "fit":
        mu_a, mu_b, target = _flag(argv, "--mu-a"), _flag(argv, "--mu-b"), _flag(argv, "--target")
        pins = {k: _flag(argv, f) for k, f in (("p_a", "--p-a"), ("p_b", "--p-b"), ("c", "--c"),
                                                   ("c_prime", "--c-prime")) if f in argv}
        if pins:
            library = qocc.fit_params_constrained(mu_a, mu_b, target, **pins).as_dict()
        else:
            library = qocc.fit_params(mu_a, mu_b, target).as_dict()
        if as_json:
            got = json.loads(out)
            if got != library:
                problems.append(f"fit {argv}: stdout differs from the library result")
        else:
            fields = dict(kv.split("=") for kv in out.split())
            got = {k: (v if k == "strategy" else float(v)) for k, v in fields.items()}
            library_text = {k: (v if k == "strategy" else float(f"{v:.12g}")) for k, v in library.items()
                            if k != "residual"}
            if {k: got[k] for k in library_text} != library_text:
                problems.append(f"fit {argv}: text differs from the library result")
        problems += oracle.check_fit(got, mu_a, mu_b, target, pins)
    elif command == "analyze":
        raw = json.loads(Path(argv[-1]).read_text(encoding="utf-8"))
        library = qocc.build_report(qocc.CountTable(**raw)).as_dict()
        if as_json:
            got = json.loads(out)
            if got != library:
                problems.append(f"analyze {argv[-1]}: stdout differs from the library result")
            problems += oracle.check_report(got, raw)
        else:
            problems += oracle.check_report(library, raw)
            lines = dict(re.split(r"\s+", line, maxsplit=1) for line in out.splitlines())
            lo, hi = map(oracle.clamp01, oracle.interference_endpoints(raw))
            want = {"extension": oracle.extension(*oracle.ratios(raw)),
                    "interference": f"[{_sci3(lo)}, {_sci3(hi)}]",
                    "fit_strategy": library["fit"]["strategy"]}
            problems += [f"analyze {argv[-1]}: {k} {lines.get(k)!r} != {v!r}"
                         for k, v in want.items() if lines.get(k) != v]
    elif command == "interval":
        if "--table" in argv:
            lo, hi = oracle.interference_endpoints(json.loads(Path(argv[-1]).read_text(encoding="utf-8")))
        else:
            lo, hi = oracle.context_endpoints(*(_flag(argv, f) for f in (
                "--mu-a", "--mu-b", "--p-a", "--p-b", "--c", "--c-prime")))
        if as_json:
            problems += oracle.check_interval(json.loads(out), lo, hi)
        elif out != f"[{_sci3(oracle.clamp01(lo))}, {_sci3(oracle.clamp01(hi))}]\n":
            problems.append(f"interval {argv}: stdout {out.strip()}")
    elif command == "table1":
        if not err.startswith("table1: deviations from recorded reference values:"):
            problems.append("table1: no deviation report on stderr")
        rows = out.splitlines()[1:]
        if len(rows) != len(fixtures.ROWS):
            problems.append(f"table1: {len(rows)} rows")
        for line, row in zip(rows, fixtures.ROWS):
            t = fixtures.exemplar_table(row.name).as_dict()
            lo, hi = map(oracle.clamp01, oracle.interference_endpoints(t))
            want = [row.name, *(_sci3(v) for v in (*oracle.ratios(t), lo, hi))]
            if line.split() != want:
                problems.append(f"table1: row {line.split()} != {want}")
    return problems


def count_results(argvs: list[list[str]]) -> list[tuple[int, str, str]]:
    """The library's result of each `count DIR a b x`, from one load of DIR."""
    import qocc
    from qocc.cli import canonical_json
    docs = qocc.load_corpus(argvs[0][1])
    return [(0, canonical_json(qocc.marginals(qocc.count_corpus(docs, *argv[2:])).as_dict()) + "\n", "")
            for argv in argvs]


def cli_expectations(argvs: list[list[str]], truth: dict | None) -> tuple[list[tuple[int, str, str]], list[str]]:
    """The in-process result of every argv, and what is wrong with them.

    A cold call passes when its exit code, stdout and stderr equal the
    in-process result and that result itself passed ``expected_outcome``.
    The in-process result is ``qocc.cli.main``'s; for ``count`` it is the
    library's, so the directory is read once rather than once per probe.
    """
    from qocc.cli import main
    if all(argv[0] == "count" and argv[1] == argvs[0][1] for argv in argvs):
        results = count_results(argvs)
    else:
        results = [run_main(main, argv) for argv in argvs]
    problems = []
    for argv, (code, out, err) in zip(argvs, results):
        problems += expected_outcome(argv, code, out, err, truth)
    return results, problems


class CliReplay:
    """A CLI workload's argv sequence through qocc.cli.main in-process."""

    def __init__(self, argvs: list[list[str]], truth: dict | None) -> None:
        self.argvs = argvs
        self.expected, self.problems = cli_expectations(argvs, truth)

    def sweep(self, api, rec: Recorder) -> None:
        for index, (argv, expected) in enumerate(zip(self.argvs, self.expected)):
            rec.attempted += 1
            t = time.perf_counter()
            result = run_main(api.main, argv)
            rec.timed(index, time.perf_counter() - t)
            if result != expected or self.problems:
                rec.fail([f"{argv[:2]}: in-process result differs"] + self.problems[:3])
            else:
                rec.ok(index)
        rec.sweep_done()


def setup(name: str, seed: int):
    """Everything a workload's process does before its first timed operation.

    The inputs are generated beforehand (``run.prepare``), so what is left
    is importing qocc, reading the inputs and, for the CLI workloads,
    computing the expected result of every call in-process.
    """
    if name == "corpus-sweep":
        workload = CorpusSweep(seed)
    elif name == "analyze-batch":
        workload = AnalyzeBatch(seed)
    elif name == "count-cold":
        workload = CliReplay(*count_argvs(seed))
    else:
        workload = CliReplay(cli_argvs(seed), None)
    return workload, make_api()
