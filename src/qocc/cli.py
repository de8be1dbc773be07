"""Command-line front end.

Subcommands:
  count    tally a corpus into a count table (JSON on stdout)
  analyze  full pipeline report for a count-table JSON file
  interval interference interval of a table, or context interval of pinned
           parameters
  fit      solve the model for given mu_a, mu_b and a target probability
  table1   print the bundled reference dataset and self-check it

Exit codes: 0 success; 1 unreachable fit target or internal failure;
2 unreadable input or bad invocation; 3 empty corpus; 4 unusable count
table; 5 reference-table deviation; 6 fit or pinned-interval input outside
its domain.
Diagnostics go to stderr only.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fixtures
from .context_model import fit_params, fit_params_constrained, context_interval
from .corpus import CountTable, count_corpus, load_corpus, marginals, probabilities, tokenize
from .errors import InvalidCounts, InvalidInput, QoccError
from .interference import interference_interval
from .report import build_report

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_UNREADABLE = 2
EXIT_EMPTY_CORPUS = 3
EXIT_BAD_TABLE = 4
EXIT_TABLE1_DEVIATION = 5
EXIT_FIT_DOMAIN = 6


def canonical_json(obj) -> str:
    """Stable byte-for-byte JSON: sorted keys, no insignificant whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sci3(value: float) -> str:
    """Three significant figures in scientific notation, as in the dataset."""
    return f"{value:.2e}"


def _emit(args: argparse.Namespace, text: str) -> None:
    if not args.quiet:
        print(text)


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _single_token(term: str) -> str | None:
    tokens = tokenize(term)
    return tokens[0] if len(tokens) == 1 else None


def _read_table(path_arg: str) -> CountTable:
    raw = sys.stdin.read() if path_arg == "-" else Path(path_arg).read_text(encoding="utf-8")
    return CountTable.from_dict(json.loads(raw))


def cmd_count(args: argparse.Namespace) -> int:
    terms = []
    for term in (args.term_a, args.term_b, args.term_x):
        token = _single_token(term)
        if token is None:
            return _fail(EXIT_UNREADABLE, f"count: term {term!r} is not a single word")
        terms.append(token)
    try:
        documents = load_corpus(args.corpus_path)
    except OSError as exc:
        return _fail(EXIT_UNREADABLE, f"count: cannot read corpus: {exc}")
    except (ValueError, RecursionError, KeyError, QoccError) as exc:
        return _fail(EXIT_UNREADABLE, f"count: malformed corpus file: {exc}")
    if not documents:
        return _fail(EXIT_EMPTY_CORPUS, f"count: no documents under {args.corpus_path}")
    table = marginals(count_corpus(documents, *terms))
    _emit(args, canonical_json(table.as_dict()))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        table = _read_table(args.table)
    except OSError as exc:
        return _fail(EXIT_UNREADABLE, f"analyze: cannot read table: {exc}")
    except (ValueError, RecursionError, InvalidCounts) as exc:
        return _fail(EXIT_BAD_TABLE, f"analyze: invalid count table: {exc}")
    try:
        report = build_report(table)
    except QoccError as exc:
        return _fail(EXIT_BAD_TABLE, f"analyze: table not analyzable: {exc}")
    if args.json:
        _emit(args, canonical_json(report.as_dict()))
        return EXIT_OK
    lines = [
        f"mu_a                {sci3(report.triple.mu_a)}",
        f"mu_b                {sci3(report.triple.mu_b)}",
        f"mu_ab_observed      {sci3(report.triple.mu_ab_observed)}",
        f"extension           {report.extension.value}",
        f"interference        [{sci3(report.interference.lo)}, {sci3(report.interference.hi)}]",
        f"interference_only   {'yes' if report.interference_only_feasible else 'no'}",
        f"context_only        {'yes' if report.context_only_feasible else 'no'}",
        f"fit_strategy        {report.fit.strategy.value}",
        f"fit_residual        {sci3(report.fit.residual)}",
    ]
    _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_interval(args: argparse.Namespace) -> int:
    if args.table is not None:
        try:
            table = _read_table(args.table)
        except OSError as exc:
            return _fail(EXIT_UNREADABLE, f"interval: cannot read table: {exc}")
        except (ValueError, RecursionError, InvalidCounts) as exc:
            return _fail(EXIT_BAD_TABLE, f"interval: invalid count table: {exc}")
        try:
            interval = interference_interval(table)
        except QoccError as exc:
            return _fail(EXIT_BAD_TABLE, f"interval: {exc}")
    else:
        if args.mu_a is None or args.mu_b is None:
            return _fail(EXIT_UNREADABLE, "interval: --table or --mu-a/--mu-b required")
        try:
            interval = context_interval(
                args.mu_a, args.mu_b, args.p_a, args.p_b, args.c, args.c_prime
            )
        except InvalidInput as exc:
            return _fail(EXIT_FIT_DOMAIN, f"interval: {exc}")
        except QoccError as exc:
            return _fail(EXIT_BAD_TABLE, f"interval: {exc}")
    if args.json:
        payload = {
            "lo": interval.lo, "hi": interval.hi,
            "raw_lo": interval.raw_lo, "raw_hi": interval.raw_hi,
        }
        _emit(args, canonical_json(payload))
    else:
        _emit(args, f"[{sci3(interval.lo)}, {sci3(interval.hi)}]")
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    overrides = [args.p_a, args.p_b, args.c, args.c_prime]
    try:
        if any(value is not None for value in overrides):
            result = fit_params_constrained(
                args.mu_a,
                args.mu_b,
                args.target,
                args.p_a if args.p_a is not None else 1.0,
                args.p_b if args.p_b is not None else 1.0,
                args.c if args.c is not None else 1.0,
                args.c_prime if args.c_prime is not None else 1.0,
            )
        else:
            result = fit_params(args.mu_a, args.mu_b, args.target)
    except InvalidInput as exc:
        return _fail(EXIT_FIT_DOMAIN, f"fit: {exc}")
    except QoccError as exc:
        return _fail(EXIT_FAILURE, f"fit: {exc}")
    if args.json:
        _emit(args, canonical_json(result.as_dict()))
    else:
        _emit(
            args,
            f"strategy={result.strategy.value} residual={sci3(result.residual)} "
            + " ".join(f"{k}={v:.12g}" for k, v in result.params.as_dict().items()),
        )
    return EXIT_OK


def _table1_rows() -> list[tuple[str, dict[str, float]]]:
    rows = []
    for row in fixtures.ROWS:
        table = fixtures.exemplar_table(row.name)
        triple = probabilities(table)
        interval = interference_interval(table)
        rows.append((
            row.name,
            {
                "mu_a": triple.mu_a,
                "mu_b": triple.mu_b,
                "mu_ab": triple.mu_ab_observed,
                "mu_min": interval.lo,
                "mu_max": interval.hi,
            },
        ))
    return rows


def cmd_table1(args: argparse.Namespace) -> int:
    computed = _table1_rows()
    header = ("exemplar", "mu_a", "mu_b", "mu_ab", "mu_min", "mu_max")
    if args.csv or args.json:
        if args.json:
            payload = [{"exemplar": name, **cells} for name, cells in computed]
            _emit(args, canonical_json(payload))
        else:
            lines = [",".join(header)]
            for name, cells in computed:
                lines.append(name + "," + ",".join(sci3(cells[key]) for key in header[1:]))
            _emit(args, "\n".join(lines))
    else:
        widths = (12, 10, 10, 10, 10, 10)
        lines = ["".join(f"{h:<{w}}" for h, w in zip(header, widths))]
        for name, cells in computed:
            cols = [f"{name:<12}"] + [f"{sci3(cells[key]):<10}" for key in header[1:]]
            lines.append("".join(cols))
        _emit(args, "\n".join(lines))

    # self-check against the values recorded with the dataset, at the three
    # significant figures they were recorded with
    deviations = []
    for (name, cells), row in zip(computed, fixtures.ROWS):
        reference = {
            "mu_a": row.mu_a, "mu_b": row.mu_b, "mu_ab": row.mu_ab,
            "mu_min": row.reported_lo, "mu_max": row.reported_hi,
        }
        for key in header[1:]:
            if sci3(cells[key]) != sci3(reference[key]):
                deviations.append(
                    f"{name}/{key}: computed {sci3(cells[key])}, recorded {sci3(reference[key])}"
                )
    if deviations:
        print("table1: deviations from recorded reference values:", file=sys.stderr)
        for line in deviations:
            print("  " + line, file=sys.stderr)
        return EXIT_TABLE1_DEVIATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qocc",
        description="Occurrence/co-occurrence probabilities with interference and context models.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout, keep exit codes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count a corpus into a table")
    p_count.add_argument("corpus_path", help="directory of text files, or a JSON-lines file")
    p_count.add_argument("term_a")
    p_count.add_argument("term_b")
    p_count.add_argument("term_x")
    p_count.set_defaults(func=cmd_count)

    p_analyze = sub.add_parser("analyze", help="full report for a count-table JSON file")
    p_analyze.add_argument("table", help="path to count-table JSON, or - for stdin")
    p_analyze.set_defaults(func=cmd_analyze)

    p_interval = sub.add_parser("interval", help="interference or context interval")
    p_interval.add_argument("--table", help="count-table JSON path (interference interval)")
    p_interval.add_argument("--mu-a", dest="mu_a", type=float)
    p_interval.add_argument("--mu-b", dest="mu_b", type=float)
    p_interval.add_argument("--p-a", dest="p_a", type=float, default=1.0)
    p_interval.add_argument("--p-b", dest="p_b", type=float, default=1.0)
    p_interval.add_argument("--c", dest="c", type=float, default=1.0)
    p_interval.add_argument("--c-prime", dest="c_prime", type=float, default=1.0)
    p_interval.set_defaults(func=cmd_interval)

    p_fit = sub.add_parser("fit", help="solve the model for a target probability")
    p_fit.add_argument("--mu-a", dest="mu_a", type=float, required=True)
    p_fit.add_argument("--mu-b", dest="mu_b", type=float, required=True)
    p_fit.add_argument("--target", type=float, required=True)
    p_fit.add_argument("--p-a", dest="p_a", type=float, help="pin p_a (constrained solve)")
    p_fit.add_argument("--p-b", dest="p_b", type=float, help="pin p_b (constrained solve)")
    p_fit.add_argument("--c", dest="c", type=float, help="pin c (constrained solve)")
    p_fit.add_argument("--c-prime", dest="c_prime", type=float, help="pin c' (constrained solve)")
    p_fit.set_defaults(func=cmd_fit)

    p_table1 = sub.add_parser("table1", help="print and self-check the bundled dataset")
    p_table1.add_argument("--csv", action="store_true", help="CSV instead of aligned text")
    p_table1.set_defaults(func=cmd_table1)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
