"""Command-line front end.

Subcommands:
  count    tally a corpus into a count table (JSON on stdout)
  analyze  full pipeline report for a count-table JSON file
  interval interference interval of a table, or context interval of pinned
           parameters
  fit      solve the model for given mu_a, mu_b and a target probability
  table1   print the bundled reference dataset and self-check it

Exit codes: 0 success (``--help`` too); 1 unreachable fit target or a failed
solve; 2 unreadable input, a malformed corpus or a bad invocation; 3 empty
corpus; 4 unusable count table, or a pinned interval whose normalization
vanishes; 5 reference-table deviation; 6 fit or pinned-interval input outside
its domain.
Diagnostics go to stderr only: one line per failure, or ``table1``'s list of
deviating cells.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

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


# the encoder json.dumps builds on every call with these arguments, built once
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    """Stable byte-for-byte JSON: sorted keys, no insignificant whitespace."""
    return _CANONICAL_ENCODER.encode(obj)


def sci3(value: float) -> str:
    """Three significant figures in scientific notation, as in the dataset."""
    return f"{value:.2e}"


def _emit(args: argparse.Namespace, text: str) -> None:
    if not args.quiet:
        print(text)


class _Exit(Exception):
    """Ends a command with an exit code; ``main`` prints the message on stderr."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


# the pinned model parameters of ``interval`` and ``fit``
_PINS = ("p_a", "p_b", "c", "c_prime")


def _add_pin_flags(parser: argparse.ArgumentParser) -> None:
    for dest in _PINS:
        flag = "--" + dest.replace("_", "-")
        parser.add_argument(flag, dest=dest, type=float, help=f"pin {dest} (1 when not given)")


def _pins(args: argparse.Namespace) -> list[float]:
    """The pinned parameters in ``_PINS`` order, 1.0 where a flag is not given."""
    return [1.0 if getattr(args, dest) is None else getattr(args, dest) for dest in _PINS]


def _read_table(command: str, path_arg: str) -> CountTable:
    try:
        raw = sys.stdin.read() if path_arg == "-" else Path(path_arg).read_text(encoding="utf-8")
        return CountTable.from_dict(json.loads(raw))
    except OSError as exc:
        raise _Exit(EXIT_UNREADABLE, f"{command}: cannot read table: {exc}")
    except (ValueError, RecursionError, InvalidCounts) as exc:
        raise _Exit(EXIT_BAD_TABLE, f"{command}: invalid count table: {exc}")


def cmd_count(args: argparse.Namespace) -> None:
    terms = []
    for term in (args.term_a, args.term_b, args.term_x):
        tokens = tokenize(term)
        if len(tokens) != 1:
            raise _Exit(EXIT_UNREADABLE, f"count: term {term!r} is not a single word")
        terms += tokens
    try:
        documents = load_corpus(args.corpus_path, terms)
    except OSError as exc:
        raise _Exit(EXIT_UNREADABLE, f"count: cannot read corpus: {exc}")
    except (ValueError, QoccError) as exc:
        raise _Exit(EXIT_UNREADABLE, f"count: malformed corpus file: {exc}")
    if not documents:
        raise _Exit(EXIT_EMPTY_CORPUS, f"count: no documents under {args.corpus_path}")
    _emit(args, canonical_json(marginals(count_corpus(documents, *terms)).as_dict()))


def cmd_analyze(args: argparse.Namespace) -> None:
    try:
        report = build_report(_read_table("analyze", args.table))
    except QoccError as exc:
        raise _Exit(EXIT_BAD_TABLE, f"analyze: table not analyzable: {exc}")
    if args.json:
        _emit(args, canonical_json(report.as_dict()))
        return
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


def cmd_interval(args: argparse.Namespace) -> None:
    if args.table is None and (args.mu_a is None or args.mu_b is None):
        raise _Exit(EXIT_UNREADABLE, "interval: --table or --mu-a/--mu-b required")
    try:
        if args.table is not None:
            interval = interference_interval(_read_table("interval", args.table))
        else:
            interval = context_interval(args.mu_a, args.mu_b, *_pins(args))
    except InvalidInput as exc:
        raise _Exit(EXIT_FIT_DOMAIN, f"interval: {exc}")
    except QoccError as exc:
        raise _Exit(EXIT_BAD_TABLE, f"interval: {exc}")
    if args.json:
        _emit(args, canonical_json(interval.as_dict()))
    else:
        _emit(args, f"[{sci3(interval.lo)}, {sci3(interval.hi)}]")


def cmd_fit(args: argparse.Namespace) -> None:
    try:
        if any(getattr(args, dest) is not None for dest in _PINS):
            result = fit_params_constrained(args.mu_a, args.mu_b, args.target, *_pins(args))
        else:
            result = fit_params(args.mu_a, args.mu_b, args.target)
    except InvalidInput as exc:
        raise _Exit(EXIT_FIT_DOMAIN, f"fit: {exc}")
    except QoccError as exc:
        raise _Exit(EXIT_FAILURE, f"fit: {exc}")
    if args.json:
        _emit(args, canonical_json(result.as_dict()))
    else:
        _emit(
            args,
            f"strategy={result.strategy.value} residual={sci3(result.residual)} "
            + " ".join(f"{k}={v:.12g}" for k, v in result.params.as_dict().items()),
        )


def cmd_table1(args: argparse.Namespace) -> None:
    from . import fixtures  # only table1 reads the bundled dataset

    header = ("exemplar", "mu_a", "mu_b", "mu_ab", "mu_min", "mu_max")
    payload, lines, deviations = [], [header], []
    for row in fixtures.ROWS:
        table = fixtures.exemplar_table(row.name)
        triple = probabilities(table)
        interval = interference_interval(table)
        values = (triple.mu_a, triple.mu_b, triple.mu_ab_observed, interval.lo, interval.hi)
        payload.append({"exemplar": row.name, **dict(zip(header[1:], values))})
        cells = [sci3(value) for value in values]
        lines.append((row.name, *cells))
        # self-check against the values recorded with the dataset, at the three
        # significant figures they were recorded with
        recorded = (row.mu_a, row.mu_b, row.mu_ab, row.reported_lo, row.reported_hi)
        for key, cell, reference in zip(header[1:], cells, map(sci3, recorded)):
            if cell != reference:
                deviations.append(f"{row.name}/{key}: computed {cell}, recorded {reference}")
    if args.json:
        _emit(args, canonical_json(payload))
    elif args.csv:
        _emit(args, "\n".join(",".join(line) for line in lines))
    else:
        widths = (12, 10, 10, 10, 10, 10)
        aligned = ("".join(f"{col:<{w}}" for col, w in zip(line, widths)) for line in lines)
        _emit(args, "\n".join(aligned))
    if deviations:
        message = ["table1: deviations from recorded reference values:"] + deviations
        raise _Exit(EXIT_TABLE1_DEVIATION, "\n  ".join(message))


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
    _add_pin_flags(p_interval)
    p_interval.set_defaults(func=cmd_interval)

    fit_text = (
        "No pin solves all six parameters; any pin makes the unpinned ones 1 and solves only the phases."
    )
    p_fit = sub.add_parser("fit", help="solve the model for a target probability", description=fit_text)
    p_fit.add_argument("--mu-a", dest="mu_a", type=float, required=True)
    p_fit.add_argument("--mu-b", dest="mu_b", type=float, required=True)
    p_fit.add_argument("--target", type=float, required=True)
    _add_pin_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_table1 = sub.add_parser("table1", help="print and self-check the bundled dataset")
    p_table1.add_argument("--csv", action="store_true", help="CSV instead of aligned text")
    p_table1.set_defaults(func=cmd_table1)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except _Exit as exc:
        print(exc, file=sys.stderr)
        return exc.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
