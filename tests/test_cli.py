"""Command-line behavior: exit codes, canonical JSON, parity with the library."""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qocc
from qocc import fixtures
from qocc.cli import canonical_json, main
from qocc.context_model import fit_params, fit_params_constrained
from qocc.corpus import (
    _WORD_RE, Document, count_corpus, document_from_text, load_corpus, marginals, probabilities,
)
from qocc.fixtures import ExemplarRow, exemplar_table
from qocc.interference import interference_interval

from conftest import brute_force_cells


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_table(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(canonical_json(exemplar_table(name).as_dict()), encoding="utf-8")
    return str(path)


class TestCount:
    def make_corpus(self, tmp_path):
        (tmp_path / "d1.txt").write_text("fruits", encoding="utf-8")
        (tmp_path / "d2.txt").write_text("vegetables", encoding="utf-8")
        (tmp_path / "d3.txt").write_text("fruits vegetables apple", encoding="utf-8")
        return tmp_path

    def test_toy_corpus(self, capsys, tmp_path):
        corpus = self.make_corpus(tmp_path)
        code, out, _ = run(capsys, "count", str(corpus), "fruits", "vegetables", "apple")
        assert code == 0
        assert json.loads(out) == {
            "n_a": 2, "n_b": 2, "n_ab": 1, "n_ax": 1, "n_bx": 1, "n_abx": 1,
        }

    def test_missing_directory_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "count", str(tmp_path / "nope"), "a", "b", "x")
        assert code == 2
        assert out == ""
        assert "cannot read" in err

    def test_empty_corpus_exits_3(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run(capsys, "count", str(empty), "a", "b", "x")
        assert code == 3
        assert "no documents" in err

    def test_multiword_term_exits_2(self, capsys, tmp_path):
        corpus = self.make_corpus(tmp_path)
        code, _, err = run(capsys, "count", str(corpus), "two words", "b", "x")
        assert code == 2

    def test_matches_library_counting(self, capsys, tmp_path, rng):
        vocabulary = ["fruits", "vegetables", "apple", "pear", "stone"]
        docs = []
        for i in range(50):
            words = rng.choice(vocabulary, size=int(rng.integers(0, 6)))
            text = " ".join(words)
            (tmp_path / f"doc{i:02d}.txt").write_text(text, encoding="utf-8")
            docs.append(document_from_text(f"doc{i:02d}.txt", text))
        code, out, _ = run(capsys, "count", str(tmp_path), "fruits", "vegetables", "apple")
        assert code == 0
        expected = marginals(count_corpus(docs, "fruits", "vegetables", "apple"))
        assert out.rstrip("\n") == canonical_json(expected.as_dict())

    def test_cold_count_on_mixed_ascii_and_unicode_files_matches_brute_force(self, tmp_path):
        texts = {
            "a.txt": "Fruits and vegetables: apple, APPLE pie.",
            "b.txt": "\u00c4pfel und Gem\u00fcse \u2014 fruits\x0bvegetables",
            "c.txt": "\u212aiwi fruits_2vegetables",  # KELVIN SIGN lowercases to ASCII 'k'
            "d.txt": "",
            "e.txt": "Stra\u00dfe \u0130stanbul apple\u00b2 kiwi VEGETABLES",
        }
        for name, text in texts.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        docs = [Document(name, _WORD_RE.findall(text.lower())) for name, text in texts.items()]
        env = {**os.environ, "PYTHONPATH": str(Path(qocc.__file__).parents[1])}
        for x in ("apple", "\u00e4pfel", "kiwi", "absent"):
            done = subprocess.run(
                [sys.executable, "-m", "qocc.cli", "count", str(tmp_path), "fruits", "vegetables", x],
                capture_output=True, text=True, env=env,
            )
            assert done.returncode == 0, done.stderr
            expected = marginals(brute_force_cells(docs, "fruits", "vegetables", x))
            assert done.stdout == canonical_json(expected.as_dict()) + "\n"

    def test_quiet_suppresses_stdout(self, capsys, tmp_path):
        corpus = self.make_corpus(tmp_path)
        code, out, _ = run(capsys, "--quiet", "count", str(corpus), "fruits", "vegetables", "apple")
        assert code == 0
        assert out == ""


class TestAnalyze:
    def test_olive_json_report(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--json", "analyze", write_table(tmp_path, "olive"))
        assert code == 0
        report = json.loads(out)
        assert report["interference_only_feasible"] is False
        assert report["context_only_feasible"] is False
        assert report["fit"]["strategy"] == "overextension_branch"

    def test_parsley_human_report(self, capsys, tmp_path):
        code, out, _ = run(capsys, "analyze", write_table(tmp_path, "parsley"))
        assert code == 0
        assert "context_only        yes" in out
        assert "interference_only   yes" in out

    def test_apple_flags(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--json", "analyze", write_table(tmp_path, "apple"))
        assert code == 0
        report = json.loads(out)
        assert report["interference_only_feasible"] is True
        assert report["extension"] == "double_overextension"

    def test_invariant_violating_table_exits_4(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            canonical_json({"n_a": 10, "n_b": 10, "n_ab": 2, "n_ax": 5, "n_bx": 5, "n_abx": 3}),
            encoding="utf-8",
        )
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 4
        assert "invalid count table" in err

    def test_bool_count_exits_4_with_the_count_rule_message(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text('{"n_a": 3, "n_b": 3, "n_ab": true, "n_ax": 1, "n_bx": 1, "n_abx": 0}')
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (4, "")
        assert err == "analyze: invalid count table: n_ab must be an integer, got True\n"

    def test_malformed_json_exits_4(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, _ = run(capsys, "analyze", str(path))
        assert code == 4

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "analyze", str(tmp_path / "nope.json"))
        assert code == 2

    def test_matches_library_report(self, capsys, tmp_path):
        from qocc.report import build_report

        code, out, _ = run(capsys, "--json", "analyze", write_table(tmp_path, "yam"))
        assert code == 0
        expected = canonical_json(build_report(exemplar_table("yam")).as_dict())
        assert out.rstrip("\n") == expected


class TestInterval:
    def test_table_form_matches_library(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--json", "interval", "--table", write_table(tmp_path, "apple"))
        assert code == 0
        payload = json.loads(out)
        interval = interference_interval(exemplar_table("apple"))
        assert payload["lo"] == interval.lo
        assert payload["hi"] == interval.hi

    def test_context_form(self, capsys):
        code, out, _ = run(
            capsys, "--json", "interval",
            "--mu-a", "0.0522", "--mu-b", "0.213",
            "--p-a", "0.5", "--p-b", "0.5", "--c", "0.5", "--c-prime", "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lo"] == pytest.approx(5.78e-2, rel=1e-2)
        assert payload["hi"] == pytest.approx(2.98e-1, rel=1e-2)

    def test_human_form(self, capsys, tmp_path):
        code, out, _ = run(capsys, "interval", "--table", write_table(tmp_path, "apple"))
        assert code == 0
        assert out.startswith("[1.02e-01, 3.34e-01]")

    def test_needs_some_input(self, capsys):
        code, _, err = run(capsys, "interval")
        assert code == 2

    @pytest.mark.parametrize("pin", [["--p-a", "-1"], ["--c", "2"]])
    def test_parameter_outside_its_domain_exits_6(self, capsys, pin):
        code, out, err = run(capsys, "interval", "--mu-a", ".5", "--mu-b", ".5", *pin)
        assert code == 6
        assert out == ""
        assert err.startswith("interval: ") and err.count("\n") == 1


class TestFit:
    def test_almond_values(self, capsys):
        code, out, _ = run(
            capsys, "--json", "fit", "--mu-a", "0.0901", "--mu-b", "0.110", "--target", "0.255"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == "overextension_branch"
        assert payload["residual"] <= 1e-9

    def test_convex_case(self, capsys):
        code, out, _ = run(
            capsys, "--json", "fit", "--mu-a", "0.3", "--mu-b", "0.3", "--target", "0.3"
        )
        assert code == 0
        assert json.loads(out)["strategy"] == "convex_no_interference"

    def test_degenerate_measurement_exits_6(self, capsys):
        code, _, err = run(capsys, "fit", "--mu-a", "1.0", "--mu-b", "0.5", "--target", "0.5")
        assert code == 6

    def test_constrained_solve(self, capsys):
        code, out, _ = run(
            capsys, "--json", "fit",
            "--mu-a", "0.0522", "--mu-b", "0.213", "--target", "0.29",
            "--p-a", "0.5", "--p-b", "0.5", "--c", "0.5", "--c-prime", "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        expected = fit_params_constrained(0.0522, 0.213, 0.29, 0.5, 0.5, 0.5, 0.5)
        assert payload == json.loads(canonical_json(expected.as_dict()))

    def test_pinned_solve_steps_around_the_vanishing_corner(self, capsys):
        # equal measurements and weights with unit moduli make the model's
        # normalization vanish at (x, x') = (-1, -1); the pinned solve's path
        # avoids that corner, so the target inside the interval [0, 1] is reached
        argv = (
            "fit", "--mu-a", "0.3", "--mu-b", "0.3", "--target", "0.3",
            "--p-a", "1", "--p-b", "1", "--c", "1", "--c-prime", "1",
        )
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("strategy=convex_no_interference ")
        code, out, err = run(capsys, "--json", *argv)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["residual"] <= 1e-9
        pins = (payload["p_a"], payload["p_b"], payload["c"], payload["c_prime"])
        assert pins == (1.0, 1.0, 1.0, 1.0)

    def test_unreachable_pinned_target_exits_1(self, capsys):
        code, _, err = run(
            capsys, "fit",
            "--mu-a", "0.0522", "--mu-b", "0.213", "--target", "0.9",
            "--p-a", "0.5", "--p-b", "0.5", "--c", "0.5", "--c-prime", "0.5",
        )
        assert code == 1
        assert "fit:" in err

    def test_scripted_invocations_match_library(self, capsys, rng):
        for _ in range(20):
            mu_a = round(float(rng.uniform(0.01, 0.99)), 6)
            mu_b = round(float(rng.uniform(0.01, 0.99)), 6)
            target = round(float(rng.uniform(0.001, 0.999)), 6)
            code, out, _ = run(
                capsys, "--json", "fit",
                "--mu-a", repr(mu_a), "--mu-b", repr(mu_b), "--target", repr(target),
            )
            assert code == 0
            expected = canonical_json(fit_params(mu_a, mu_b, target).as_dict())
            assert out.rstrip("\n") == expected


# option values for the argv fuzz: any float, the IEEE specials, the unit
# interval's ends and values just outside it
FUZZ_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from([
        "nan", "inf", "-inf", "0", "1", "1e-300", "-1e-300", "-0.0",
        "1.0000000000000002", "-5e-324", "1.5", "-0.5", "2",
    ]),
)
PIN_OPTIONS = ("--p-a", "--p-b", "--c", "--c-prime")
TABLE_COMMANDS = (("analyze", "-"), ("interval", "--table", "-"))

# JSON values for a count: ints around and far above 2**53 (one too long for
# json.loads to parse), integral and fractional floats, the IEEE specials,
# booleans and other types
TABLE_VALUES = st.one_of(
    st.integers(2**53 - 2, 2**53 + 2).map(str),
    st.integers(2**53, 10**400).map(str),
    st.integers(0, 50).map(lambda n: repr(float(n))),
    st.floats(allow_nan=True, allow_infinity=True).map(json.dumps),
    st.sampled_from(["true", "false", "null", '"3"', "[]", "-1", "1e300", "1" + "0" * 5000]),
)


@st.composite
def table_json(draw):
    """Count-table JSON text: a valid small table, some of its values replaced or dropped.

    The small tables reach every boundary: zero counts, equal marginals,
    n_abx = n_ab (x on every page); a scale factor takes some up to 2**53.
    """
    n_a = draw(st.integers(0, 6))
    n_b = draw(st.one_of(st.just(n_a), st.integers(0, 6)))
    n_ab = draw(st.integers(0, min(n_a, n_b)))
    table = {
        "n_a": n_a, "n_b": n_b, "n_ab": n_ab, "n_ax": draw(st.integers(0, n_a)),
        "n_bx": draw(st.integers(0, n_b)), "n_abx": draw(st.integers(0, n_ab)),
    }
    scale = draw(st.sampled_from([1, 1, 1, 10**9, 2**53 // 6]))
    texts = {key: str(value * scale) for key, value in table.items()}
    for key in draw(st.sets(st.sampled_from(list(texts)))):
        texts[key] = draw(st.none() | TABLE_VALUES)  # None drops the key
    return "{" + ",".join(f'"{key}": {text}' for key, text in texts.items() if text is not None) + "}"


# corpus words: ASCII and non-ASCII letters in several cases, digits and separators
CORPUS_TEXT = st.lists(
    st.sampled_from(["apple", "Pear", "STONE", "fig", "caf\u00e9", "42", "x_y", "-", "\t", "\n"]),
    max_size=8,
).map(" ".join)
# JSON values for a document's id or text: every JSON type but the object
DOCUMENT_VALUES = st.one_of(
    st.text("dx0 ", min_size=1, max_size=3),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 9), max_size=3),
)
DOCUMENT_LINES = st.fixed_dictionaries(
    {"id": DOCUMENT_VALUES, "text": CORPUS_TEXT | DOCUMENT_VALUES}
).map(lambda record: json.dumps(record).encode("utf-8"))
BLANK_LINES = st.sampled_from([b"", b"   ", b"\t"])
# a line that makes the corpus unreadable: an empty id, one key missing, a
# JSON value that is not an object, broken JSON, or bytes that are not UTF-8
MALFORMED_LINES = st.one_of(
    CORPUS_TEXT.map(lambda text: {"id": "", "text": text}),
    st.sampled_from(["id", "text"]).flatmap(lambda key: DOCUMENT_VALUES.map(lambda value: {key: value})),
    DOCUMENT_VALUES,
).map(lambda value: json.dumps(value).encode("utf-8")) | st.sampled_from(
    [b'{"id": ', b"{not json", b"[", b'{"id": "d1", "text": "a"', b"\xff\xfe caf\xe9"]
)
# a document file: text or empty; a file that is not UTF-8 makes the corpus unreadable
DOCUMENT_FILES = CORPUS_TEXT.map(lambda text: text.encode("utf-8"))
MALFORMED_FILES = st.sampled_from([b"caf\xe9 apple", b"\xff\xfe"])


@st.composite
def corpora(draw):
    """("jsonl", lines) or ("dir", file contents), as bytes: readable parts, sometimes one malformed."""
    kind = draw(st.sampled_from(["jsonl", "dir"]))
    if kind == "jsonl":
        parts, malformed = draw(st.lists(DOCUMENT_LINES | BLANK_LINES, max_size=6)), MALFORMED_LINES
    else:
        parts, malformed = draw(st.lists(DOCUMENT_FILES, max_size=6)), MALFORMED_FILES
    if draw(st.booleans()):
        parts.insert(draw(st.integers(0, len(parts))), draw(malformed))
    return kind, parts


# single-word terms, and terms that are not one word
WORD_TERMS = st.sampled_from(["apple", "pear", "stone", "fig", "caf\u00e9", "none", "true", "absent"])
ANY_TERMS = WORD_TERMS | st.sampled_from(["two words", "42", ""])
COUNT_TERMS = st.tuples(WORD_TERMS, WORD_TERMS, WORD_TERMS) | st.tuples(ANY_TERMS, ANY_TERMS, ANY_TERMS)


def write_corpus(root, corpus):
    """Write a drawn corpus under root and return its path."""
    kind, parts = corpus
    if kind == "jsonl":
        path = root / "corpus.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in parts))
        return path
    path = root / "docs"
    path.mkdir()
    for i, content in enumerate(parts):
        (path / f"d{i}.txt").write_bytes(content)
    return path


class TestArgvFuzz:
    """Every fit, interval, analyze and count argv ends in a documented exit code."""

    @staticmethod
    def outcome(argv):
        """(exit code, stdout) of one in-process call; only SystemExit is caught."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    @given(
        json_flag=st.booleans(),
        measurements=st.tuples(FUZZ_VALUES, FUZZ_VALUES, FUZZ_VALUES),
        pins=st.dictionaries(st.sampled_from(PIN_OPTIONS), FUZZ_VALUES),
    )
    @example(json_flag=False, measurements=("0.3", "0.3", "0.3"),
             pins=dict.fromkeys(PIN_OPTIONS, "1"))
    @settings(max_examples=300, deadline=None)
    def test_fit(self, json_flag, measurements, pins):
        mu_a, mu_b, target = measurements
        argv = ["--json"] * json_flag + [
            "fit", f"--mu-a={mu_a}", f"--mu-b={mu_b}", f"--target={target}",
        ] + [f"{option}={value}" for option, value in pins.items()]
        assert self.outcome(argv)[0] in range(7)

    @given(
        json_flag=st.booleans(),
        measurements=st.tuples(FUZZ_VALUES, FUZZ_VALUES),
        pins=st.dictionaries(st.sampled_from(PIN_OPTIONS), FUZZ_VALUES),
    )
    @settings(max_examples=300, deadline=None)
    def test_pinned_interval(self, json_flag, measurements, pins):
        mu_a, mu_b = measurements
        argv = ["--json"] * json_flag + ["interval", f"--mu-a={mu_a}", f"--mu-b={mu_b}"] + [
            f"{option}={value}" for option, value in pins.items()
        ]
        assert self.outcome(argv)[0] in range(7)

    @given(json_flag=st.booleans(), command=st.sampled_from(TABLE_COMMANDS), table=table_json())
    @example(json_flag=False, command=TABLE_COMMANDS[0], table=json.dumps(dict.fromkeys(
        ("n_a", "n_b", "n_ab", "n_ax", "n_bx", "n_abx"), 10**160)))
    @settings(max_examples=300, deadline=None)
    def test_table_commands(self, json_flag, command, table):
        argv = ["--json"] * json_flag + list(command)
        with mock.patch("sys.stdin", io.StringIO(table)):
            assert self.outcome(argv)[0] in range(7)

    @given(corpus=corpora(), terms=COUNT_TERMS)
    @example(corpus=("jsonl", [b"[" * 100000]), terms=("apple", "pear", "fig"))
    @example(corpus=("jsonl", [b'{"id": 1%s, "text": "apple"}' % (b"0" * 5000)]),
             terms=("apple", "pear", "fig"))
    @settings(max_examples=300, deadline=None)
    def test_count(self, corpus, terms):
        with tempfile.TemporaryDirectory() as root:
            path = write_corpus(Path(root), corpus)
            code, out = self.outcome(["count", str(path), *terms])
            assert code in range(7)
            if code == 0:
                expected = marginals(count_corpus(load_corpus(path), *terms))
                assert out == canonical_json(expected.as_dict()) + "\n"


def self_consistent_rows():
    """Rows whose recorded endpoints equal the recomputed ones (test device)."""
    rows = []
    for row in fixtures.ROWS:
        table = exemplar_table(row.name)
        triple = probabilities(table)
        interval = interference_interval(table)
        rows.append(
            ExemplarRow(
                row.name,
                triple.mu_a,
                triple.mu_b,
                triple.mu_ab_observed,
                interval.lo,
                interval.hi,
            )
        )
    return tuple(rows)


class TestTable1:
    def test_default_run_prints_all_rows_and_flags_recorded_deviations(self, capsys):
        code, out, err = run(capsys, "table1")
        # the shipped dataset's recorded endpoints disagree with recomputation
        # on most rows, so the self-check reports them and exits 5
        assert code == 5
        for name in fixtures.EXEMPLAR_NAMES:
            assert name in out
        assert "deviations from recorded reference values" in err
        assert "raisin/mu_min" in err
        # cells that do agree are not listed
        assert "apple/mu_a" not in err
        assert "lentils/mu_max" not in err

    def test_csv_shape_and_apple_row(self, capsys):
        code, out, _ = run(capsys, "table1", "--csv")
        lines = out.strip().splitlines()
        assert lines[0] == "exemplar,mu_a,mu_b,mu_ab,mu_min,mu_max"
        assert len(lines) == 9
        assert lines[1] == "apple,1.66e-01,2.36e-01,2.71e-01,1.02e-01,3.34e-01"

    def test_almond_computed_max(self, capsys):
        code, out, _ = run(capsys, "table1", "--csv")
        almond = [line for line in out.splitlines() if line.startswith("almond")][0]
        assert almond.endswith("2.12e-01")

    def test_exit_zero_when_recorded_values_are_consistent(self, capsys, monkeypatch):
        monkeypatch.setattr(fixtures, "ROWS", self_consistent_rows())
        code, out, err = run(capsys, "table1")
        assert code == 0
        assert err == ""

    def test_corrupted_fixture_exits_5(self, capsys, monkeypatch):
        rows = list(self_consistent_rows())
        apple = rows[0]
        rows[0] = ExemplarRow(
            apple.name, apple.mu_a, apple.mu_b, apple.mu_ab, apple.reported_lo, 9.99e-1
        )
        monkeypatch.setattr(fixtures, "ROWS", tuple(rows))
        code, _, err = run(capsys, "table1")
        assert code == 5
        assert "apple/mu_max" in err

    def test_json_rows_match_library(self, capsys):
        code, out, _ = run(capsys, "--json", "table1")
        payload = json.loads(out)
        assert len(payload) == 8
        apple = payload[0]
        interval = interference_interval(exemplar_table("apple"))
        assert apple["exemplar"] == "apple"
        assert apple["mu_min"] == interval.lo
        assert apple["mu_max"] == interval.hi


MALFORMED_INPUTS = {
    "analyze-json-array": (["analyze", "{table}"], 4),
    "interval-json-array": (["interval", "--table", "{table}"], 4),
    "count-non-utf8-file": (["count", "{binary}", "a", "b", "x"], 2),
    "count-non-utf8-directory": (["count", "{binary_dir}", "a", "b", "x"], 2),
    "count-json-line-not-object": (["count", "{jsonl}", "a", "b", "x"], 2),
    "analyze-counts-above-2**53": (["analyze", "{huge}"], 4),
    "interval-counts-above-2**53": (["interval", "--table", "{huge}"], 4),
    "analyze-json-int-too-long-to-parse": (["analyze", "{long_int}"], 4),
    "interval-json-int-too-long-to-parse": (["interval", "--table", "{long_int}"], 4),
    "analyze-json-nested-too-deep-to-parse": (["analyze", "{deep}"], 4),
    "interval-json-nested-too-deep-to-parse": (["interval", "--table", "{deep}"], 4),
    "count-json-line-nested-too-deep-to-parse": (["count", "{deep}", "a", "b", "x"], 2),
    "count-json-id-too-long-to-parse": (["count", "{long_id}", "a", "b", "x"], 2),
    "count-json-text-too-long-to-parse": (["count", "{long_text}", "a", "b", "x"], 2),
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_input_exits_with_its_code_and_no_traceback(tmp_path, case):
    """A cold ``python -m qocc.cli`` call, so that a traceback would reach stderr."""
    (tmp_path / "table.json").write_text("[1,2]", encoding="utf-8")
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe not utf-8")
    (tmp_path / "binary_dir").mkdir()
    (tmp_path / "binary_dir" / "doc.txt").write_bytes(b"caf\xe9")
    (tmp_path / "corpus.jsonl").write_text('{"id": "d1", "text": "a b"}\n[1, 2]\n', encoding="utf-8")
    huge = {"n_a": 10**160, "n_b": 10**160, "n_ab": 1, "n_ax": 1, "n_bx": 1, "n_abx": 1}
    (tmp_path / "huge.json").write_text(json.dumps(huge), encoding="utf-8")
    # json.loads refuses integers longer than sys.get_int_max_str_digits()
    long_int = json.dumps(huge).replace(str(10**160), "1" + "0" * 5000)
    (tmp_path / "long_int.json").write_text(long_int, encoding="utf-8")
    # json.loads recurses once per nesting level; the same line serves as a table and a corpus
    (tmp_path / "deep.json").write_text("[" * 100000 + "\n", encoding="utf-8")
    (tmp_path / "long_id.jsonl").write_text('{"id": 1%s, "text": "a b"}\n' % ("0" * 5000), encoding="utf-8")
    (tmp_path / "long_text.jsonl").write_text('{"id": "d1", "text": 1%s}\n' % ("0" * 5000), encoding="utf-8")
    paths = {
        "table": tmp_path / "table.json", "binary": tmp_path / "binary.txt",
        "binary_dir": tmp_path / "binary_dir", "jsonl": tmp_path / "corpus.jsonl",
        "huge": tmp_path / "huge.json", "long_int": tmp_path / "long_int.json",
        "deep": tmp_path / "deep.json", "long_id": tmp_path / "long_id.jsonl",
        "long_text": tmp_path / "long_text.jsonl",
    }
    argv, expected = MALFORMED_INPUTS[case]
    argv = [arg.format(**paths) for arg in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(qocc.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "qocc.cli", *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == expected
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(argv[0] + ": ") and done.stderr.count("\n") == 1
