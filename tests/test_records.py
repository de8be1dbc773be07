"""The record contract: the package's ten records behave as frozen dataclasses did.

Each repr literal below was printed by the frozen dataclasses these records
replaced, on the same arguments.
"""
import copy
import pickle

import pytest

from qocc.context_model import FitResult, FitStrategy, ModelParams
from qocc.corpus import CountTable, Document, ProbabilityTriple, ThreeTermCounts, _Record
from qocc.fixtures import ContextExample, ExemplarRow
from qocc.interference import ExtensionClass, InterferenceInterval
from qocc.report import AnalysisReport

CELLS = {f"n{cell:03b}": 8 - cell for cell in range(7, -1, -1)}
PARAMS = {"p_a": 0.5, "p_b": 1.0, "c": 0.25, "c_prime": 0.75, "phi": 1.5, "phi_prime": 3.0}
PARAMS_REPR = "ModelParams(p_a=0.5, p_b=1.0, c=0.25, c_prime=0.75, phi=1.5, phi_prime=3.0)"
TABLE = {"n_a": 10, "n_b": 8, "n_ab": 5, "n_ax": 4, "n_bx": 3, "n_abx": 2}
TABLE_REPR = "CountTable(n_a=10, n_b=8, n_ab=5, n_ax=4, n_bx=3, n_abx=2)"
TRIPLE = {"mu_a": 0.4, "mu_b": 0.375, "mu_ab_observed": 0.4}
TRIPLE_REPR = "ProbabilityTriple(mu_a=0.4, mu_b=0.375, mu_ab_observed=0.4)"
INTERVAL = {"lo": 0.0, "hi": 0.5, "raw_lo": -0.125, "raw_hi": 0.5}
INTERVAL_REPR = "InterferenceInterval(lo=0.0, hi=0.5, raw_lo=-0.125, raw_hi=0.5)"
FIT = {"params": ModelParams(**PARAMS), "residual": 1e-12, "strategy": FitStrategy.OVEREXTENSION_BRANCH}
FIT_REPR = (
    f"FitResult(params={PARAMS_REPR}, residual=1e-12, "
    "strategy=<FitStrategy.OVEREXTENSION_BRANCH: 'overextension_branch'>)"
)

# (record class, its fields in order with values, the dataclass's repr of them)
RECORDS = [
    (Document, {"id": "d1", "tokens": ("apple", "pie", "apple")},
     "Document(id='d1', tokens=('apple', 'pie', 'apple'))"),
    (ThreeTermCounts, CELLS,
     "ThreeTermCounts(n111=1, n110=2, n101=3, n100=4, n011=5, n010=6, n001=7, n000=8)"),
    (CountTable, TABLE, TABLE_REPR),
    (ProbabilityTriple, TRIPLE, TRIPLE_REPR),
    (InterferenceInterval, INTERVAL, INTERVAL_REPR),
    (ModelParams, PARAMS, PARAMS_REPR),
    (FitResult, FIT, FIT_REPR),
    (AnalysisReport,
     {"table": CountTable(**TABLE), "triple": ProbabilityTriple(**TRIPLE),
      "extension": ExtensionClass.SINGLE_EXTENSION, "interference": InterferenceInterval(**INTERVAL),
      "interference_only_feasible": True, "context_only_feasible": False, "fit": FitResult(**FIT)},
     f"AnalysisReport(table={TABLE_REPR}, triple={TRIPLE_REPR}, "
     "extension=<ExtensionClass.SINGLE_EXTENSION: 'single_extension'>, "
     f"interference={INTERVAL_REPR}, interference_only_feasible=True, "
     f"context_only_feasible=False, fit={FIT_REPR})"),
    (ExemplarRow,
     {"name": "apple", "mu_a": 0.166, "mu_b": 0.236, "mu_ab": 0.271, "reported_lo": 0.102,
      "reported_hi": 0.334},
     "ExemplarRow(name='apple', mu_a=0.166, mu_b=0.236, mu_ab=0.271, reported_lo=0.102, "
     "reported_hi=0.334)"),
    (ContextExample,
     {"name": "olive", "p_a": 0.5, "p_b": 0.5, "c": 0.5, "c_prime": 0.5, "reported_lo": 0.0578,
      "reported_hi": 0.298},
     "ContextExample(name='olive', p_a=0.5, p_b=0.5, c=0.5, c_prime=0.5, reported_lo=0.0578, "
     "reported_hi=0.298)"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, literal", RECORDS, ids=IDS)
class TestRecordContract:
    def test_equal_fields_give_equal_records_and_hashes(self, cls, fields, literal):
        record = cls(*fields.values())
        same = cls(**fields)
        assert record == same and not record != same
        assert hash(record) == hash(same) == hash(tuple(fields.values()))
        assert [getattr(record, name) for name in fields] == list(fields.values())

    def test_unequal_to_other_classes_and_tuples(self, cls, fields, literal):
        record = cls(**fields)
        twin = type(cls.__name__, (cls,), {})(**fields)  # same fields, another class
        assert record != twin and not record == twin
        assert record != tuple(fields.values())
        assert record.__eq__(tuple(fields.values())) is NotImplemented

    def test_repr_is_the_dataclass_repr(self, cls, fields, literal):
        assert repr(cls(**fields)) == literal

    def test_fields_are_frozen(self, cls, fields, literal):
        record = cls(**fields)
        for name in [*fields, "extra"]:
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(record, name, 0)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(record, name)
        assert record == cls(**fields)

    @pytest.mark.parametrize("clone", [
        lambda record: pickle.loads(pickle.dumps(record)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_survives_pickle_and_copies(self, cls, fields, literal, clone):
        record = cls(**fields)
        twin = clone(record)
        assert type(twin) is cls
        assert twin == record and hash(twin) == hash(record) and repr(twin) == literal
        assert vars(twin) == vars(record)

    def test_missing_or_unknown_arguments_raise(self, cls, fields, literal):
        with pytest.raises(TypeError):
            cls(**fields, unknown=0)
        if cls is not ThreeTermCounts:
            with pytest.raises(TypeError):
                cls(*list(fields.values())[:-1])


def test_three_term_counts_default_to_zero():
    assert ThreeTermCounts() == ThreeTermCounts(0, 0, 0, 0, 0, 0, 0, 0)
    assert list(ThreeTermCounts(n101=3).as_dict().values()) == [0, 0, 3, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("cls, fields", [
    (ThreeTermCounts, CELLS), (CountTable, TABLE),
    (InterferenceInterval, INTERVAL), (ModelParams, PARAMS),
], ids=["ThreeTermCounts", "CountTable", "InterferenceInterval", "ModelParams"])
def test_as_dict_keeps_field_order(cls, fields):
    reordered = dict(reversed(fields.items()))
    assert list(cls(**reordered).as_dict().items()) == list(fields.items())


# every record but the two whose as_dict nests other records' dicts
FLAT = [(cls, fields) for cls, fields, _ in RECORDS if cls not in (FitResult, AnalysisReport)]


@pytest.mark.parametrize("cls, fields", FLAT, ids=[cls.__name__ for cls, _ in FLAT])
def test_as_dict_is_the_fields_in_order(cls, fields):
    assert list(cls(**fields).as_dict().items()) == list(fields.items())


class _Span(_Record):
    def __init__(self, start: int, stop: int = 0) -> None:
        span = self.__dict__
        span["start"] = start
        span["stop"] = max(start, stop)


class _ClosedSpan(_Span):
    pass


@pytest.mark.parametrize("cls, fields, literal", RECORDS, ids=IDS)
def test_fields_are_the_init_parameters_in_order(cls, fields, literal):
    assert cls._fields == tuple(fields)


def test_fields_are_the_parameters_not_the_locals():
    # a defaulted parameter is a field, a local variable is not
    assert _Span._fields == ("start", "stop")
    assert repr(_Span(3)) == "_Span(start=3, stop=3)"
    assert _Span(3) == _Span(3, 1) != _Span(3, 4)


def test_a_subclass_without_init_inherits_its_parents_fields():
    assert _ClosedSpan._fields == ("start", "stop")
    assert repr(_ClosedSpan(1, 2)) == "_ClosedSpan(start=1, stop=2)"
    assert _ClosedSpan(1, 2) != _Span(1, 2)
