"""The package's result records: NamedTuples with the field names, the
`repr` text, the immutability and the value equality they had as frozen
dataclasses."""

import pytest

from machines import M_0STAR1, M_ONESTAR
from ordfa.dfa import Dfa, condense, trim
from ordfa.lexorder import analyze_chain
from ordfa.oracle import fuzz
from ordfa.ordtype import order_type
from ordfa.wellorder import check

_RAW = Dfa(delta=((0, 1), (2, 2), (2, 2), (1, 1)), start=0, finals=frozenset({1}))

RECORDS = [
    (
        lambda: check(M_0STAR1).witness,
        ("access", "loop", "tail", "state"),
        "Witness(access='', loop='', tail='', state=0)",
    ),
    (
        lambda: check(M_0STAR1),
        ("well_ordered", "witness"),
        "CheckResult(well_ordered=False, witness=Witness(access='', loop='', tail='', state=0))",
    ),
    (
        lambda: trim(_RAW),
        ("trimmed", "removed_unreachable", "merged_into_sink", "sink"),
        "TrimReport(trimmed=Dfa(delta=((0, 1), (2, 2), (2, 2)), start=0, "
        "finals=frozenset({1})), removed_unreachable=frozenset({3}), "
        "merged_into_sink=frozenset(), sink=2)",
    ),
    (
        lambda: order_type(M_ONESTAR),
        ("per_state", "start"),
        "OrderTypeTable(per_state=(Ordinal([0, 1]), Ordinal([])), start=0)",
    ),
    (
        lambda: condense(M_0STAR1),
        ("components", "height_of"),
        "Condensation(components=((2,), (1,), (0,)), height_of=(2, 1, 0))",
    ),
    (
        lambda: analyze_chain(["11", "10", "0"]),
        ("active", "sequence"),
        "ChainAnalysis(active=((1, 1), (0, 2)), sequence=((0, 2),))",
    ),
    (
        lambda: fuzz(1, 3).cases[0],
        ("key", "states", "verdict", "checks_passed", "first_failure"),
        "FuzzCase(key=0, states=1, verdict='well-ordered', checks_passed=5, "
        "first_failure=None)",
    ),
    (
        lambda: fuzz(1, 3),
        ("total", "well_ordered", "not_well_ordered", "failures", "first_failure_key", "cases"),
        "FuzzReport(total=1, well_ordered=1, not_well_ordered=0, failures=0, "
        "first_failure_key=None, cases=(FuzzCase(key=0, states=1, "
        "verdict='well-ordered', checks_passed=5, first_failure=None),))",
    ),
]


@pytest.mark.parametrize(
    "make, fields, text", RECORDS, ids=[text.split("(")[0] for _, _, text in RECORDS]
)
def test_record_keeps_its_fields_repr_immutability_and_value_equality(make, fields, text):
    record, twin = make(), make()
    assert type(record)._fields == fields
    assert repr(record) == text
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert record is not twin
    assert record == twin and hash(record) == hash(twin)
