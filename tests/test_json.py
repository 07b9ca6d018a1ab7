"""JSON output and verdict text pinned byte for byte.

``golden_json.txt`` holds one ``name<TAB>json.dumps(...)`` line per case,
recorded from the per-class ``to_json`` methods that ``Record.to_json``,
``ExponentSequence.to_json`` and ``IndexSet.to_json`` replaced, and one
``name<TAB>str(verdict)`` line per verdict of the four reports, recorded from
the per-class ``__str__`` methods that ``Record.__str__`` replaced.  Between
them the four reports use every certificate kind.
"""
import json
import math
import re
from pathlib import Path

import pytest

from nakanoseq import (
    AbsDiff,
    BlockRepeat,
    Complement,
    Const,
    Evens,
    GeometricComparison,
    Linear,
    Merge,
    NakanoExponent,
    Odds,
    Prefix,
    RationalDrift,
    Recip,
    RnOf,
    SparseVector,
    Sum,
    Thinned,
    full_report,
    parse_expression,
)
from nakanoseq._asymptotics import GapKind, GapResult
from nakanoseq.exponents import from_json
from nakanoseq.indexsets import All, Periodic, index_set_from_json
from nakanoseq.vectors import NormResult

INF = math.inf

GOLDEN = dict(
    line.rstrip("\n").split("\t", 1)
    for line in Path(__file__).with_name("golden_json.txt").read_text(encoding="utf-8").splitlines()
)

# all eleven descriptor kinds, with an infinite constant and an infinite override
DESCRIPTOR = Merge(
    Complement(Thinned(stride=3)),
    Prefix(((1, INF), (4, 2.5)), Sum(RationalDrift(2.0, -1.0, 0.5), Recip(BlockRepeat()))),
    NakanoExponent(AbsDiff(Linear(2.0, 1.0), Const(INF)), RnOf(Const(3.0), Linear(1.0, 0.0))),
)

INDEX_SETS = {
    "all": All(),
    "evens": Evens(),
    "odds": Odds(),
    "thinned stride": Thinned(stride=3),
    "thinned indices": Thinned(indices=(9, 2, 5)),
    "complement": Complement(Thinned(stride=4)),
}

REPORT_PAIRS = [
    ("1 + 1/n", "n"),
    ("2", "2 + 1/n^0.5"),
    ("merge(even: 2, 3)", "3"),
    ("blocks", "blocks + recip(3 + 1/n^2)"),
]

VERDICTS = (
    "inclusion_holds",
    "spaces_equal",
    "strictly_singular",
    "weakly_compact",
    "compact",
    "l_weakly_compact",
    "m_weakly_compact",
)


def without_partial_sums(obj):
    """``obj`` with each probe's partial sums blanked: they depend on the host's pow."""
    if isinstance(obj, dict):
        return {k: [[a, None] for a, _ in v] if k == "partial_sums" else without_partial_sums(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [without_partial_sums(x) for x in obj]
    return obj


def test_descriptor_json_is_pinned():
    assert json.dumps(DESCRIPTOR.to_json()) == GOLDEN["descriptor"]
    assert from_json(json.loads(GOLDEN["descriptor"])) == DESCRIPTOR


@pytest.mark.parametrize("name", INDEX_SETS)
def test_index_set_json_is_pinned(name):
    s = INDEX_SETS[name]
    assert json.dumps(s.to_json()) == GOLDEN[f"index_set {name}"]
    assert s.to_json() == json.loads(GOLDEN[f"index_set {name}"])  # lists, not tuples
    assert index_set_from_json(s.to_json()) == s


def test_index_set_json_collapses_a_double_complement():
    obj = {"kind": "complement", "inner": {"kind": "complement", "inner": {"kind": "odds"}}}
    assert index_set_from_json(obj) == Odds()


def test_periodic_json_writes_exceptions_only_when_present():
    assert Evens().periodic().to_json() == {"modulus": 2, "residues": [0]}
    per = Periodic(3, frozenset({2, 0}), plus=frozenset({7, 4}), minus=frozenset({3}))
    assert per.to_json() == {"modulus": 3, "residues": [0, 2], "plus": [4, 7], "minus": [3]}


def test_malformed_index_set_json_raises_value_error():
    with pytest.raises(ValueError, match="needs a stride or an explicit index list"):
        index_set_from_json({"kind": "thinned"})
    with pytest.raises(ValueError, match="unknown index set kind 'primes'"):
        index_set_from_json({"kind": "primes"})


@pytest.mark.parametrize("p, q", REPORT_PAIRS)
def test_report_json_is_pinned(p, q):
    js = full_report(parse_expression(p), parse_expression(q)).to_json()
    assert json.dumps(without_partial_sums(js)) == GOLDEN[f"report {p} | {q}"]


@pytest.mark.parametrize("p, q", REPORT_PAIRS)
def test_verdict_text_is_pinned(p, q):
    report = full_report(parse_expression(p), parse_expression(q))
    for name in VERDICTS:
        text = re.sub(r"(α=[^:]+: )[^,;]+", r"\1_", str(getattr(report, name)))  # blank probe sums
        assert text == GOLDEN[f"text {p} | {q} {name}"]


def test_certificate_without_statement_prints_its_repr():
    cert = GeometricComparison(0.5, 1.0, 3)
    assert str(cert) == repr(cert)


def test_report_pins_cover_every_certificate_kind():
    kinds = set()

    def walk(obj):
        if isinstance(obj, dict):
            kinds.add(obj.get("kind"))
            for v in obj.values():
                walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    for p, q in REPORT_PAIRS:
        walk(json.loads(GOLDEN[f"report {p} | {q}"]))
    assert kinds >= {
        "geometric_comparison",
        "p_series_comparison",
        "divergence_by_terms",
        "numeric_probe",
        "branch_certificates",
        "alpha_certificate",
        "profile_evidence",
        "gap_evidence",
        "remark",
    }


def test_norm_vector_and_gap_json_are_pinned():
    assert json.dumps(NormResult(1.5, (1.25, 1.5), 0.0, 3, True).to_json()) == GOLDEN["norm_result"]
    vec = SparseVector.from_pairs([(5, 0.25), (1, 3.0), (2, -1.5)])
    assert json.dumps(vec.to_json()) == GOLDEN["sparse_vector"]
    assert json.dumps(GapResult(GapKind.POSITIVE, 0.5, 3, "gap is constant").to_json()) == GOLDEN["gap_result"]


def test_record_json_holds_lists_not_tuples():
    # callers compare to_json() with ==, where a tuple is not a list
    js = NormResult(1.5, (1.25, 1.5), 0.0, 3, True).to_json()
    assert js["bracket"] == [1.25, 1.5]
    assert SparseVector.from_pairs([(1, 2.0)]).to_json() == {"entries": [[1, 2.0]]}
