"""JSON output pinned byte for byte.

``golden_json.txt`` holds one ``name<TAB>json.dumps(...)`` line per case,
recorded from the per-class ``to_json`` methods that ``Record.to_json`` and
``ExponentSequence.to_json`` replaced.  Between them the four reports use
every certificate kind.
"""
import json
import math
from pathlib import Path

import pytest

from nakanoseq import (
    AbsDiff,
    BlockRepeat,
    Complement,
    Const,
    Linear,
    Merge,
    NakanoExponent,
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

REPORT_PAIRS = [
    ("1 + 1/n", "n"),
    ("2", "2 + 1/n^0.5"),
    ("merge(even: 2, 3)", "3"),
    ("blocks", "blocks + recip(3 + 1/n^2)"),
]


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


@pytest.mark.parametrize("p, q", REPORT_PAIRS)
def test_report_json_is_pinned(p, q):
    js = full_report(parse_expression(p), parse_expression(q)).to_json()
    assert json.dumps(without_partial_sums(js)) == GOLDEN[f"report {p} | {q}"]


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
