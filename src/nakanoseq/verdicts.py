"""Three-valued answers and cited verdicts, and ``Record``, the JSON writer
of every descriptor, witness, certificate, report and result record.

Every Yes/No verdict carries a citation string from the fixed anchor set
below; the strings are part of the stable JSON output contract.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Optional


class Answer(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    def __bool__(self):
        raise TypeError("Answer is three-valued; compare explicitly")


# Anchors a cited verdict may reference.  Stable output contract.
NAKANO_LEMMA = "Prop 1.2 (Nakano's Lemma)"
LINF_COPY = "Prop 1.4"
INCLUSION_TEST = "Thm 1.3"
SS_BOUNDED = "Thm 2.1"
SS_UNBOUNDED_TARGET = "Thm 2.2"
SS_UNBOUNDED_SOURCE = "Thm 2.3"
WEAK_COMPACTNESS = "Prop 2.5"
CANONICAL_BASIS_REMARK = "§2-remark"

CITATION_ANCHORS = frozenset(
    {
        NAKANO_LEMMA,
        LINF_COPY,
        INCLUSION_TEST,
        SS_BOUNDED,
        SS_UNBOUNDED_TARGET,
        SS_UNBOUNDED_SOURCE,
        WEAK_COMPACTNESS,
        CANONICAL_BASIS_REMARK,
    }
)

# Anchors used by space profiles only (not part of the inclusion-report set).
SEPARABILITY_REMARK = "§1-remark"

NOT_APPLICABLE = "inclusion not established"


_SCALARS = frozenset({str, int, float, bool, type(None)})


def encode(v):
    """A value as JSON: records (anything with ``to_json``) by their own method, enums by
    value, tuples as lists, dicts value by value, a float ∞ as ``"inf"``, and anything else,
    a list included, as it is."""
    t = type(v)
    if t in _SCALARS:
        return "inf" if v == math.inf else v
    if t is tuple:
        return [encode(x) for x in v]
    if t is dict:
        return {k: encode(x) for k, x in v.items()}
    if isinstance(v, enum.Enum):
        return v._value_
    to_json = getattr(v, "to_json", None)
    return to_json() if to_json else v


class Record:
    """Base of the dataclass records printed as JSON: ``to_json`` writes the fields in
    order through ``encode``, after ``"kind"`` when the class names one, as
    ``Remark(Record, kind="remark")``.
    ``str()`` is the record's ``statement`` when it has a non-empty one, else its repr."""

    def __init_subclass__(cls, kind=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.json_kind = kind

    def to_json(self) -> dict:
        kind = self.json_kind
        out = {"kind": kind} if kind else {}
        values = self.__dict__
        for name in self.__dataclass_fields__:
            out[name] = encode(values[name])
        return out

    def __str__(self):
        return getattr(self, "statement", "") or repr(self)


@dataclass(frozen=True)
class Verdict(Record):
    """A three-valued answer plus the evidence and criterion anchor behind it.

    ``certificate`` is ``None`` only for verdicts that need no evidence;
    Yes/No verdicts from the series and criteria layers always attach one.
    """

    answer: Answer
    certificate: Optional[Any] = None
    citation: str = ""

    def __str__(self):
        label = {Answer.YES: "Yes", Answer.NO: "No", Answer.UNKNOWN: "Unknown"}[self.answer]
        parts = [label]
        if self.citation:
            parts.append(self.citation)
        if self.certificate is not None:
            parts.append(str(self.certificate))
        return " — ".join(parts)
