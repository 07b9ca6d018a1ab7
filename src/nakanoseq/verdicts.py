"""Three-valued answers and cited verdicts, and ``Record``, the JSON writer
of every certificate, report and result record.

Every Yes/No verdict carries a citation string from the fixed anchor set
below; the strings are part of the stable JSON output contract.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
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


_PLAIN = frozenset({str, int, float, bool, type(None), list})  # written as they are: a list already holds JSON


class _Encoders(dict):
    """Type → the function that writes its values as JSON, chosen on first
    sight: records (anything with ``to_json``) by their own method, enums by
    value, tuples as lists, dicts value by value, and other values as they are."""

    def __missing__(self, t):
        if t is tuple:
            enc = _json_list
        elif t is dict:
            enc = _json_dict
        elif issubclass(t, enum.Enum):
            enc = attrgetter("_value_")
        else:
            enc = getattr(t, "to_json", None) or (lambda v: v)
        self[t] = enc
        return enc


_ENCODERS = _Encoders()


def _json_list(v) -> list:
    if _PLAIN.issuperset(map(type, v)):
        return list(v)
    return [x if type(x) in _PLAIN else _ENCODERS[type(x)](x) for x in v]


def _json_dict(v) -> dict:
    return {k: x if type(x) in _PLAIN else _ENCODERS[type(x)](x) for k, x in v.items()}


class Record:
    """Base of the dataclass records printed as JSON: ``to_json`` writes the fields in
    order, after ``"kind"`` when the class names one, as ``Remark(Record, kind="remark")``.
    ``str()`` is the record's ``statement`` when it has a non-empty one, else its repr."""

    def __init_subclass__(cls, kind=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.json_kind = kind

    def to_json(self) -> dict:
        kind = self.json_kind
        out = {"kind": kind} if kind else {}
        values = self.__dict__
        for name in self.__dataclass_fields__:
            v = values[name]
            out[name] = v if type(v) in _PLAIN else _ENCODERS[type(v)](v)
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
