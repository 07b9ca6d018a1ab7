"""Index subsets of the positive integers used to split sequence spaces.

Every set normalizes to a *periodic* form: a modulus, a residue set, and
finite exception lists.  That form is closed under complement (and, without
exceptions, under intersection), membership is O(1), and counting members in
a range is exact, which the series layer relies on for block-aggregated
partial sums.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

from .verdicts import encode


@dataclass(frozen=True)
class Periodic:
    """Normal form: {n >= 1 : n % modulus in residues}, plus/minus exceptions."""

    modulus: int
    residues: frozenset[int]
    plus: frozenset[int] = frozenset()
    minus: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        # keep exceptions genuinely exceptional
        plus = frozenset(n for n in self.plus if n % self.modulus not in self.residues)
        minus = frozenset(n for n in self.minus if n % self.modulus in self.residues)
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    def contains(self, n: int) -> bool:
        if n in self.plus:
            return True
        if n in self.minus:
            return False
        return n % self.modulus in self.residues

    def is_infinite(self) -> bool:
        return bool(self.residues)

    def complement(self) -> "Periodic":
        all_res = frozenset(range(self.modulus))
        return Periodic(self.modulus, all_res - self.residues, plus=self.minus, minus=self.plus)

    def intersect(self, other: "Periodic") -> "Periodic":
        """Intersection of two sets without exceptions (both ``plus`` and ``minus`` empty)."""
        m = math.lcm(self.modulus, other.modulus)
        residues = (r for r in range(m) if r % self.modulus in self.residues and r % other.modulus in other.residues)
        return Periodic(m, frozenset(residues))

    def first(self, count: int) -> list[int]:
        return list(itertools.islice(filter(self.contains, itertools.count(1)), count))

    def count_in_range(self, lo: int, hi: int) -> int:
        """Number of members n with lo <= n <= hi (exact, O(modulus))."""
        if hi < lo:
            return 0
        total = 0
        for r in self.residues:
            # count n in [lo, hi] with n % m == r
            first = lo + ((r - lo) % self.modulus)
            if first <= hi:
                total += (hi - first) // self.modulus + 1
        total += sum(1 for n in self.plus if lo <= n <= hi)
        total -= sum(1 for n in self.minus if lo <= n <= hi)
        return total

    def to_json(self) -> dict:
        """The modulus and the sorted residues, then ``plus`` and ``minus``, sorted, where non-empty."""
        extra = {name: sorted(v) for name, v in (("plus", self.plus), ("minus", self.minus)) if v}
        return {"modulus": self.modulus, "residues": sorted(self.residues), **extra}


_KINDS: dict[str, type] = {}  # JSON kind -> index set class


class IndexSet:
    """Abstract index set; concrete sets normalize through :meth:`periodic`.  Each
    class names its JSON kind, as ``Evens(IndexSet, kind="evens")``."""

    def __init_subclass__(cls, kind: str = "", **kwargs):
        super().__init_subclass__(**kwargs)
        cls.json_kind = kind
        _KINDS[kind] = cls

    def periodic(self) -> Periodic:
        raise NotImplementedError

    def first(self, count: int) -> list[int]:
        return self.periodic().first(count)

    def to_json(self) -> dict:
        """``{"kind": ...}``, then each field whose value differs from its default."""
        out = {"kind": self.json_kind}
        for f in fields(self):
            v = getattr(self, f.name)
            if v != f.default:
                out[f.name] = encode(v)
        return out


@dataclass(frozen=True)
class All(IndexSet, kind="all"):
    def periodic(self) -> Periodic:
        return Periodic(1, frozenset({0}))


@dataclass(frozen=True)
class Evens(IndexSet, kind="evens"):
    def periodic(self) -> Periodic:
        return Periodic(2, frozenset({0}))


@dataclass(frozen=True)
class Odds(IndexSet, kind="odds"):
    def periodic(self) -> Periodic:
        return Periodic(2, frozenset({1}))


@dataclass(frozen=True)
class Thinned(IndexSet, kind="thinned"):
    """Either every ``stride``-th index, or an explicit finite index list."""

    stride: int | None = None
    indices: tuple[int, ...] = ()

    def __post_init__(self):
        if self.stride is None and not self.indices:
            raise ValueError("Thinned needs a stride or an explicit index list")
        if self.stride is not None and self.stride < 1:
            raise ValueError("stride must be positive")
        object.__setattr__(self, "indices", tuple(sorted(set(self.indices))))

    def periodic(self) -> Periodic:
        if self.stride is not None:
            return Periodic(self.stride, frozenset({0}))
        return Periodic(1, frozenset(), plus=frozenset(self.indices))


@dataclass(frozen=True)
class Complement(IndexSet, kind="complement"):
    inner: IndexSet

    def periodic(self) -> Periodic:
        return self.inner.periodic().complement()


def complement(s: IndexSet) -> IndexSet:
    """Complement with Complement(Complement(S)) collapsing to S."""
    if isinstance(s, Complement):
        return s.inner
    return Complement(s)


def index_set_from_json(obj: dict) -> IndexSet:
    """Inverse of :meth:`IndexSet.to_json`; a complement goes through :func:`complement`."""
    kind = obj["kind"]
    if kind == "complement":
        return complement(index_set_from_json(obj["inner"]))
    if kind not in _KINDS:
        raise ValueError(f"unknown index set kind {kind!r}")
    cls = _KINDS[kind]
    return cls(**{f.name: obj[f.name] for f in fields(cls) if f.name in obj})
