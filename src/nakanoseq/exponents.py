"""Symbolic exponent sequences n ↦ p_n ∈ [1, ∞] and their pointwise evaluation.

The family is deliberately closed: a handful of base descriptors plus derived
combinators.  Exact asymptotics (liminf, limsup, boundedness) are computable
on the whole family, which is what makes the classification layer able to
return certified answers instead of Unknown everywhere.

Conventions for extended values:

* ``1/∞ = 0`` and ``1/0 = ∞`` wherever a reciprocal appears.
* ``AbsDiff`` of two infinite values is 0 (those coordinates are identical).
* ``NakanoExponent(p, q)`` is ∞ where ``p == q`` (including both infinite);
  where exactly one of the two is infinite it equals the finite one, the
  limiting value of ``p·q/|p−q|``.
* ``RnOf(p, q)`` is ∞ where ``1/q − 1/p <= 0``.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import Field, dataclass, fields
from functools import cached_property

import numpy as np

from .errors import SemanticError
from .indexsets import IndexSet, Periodic, index_set_from_json
from .verdicts import Record

INF = math.inf
EVAL_BLOCK = 2**14  # indices per _eval_array call in eval_range: a block's temporaries stay in cache


# --------------------------------------------------------------------------
# the block sequence a_n: value j repeated j^j times
# --------------------------------------------------------------------------

_BLOCK_CUMS: list[int] = [1]  # _BLOCK_CUMS[j-1] = sum_{i<=j} i^i


def _block_cums(until: int = 0, blocks: int = 0) -> list[int]:
    """The cache, grown to cover index ``until`` and to hold ``blocks`` sums."""
    while _BLOCK_CUMS[-1] < until or len(_BLOCK_CUMS) < blocks:
        j = len(_BLOCK_CUMS) + 1
        _BLOCK_CUMS.append(_BLOCK_CUMS[-1] + j**j)
    return _BLOCK_CUMS


def block_value(n: int) -> int:
    """a_n = min{k : n <= sum_{j<=k} j^j}.  Exact for arbitrarily large n."""
    if n < 1:
        raise ValueError("index must be >= 1")
    cums = _block_cums(until=n)
    return bisect.bisect_left(cums, n) + 1


def block_start(k: int) -> int:
    """First index whose block value is k."""
    if k < 1:
        raise ValueError("block number must be >= 1")
    if k == 1:
        return 1
    return _block_cums(blocks=k - 1)[k - 2] + 1


def block_end(k: int) -> int:
    return block_start(k + 1) - 1


# --------------------------------------------------------------------------
# descriptors
# --------------------------------------------------------------------------


_KINDS: dict[str, type] = {}  # JSON kind -> descriptor class


class ExponentSequence(Record):
    """Immutable descriptor of a sequence n ↦ value in (0, ∞], written to JSON as a
    ``Record``.  Each class names its JSON kind, as ``Const(ExponentSequence,
    kind="const")``, registered in ``_KINDS``.

    The library reads values through :meth:`eval_range` (``_eval_array``).
    Scalar ``eval`` is the reference evaluator that the tests and the benchmark
    check the array path against, and the exact path for indices from 2**53 on."""

    def __init_subclass__(cls, kind: str = "", **kwargs):
        super().__init_subclass__(kind=kind, **kwargs)
        if kind:
            _KINDS[kind] = cls

    def eval_range(self, start: int, stop: int) -> np.ndarray:
        """Values at n = start..stop-1 as float64 (∞ allowed).

        Vectorized fast path, one ``_eval_array`` call per ``EVAL_BLOCK``
        indices, so memory is the output plus one block; indices must stay
        below 2**53.
        """
        if stop - start <= EVAL_BLOCK:
            return self._eval_array(np.arange(start, stop, dtype=np.float64))
        out = np.empty(stop - start)
        for lo in range(start, stop, EVAL_BLOCK):
            hi = min(lo + EVAL_BLOCK, stop)
            out[lo - start : hi - start] = self._eval_array(np.arange(lo, hi, dtype=np.float64))
        return out

    def __str__(self):
        from .dsl import print_expression

        return print_expression(self)


def _denum(x) -> float:
    return INF if x == "inf" else float(x)


def _field_from_json(f: Field, v):
    if f.type == "ExponentSequence":  # field annotations are strings in this module
        return from_json(v)
    if f.type == "IndexSet":
        return index_set_from_json(v)
    if isinstance(v, list):  # Prefix overrides
        return tuple((i, _denum(x)) for i, x in v)
    return _denum(v)


def _recip(v: float) -> float:
    """1/v with 1/∞ = 0 and 1/0 = ∞."""
    if v == INF:
        return 0.0
    if v == 0.0:
        return INF
    return 1.0 / v


@dataclass(frozen=True)
class Const(ExponentSequence, kind="const"):
    value: float

    def __post_init__(self):
        if not (self.value >= 1):
            raise SemanticError(f"constant exponent must be >= 1, got {self.value}")

    def eval(self, n):
        return self.value

    def _eval_array(self, ns):
        return np.full(ns.shape, self.value, dtype=np.float64)


@dataclass(frozen=True)
class RationalDrift(ExponentSequence, kind="rational_drift"):
    """n ↦ limit + coeff·n^(−decay), clamped below at 1."""

    limit: float
    coeff: float
    decay: float

    def __post_init__(self):
        if not (self.limit >= 1) or self.limit == INF:
            raise SemanticError(f"drift limit must be finite and >= 1, got {self.limit}")
        if not (self.decay > 0):
            raise SemanticError(f"drift decay must be > 0, got {self.decay}")

    def eval(self, n):
        return max(1.0, self.limit + self.coeff * n ** (-self.decay))

    def _eval_array(self, ns):
        return np.maximum(1.0, self.limit + self.coeff * ns ** (-self.decay))


    def is_identically_one(self) -> bool:
        return self.limit == 1.0 and self.coeff < 0


@dataclass(frozen=True)
class Linear(ExponentSequence, kind="linear"):
    slope: float
    intercept: float = 0.0

    def __post_init__(self):
        if not (self.slope > 0):
            raise SemanticError(f"linear slope must be > 0, got {self.slope}")
        if self.slope + self.intercept < 1:
            raise SemanticError("linear sequence must stay >= 1 from n = 1")

    def eval(self, n):
        return self.slope * n + self.intercept

    def _eval_array(self, ns):
        return self.slope * ns + self.intercept


@dataclass(frozen=True)
class BlockRepeat(ExponentSequence, kind="block_repeat"):
    """The block sequence: value j repeated j^j times, j = 1, 2, 3, ..."""

    def eval(self, n):
        return float(block_value(n))

    def _eval_array(self, ns):
        top = int(ns.max()) if ns.size else 1
        cums = _block_cums(until=top)
        k = bisect.bisect_left(cums, top) + 1  # a_top
        if k == 1 or ns.min() > cums[k - 2]:  # every index lies in block k
            return np.full(ns.shape, float(k))
        # only the sums up to the first one >= top matter; later ones can
        # exceed the float64 range once the cache has grown far
        return np.searchsorted(np.array(cums[:k], dtype=np.float64), ns, side="left").astype(np.float64) + 1.0


@dataclass(frozen=True)
class Prefix(ExponentSequence, kind="prefix"):
    """Finitely many explicit overrides in front of a tail descriptor."""

    overrides: tuple[tuple[int, float], ...]
    tail: ExponentSequence

    def __post_init__(self):
        seen = set()
        for idx, val in self.overrides:
            if idx < 1:
                raise SemanticError(f"override index must be >= 1, got {idx}")
            if idx in seen:
                raise SemanticError(f"duplicate override index {idx}")
            if not (val >= 1):
                raise SemanticError(f"override value must be >= 1, got {val}")
            seen.add(idx)
        object.__setattr__(self, "overrides", tuple((int(i), float(v)) for i, v in self.overrides))

    def eval(self, n):
        for idx, val in self.overrides:
            if idx == n:
                return val
        return self.tail.eval(n)

    def _eval_array(self, ns):
        out = self.tail._eval_array(ns)
        for idx, val in self.overrides:
            out[ns == idx] = val
        return out

    def max_override(self) -> int:
        return max(i for i, _ in self.overrides)


@dataclass(frozen=True)
class Merge(ExponentSequence, kind="merge"):
    """on_set where n is in the index set, off_set elsewhere."""

    index_set: IndexSet
    on_set: ExponentSequence
    off_set: ExponentSequence

    @cached_property
    def _plan(self) -> tuple[Periodic, bool, tuple[int, ...]]:
        """The periodic form, the mask's start value and the residues to toggle;
        built once and kept in the instance dict, outside ``==``, ``hash`` and ``repr``."""
        per = self.index_set.periodic()
        # toggle on the residues or on their complement, whichever is smaller;
        # no table with one entry per residue class, as a modulus can be 10^12
        flip = 2 * len(per.residues) > per.modulus
        return per, flip, tuple(set(range(per.modulus)) - per.residues if flip else per.residues)

    def eval(self, n):
        return self.on_set.eval(n) if self._plan[0].contains(n) else self.off_set.eval(n)

    def _eval_array(self, ns):
        per, flip, toggled = self._plan
        rem = ns.astype(np.int64) % per.modulus
        mask = np.full(ns.shape, flip)
        for r in toggled:
            mask ^= rem == r
        for n in per.plus:
            mask |= ns == n
        for n in per.minus:
            mask &= ns != n
        out = self.off_set._eval_array(ns)
        if mask.any():
            np.copyto(out, self.on_set._eval_array(ns), where=mask)
        return out


@dataclass(frozen=True)
class AbsDiff(ExponentSequence, kind="abs_diff"):
    left: ExponentSequence
    right: ExponentSequence

    def eval(self, n):
        a, b = self.left.eval(n), self.right.eval(n)
        if a == INF and b == INF:
            return 0.0
        return abs(a - b)

    def _eval_array(self, ns):
        a = self.left._eval_array(ns)
        b = self.right._eval_array(ns)
        with np.errstate(invalid="ignore"):
            out = np.abs(a - b)
        out[np.isnan(out)] = 0.0  # inf - inf
        return out


@dataclass(frozen=True)
class Sum(ExponentSequence, kind="sum"):
    left: ExponentSequence
    right: ExponentSequence

    def eval(self, n):
        return self.left.eval(n) + self.right.eval(n)

    def _eval_array(self, ns):
        return self.left._eval_array(ns) + self.right._eval_array(ns)


@dataclass(frozen=True)
class Recip(ExponentSequence, kind="recip"):
    """Pointwise reciprocal; maps [1, ∞] onto [0, 1]."""

    inner: ExponentSequence

    def eval(self, n):
        return _recip(self.inner.eval(n))

    def _eval_array(self, ns):
        v = self.inner._eval_array(ns)
        return np.divide(1.0, v, out=np.full(v.shape, INF), where=v != 0)  # 1/∞ = 0 in IEEE


@dataclass(frozen=True)
class RnOf(ExponentSequence, kind="rn_of"):
    """The complementary exponent r_n with 1/r_n = max(0, 1/q_n − 1/p_n)."""

    p: ExponentSequence
    q: ExponentSequence

    def eval(self, n):
        inv = _recip(self.q.eval(n)) - _recip(self.p.eval(n))
        if not inv > 0.0:  # ∞ - ∞ included, as in _eval_array
            return INF
        return 1.0 / inv

    def _eval_array(self, ns):
        with np.errstate(divide="ignore", invalid="ignore"):  # 1/0 = ∞; ∞ − ∞ is nan, not > 0
            inv = 1.0 / self.q._eval_array(ns)
            inv -= 1.0 / self.p._eval_array(ns)
            return np.divide(1.0, inv, out=np.full(inv.shape, INF), where=inv > 0)


@dataclass(frozen=True)
class NakanoExponent(ExponentSequence, kind="nakano_exponent"):
    """p_n·q_n/|p_n − q_n|; the series exponent in Nakano's Lemma."""

    p: ExponentSequence
    q: ExponentSequence

    def eval(self, n):
        pv, qv = self.p.eval(n), self.q.eval(n)
        if pv == qv:
            return INF
        if pv == INF:
            return qv
        if qv == INF:
            return pv
        return pv * qv / abs(pv - qv)

    def _eval_array(self, ns):
        pv = self.p._eval_array(ns)
        qv = self.q._eval_array(ns)
        with np.errstate(invalid="ignore", over="ignore"):  # the nan where one side is ∞ is overwritten below
            out = np.divide(pv * qv, np.abs(pv - qv), out=np.full(pv.shape, INF), where=pv != qv)
        np.copyto(out, qv, where=pv == INF)
        np.copyto(out, pv, where=qv == INF)
        return out


def from_json(obj: dict) -> ExponentSequence:
    cls = _KINDS.get(obj["kind"])
    if cls is None:
        raise ValueError(f"unknown descriptor kind {obj['kind']!r}")
    return cls(*(_field_from_json(f, obj[f.name]) for f in fields(cls)))


__all__ = [
    "ExponentSequence",
    "Const",
    "RationalDrift",
    "Linear",
    "BlockRepeat",
    "Prefix",
    "Merge",
    "AbsDiff",
    "Sum",
    "Recip",
    "RnOf",
    "NakanoExponent",
    "from_json",
    "block_value",
    "block_start",
    "block_end",
]
