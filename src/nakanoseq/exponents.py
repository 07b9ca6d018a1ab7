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
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import SemanticError
from .indexsets import IndexSet, index_set_from_json, index_set_to_json

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


class ExponentSequence:
    """Immutable descriptor of a sequence n ↦ value in (0, ∞]."""

    def eval(self, n: int) -> float:
        raise NotImplementedError

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

    def _eval_array(self, ns: np.ndarray) -> np.ndarray:
        return np.array([self.eval(int(n)) for n in ns], dtype=np.float64)

    def to_json(self) -> dict:
        raise NotImplementedError

    def __str__(self):
        from .dsl import print_expression

        return print_expression(self)


def _num(x: float) -> Union[float, str]:
    return "inf" if x == INF else x


def _denum(x) -> float:
    return INF if x == "inf" else float(x)


def _recip(v: float) -> float:
    """1/v with 1/∞ = 0 and 1/0 = ∞."""
    if v == INF:
        return 0.0
    if v == 0.0:
        return INF
    return 1.0 / v


@dataclass(frozen=True)
class Const(ExponentSequence):
    value: float

    def __post_init__(self):
        if not (self.value >= 1):
            raise SemanticError(f"constant exponent must be >= 1, got {self.value}")

    def eval(self, n):
        return self.value

    def _eval_array(self, ns):
        return np.full(ns.shape, self.value, dtype=np.float64)

    def to_json(self):
        return {"kind": "const", "value": _num(self.value)}


@dataclass(frozen=True)
class RationalDrift(ExponentSequence):
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

    def clamp_onset(self) -> int:
        """Index beyond which the clamp at 1 is inactive."""
        if self.coeff >= 0:
            return 1
        if self.limit == 1.0:
            return 1  # clamped everywhere: the sequence is identically 1
        n = (-self.coeff / (self.limit - 1)) ** (1.0 / self.decay)
        return max(1, math.ceil(n))

    def is_identically_one(self) -> bool:
        return self.limit == 1.0 and self.coeff < 0

    def to_json(self):
        return {"kind": "rational_drift", "limit": self.limit, "coeff": self.coeff, "decay": self.decay}


@dataclass(frozen=True)
class Linear(ExponentSequence):
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

    def to_json(self):
        return {"kind": "linear", "slope": self.slope, "intercept": self.intercept}


@dataclass(frozen=True)
class BlockRepeat(ExponentSequence):
    """The block sequence: value j repeated j^j times, j = 1, 2, 3, ..."""

    def eval(self, n):
        return float(block_value(n))

    def _eval_array(self, ns):
        top = int(ns.max()) if ns.size else 1
        cums = _block_cums(until=top)
        # only the sums up to the first one >= top matter; later ones can
        # exceed the float64 range once the cache has grown far
        arr = np.array(cums[: bisect.bisect_left(cums, top) + 1], dtype=np.float64)
        return np.searchsorted(arr, ns, side="left").astype(np.float64) + 1.0

    def to_json(self):
        return {"kind": "block_repeat"}


@dataclass(frozen=True)
class Prefix(ExponentSequence):
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

    def to_json(self):
        return {
            "kind": "prefix",
            "overrides": [[i, _num(v)] for i, v in self.overrides],
            "tail": self.tail.to_json(),
        }


@dataclass(frozen=True)
class Merge(ExponentSequence):
    """on_set where n is in the index set, off_set elsewhere."""

    index_set: IndexSet
    on_set: ExponentSequence
    off_set: ExponentSequence

    def eval(self, n):
        return self.on_set.eval(n) if self.index_set.contains(n) else self.off_set.eval(n)

    def _eval_array(self, ns):
        per = self.index_set.periodic()
        mask = np.isin(np.mod(ns.astype(np.int64), per.modulus), np.array(sorted(per.residues), dtype=np.int64))
        for n in per.plus:
            mask |= ns == n
        for n in per.minus:
            mask &= ns != n
        out = self.off_set._eval_array(ns)
        if mask.any():
            out[mask] = self.on_set._eval_array(ns)[mask]
        return out

    def to_json(self):
        return {
            "kind": "merge",
            "index_set": index_set_to_json(self.index_set),
            "on_set": self.on_set.to_json(),
            "off_set": self.off_set.to_json(),
        }


@dataclass(frozen=True)
class AbsDiff(ExponentSequence):
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

    def to_json(self):
        return {"kind": "abs_diff", "left": self.left.to_json(), "right": self.right.to_json()}


@dataclass(frozen=True)
class Sum(ExponentSequence):
    left: ExponentSequence
    right: ExponentSequence

    def eval(self, n):
        return self.left.eval(n) + self.right.eval(n)

    def _eval_array(self, ns):
        return self.left._eval_array(ns) + self.right._eval_array(ns)

    def to_json(self):
        return {"kind": "sum", "left": self.left.to_json(), "right": self.right.to_json()}


@dataclass(frozen=True)
class Recip(ExponentSequence):
    """Pointwise reciprocal; maps [1, ∞] onto [0, 1]."""

    inner: ExponentSequence

    def eval(self, n):
        return _recip(self.inner.eval(n))

    def _eval_array(self, ns):
        v = self.inner._eval_array(ns)
        return np.divide(1.0, v, out=np.full(v.shape, INF), where=v != 0)  # 1/∞ = 0 in IEEE

    def to_json(self):
        return {"kind": "recip", "inner": self.inner.to_json()}


@dataclass(frozen=True)
class RnOf(ExponentSequence):
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

    def to_json(self):
        return {"kind": "rn_of", "p": self.p.to_json(), "q": self.q.to_json()}


@dataclass(frozen=True)
class NakanoExponent(ExponentSequence):
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

    def to_json(self):
        return {"kind": "nakano_exponent", "p": self.p.to_json(), "q": self.q.to_json()}


def from_json(obj: dict) -> ExponentSequence:
    kind = obj["kind"]
    if kind == "const":
        return Const(_denum(obj["value"]))
    if kind == "rational_drift":
        return RationalDrift(obj["limit"], obj["coeff"], obj["decay"])
    if kind == "linear":
        return Linear(obj["slope"], obj["intercept"])
    if kind == "block_repeat":
        return BlockRepeat()
    if kind == "prefix":
        return Prefix(tuple((i, _denum(v)) for i, v in obj["overrides"]), from_json(obj["tail"]))
    if kind == "merge":
        return Merge(index_set_from_json(obj["index_set"]), from_json(obj["on_set"]), from_json(obj["off_set"]))
    if kind == "abs_diff":
        return AbsDiff(from_json(obj["left"]), from_json(obj["right"]))
    if kind == "sum":
        return Sum(from_json(obj["left"]), from_json(obj["right"]))
    if kind == "recip":
        return Recip(from_json(obj["inner"]))
    if kind == "rn_of":
        return RnOf(from_json(obj["p"]), from_json(obj["q"]))
    if kind == "nakano_exponent":
        return NakanoExponent(from_json(obj["p"]), from_json(obj["q"]))
    raise ValueError(f"unknown descriptor kind {kind!r}")


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
