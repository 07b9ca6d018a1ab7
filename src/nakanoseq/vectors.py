"""Finite-support vectors, the modular, and the Luxemburg norm.

The norm solves φ(r) = Σ_{finite exponents} |x_i/r|^{p_i} = 1 inside the
certified bracket [max|x_i|, Σ|x_i|]: the upper end satisfies φ ≤ 1 because
every |x_i|/Σ|x_j| ≤ 1 and p_i ≥ 1, the lower end satisfies φ ≥ 1 because one
term already contributes 1.  Coordinates with an infinite exponent contribute
a hard lower bound max|x_i| (the sup-norm on that part) instead of a φ term.

The solver works on numpy arrays of the support, rescaled by the power of two
that puts max|x_i| in [1/2, 1), so the rescaling is exact and nothing
overflows.  It runs Newton's method on g(s) = log φ(e^s): g is a log-sum-exp
of affine functions of s, hence convex and decreasing, so a Newton step from
either side lands at or left of the root, and from the left it climbs to the
root quadratically.  Each step is kept inside the bracket (lo, hi) with
φ(lo) > 1 ≥ φ(hi), which only evaluated φ values update: a step that leaves
the bracket falls back to the midpoint, and one that stalls within rounding
of an end walks 1, 2, 4, ... ulps from that end toward the other.
"""
from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable

import numpy as np

from .errors import NormComputationError, SemanticError
from .exponents import ExponentSequence
from .verdicts import Record

INF = math.inf

DEFAULT_REL_TOL = 1e-12
MAX_ITERATIONS = 200
_EXACT_INDEX_LIMIT = 2**53  # eval_range takes float64 indices, exact below this


@dataclass(frozen=True)
class SparseVector(Record):
    """Finite-support real sequence; zero entries are not stored."""

    entries: tuple[tuple[int, float], ...]  # ascending index

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, float]]) -> "SparseVector":
        acc: dict[int, float] = {}
        for pair in pairs:
            idx, val = _entry(pair)
            if idx < 1:
                raise SemanticError(f"vector index must be >= 1, got {idx}")
            if not math.isfinite(val):
                raise SemanticError(f"vector entries must be finite, got {val} at index {idx}")
            if idx in acc:
                raise SemanticError(f"duplicate vector index {idx}")
            if val != 0.0:
                acc[idx] = val
        return SparseVector(tuple(sorted(acc.items())))

    @staticmethod
    def from_json(obj) -> "SparseVector":
        if isinstance(obj, dict):
            obj = obj.get("entries")
        if not isinstance(obj, list):
            raise SemanticError('a vector is a list of [index, value] pairs, or {"entries": [...]}')
        return SparseVector.from_pairs(obj)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, idx: int) -> float:
        k = bisect.bisect_left(self.entries, idx, key=itemgetter(0))
        if k < len(self.entries) and self.entries[k][0] == idx:
            return self.entries[k][1]
        return 0.0

    def scale(self, factor: float) -> "SparseVector":
        return SparseVector.from_pairs((i, factor * v) for i, v in self.entries)

    def add(self, other: "SparseVector") -> "SparseVector":
        acc = dict(self.entries)
        for i, v in other.entries:
            acc[i] = acc.get(i, 0.0) + v
        return SparseVector.from_pairs(acc.items())

    def abs(self) -> "SparseVector":
        return SparseVector(tuple((i, abs(v)) for i, v in self.entries))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """|x_i| and the indices below 2**53 as read-only float64 arrays, and
        the indices from 2**53 on as exact ints; built on first use and kept
        in the instance dict, outside ``==``, ``hash`` and ``repr``."""
        entries = self.entries
        absx = np.abs(np.fromiter(map(itemgetter(1), entries), dtype=np.float64, count=len(entries)))
        cut = bisect.bisect_left(entries, _EXACT_INDEX_LIMIT, key=itemgetter(0))
        ns = np.fromiter(map(itemgetter(0), entries[:cut]), dtype=np.float64, count=cut)
        absx.flags.writeable = ns.flags.writeable = False
        return absx, ns, tuple(map(itemgetter(0), entries[cut:]))


def _entry(pair) -> tuple[int, float]:
    """(index, value) of one vector entry: an integral, finite, non-bool index
    and a real value."""
    try:
        idx, val = pair
    except (TypeError, ValueError):
        raise SemanticError(f"vector entries must be [index, value] pairs, got {pair!r}") from None
    if type(idx) is not int:
        integral = isinstance(idx, numbers.Integral) or (isinstance(idx, float) and idx.is_integer())
        if isinstance(idx, bool) or not integral:
            raise SemanticError(f"vector index must be an integer, got {idx!r}")
        idx = int(idx)
    if type(val) is not float:
        if isinstance(val, bool) or not isinstance(val, numbers.Real):
            raise SemanticError(f"vector value must be a real number, got {val!r} at index {idx}")
        try:
            val = float(val)
        except OverflowError:
            raise SemanticError(f"vector entry at index {idx} is beyond the float64 range") from None
    return idx, val


def basis_vector(index: int, value: float = 1.0) -> SparseVector:
    return SparseVector.from_pairs([(index, value)])


@dataclass(frozen=True)
class NormResult(Record):
    """A Luxemburg norm with its certificate.

    ``bracket`` is the final (lo, hi) with φ(lo) > 1 ≥ φ(hi), up to the
    rounding of φ; ``value`` is its admissible end hi.  When the largest
    entry alone fixes the norm (a single coordinate, or a binding sup-norm
    floor) the bracket is (value, value).  ``residual`` is |φ(value) − 1|,
    except when the sup-norm floor of the infinite-exponent coordinates
    binds, where it is φ(value) itself.  ``converged`` says whether the
    bracket's relative width is within ``rel_tol``.
    """

    value: float
    bracket: tuple[float, float]
    residual: float
    iterations: int
    converged: bool


def _support_arrays(p: ExponentSequence, x: SparseVector) -> tuple[np.ndarray, np.ndarray]:
    """|x_i| and p_i over the support of ``x``, as float64 arrays in index order."""
    absx, ns, big = x._arrays
    exps = p._eval_array(ns)
    if big:
        try:
            tail = [float(p.eval(i)) for i in big]
        except OverflowError:
            raise SemanticError("the exponent cannot be evaluated at a support index this large") from None
        exps = np.concatenate([exps, tail])
    return absx, exps


def modular(p: ExponentSequence, x: SparseVector) -> float:
    """ρ(x) = Σ |x_i|^{p_i}; an infinite exponent contributes 0 when |x_i| <= 1
    and ∞ otherwise."""
    absx, exps = _support_arrays(p, x)
    sup = exps == INF
    if (absx[sup] > 1.0).any():
        return INF
    with np.errstate(over="ignore"):
        return float(np.sum(absx[~sup] ** exps[~sup]))


def in_unit_ball(p: ExponentSequence, x: SparseVector) -> bool:
    """Modular unit ball membership, with a hair of slack for float powers."""
    return modular(p, x) <= 1.0 + 1e-12


def luxemburg_norm(p: ExponentSequence, x: SparseVector, rel_tol: float = DEFAULT_REL_TOL) -> NormResult:
    """inf { r > 0 : ρ(x/r) <= 1 }, bracketed to float resolution.

    The result is ``converged`` when the bracket's relative width is at most
    ``rel_tol``.  Raises ``SemanticError`` on an exponent below 1 (the
    bracket would not hold) and ``NormComputationError`` when the norm
    exceeds the float64 range.
    """
    if not (0.0 < rel_tol <= 1e-2):
        raise SemanticError(f"rel_tol must be in (0, 1e-2], got {rel_tol}")
    if not x.entries:
        return NormResult(0.0, (0.0, 0.0), 0.0, 0, True)

    absx, exps = _support_arrays(p, x)
    bad = np.flatnonzero(~(exps >= 1.0))
    if bad.size:
        i = bad[0]
        raise SemanticError(f"the Luxemburg norm needs exponents >= 1, got {exps[i]} at index {x.entries[i][0]}")
    sup = exps == INF
    if sup.all():
        inf_floor = float(absx.max())
        return NormResult(inf_floor, (inf_floor, inf_floor), 0.0, 0, True)

    # scale by a power of two: exact, and every scaled entry lies in [0, 1)
    shift = math.frexp(float(absx.max()))[1]
    scaled = np.ldexp(absx, -shift)
    floor = float(scaled[sup].max(initial=0.0))
    t, pe = scaled[~sup], exps[~sup]
    with np.errstate(divide="ignore"):
        log_t = np.log(t)  # an entry that underflowed to 0 gives -inf, so u_i = 0

    def phi(r: float) -> tuple[float, float]:
        """φ(r) and -r·φ'(r) = Σ p_i u_i, with u_i = (t_i/r)^{p_i}."""
        u = np.exp(pe * (log_t - math.log(r)))
        return float(u.sum()), float(pe @ u)

    lo = max(float(t.max()), floor)
    f, d = phi(lo)
    if f <= 1.0:
        # the sup-norm floor (or the single dominant coordinate) is binding
        value = math.ldexp(lo, shift)
        residual = f if floor >= lo and floor > 0 else abs(f - 1.0)
        return NormResult(value, (value, value), residual, 0, True)

    hi = float(t.sum()) + floor
    phi_hi = None  # φ(hi), once hi has been evaluated
    r, reach = lo, 1  # last evaluated point; ulps of the next walking step
    iterations = 0
    while iterations < MAX_ITERATIONS:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # float resolution exhausted
        # Newton on log φ; φ = 0 (every term underflowed) leaves only the midpoint
        c = r * math.exp(math.log(f) * f / d) if f > 0.0 else lo
        stalled = abs(c - r) <= 4 * math.ulp(r)
        if c >= hi or (stalled and r == hi):
            # the root is within rounding of hi: walk down from it
            c, reach = hi - reach * math.ulp(hi), 2 * reach
        elif stalled:
            # the root is within rounding of lo: walk up from it
            c, reach = lo + reach * math.ulp(lo), 2 * reach
        else:
            reach = 1
        if not lo < c < hi:
            c = mid
        f, d = phi(c)
        iterations += 1
        if f > 1.0:
            lo = c
        else:
            hi, phi_hi = c, f
        r = c

    if phi_hi is None:
        phi_hi = phi(hi)[0]
    converged = hi - lo <= rel_tol * lo
    try:
        bracket = (math.ldexp(lo, shift), math.ldexp(hi, shift))
    except OverflowError:
        raise NormComputationError("norm exceeds the float64 range") from None
    # hi is the admissible end of the bracket: φ(hi) <= 1
    return NormResult(bracket[1], bracket, abs(phi_hi - 1.0), iterations, converged)
