"""Exact asymptotics for the closed descriptor family.

Strategy: push Merge and Prefix to the outside (both commute pointwise with
every combinator), so each remaining branch is a combinator tree over base
descriptors.  Every such branch collapses to a *generalized rational form*

    f(x) = (sum_i c_i x^{g_i}) / (sum_j d_j x^{g_j}),   real exponents,

in a single asymptotic variable: either n itself or the block value a_n.
The sums are exact (``PSum``: integer coefficients over one denominator, with
each descriptor constant read as the decimal it prints as, so 1.1 is 11/10),
so limits and eventual signs are exact, and every onset is the least index
from which an inequality built in the same sums holds, decided exactly by
``least_index``.  Floats leave only where a record prints an exact value.

Branches that mix n and a_n (e.g. |n - a_n|) have no closed form.  Each
has an exact enclosure of its limit points instead, formed by the same
combination rules at the corners of its operand branches' enclosures; the
verdicts that need a form answer Unknown on it.
"""
from __future__ import annotations

import enum
import itertools
import math
import sys
from dataclasses import dataclass, field, fields
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import exponents as E
from .errors import SemanticError
from .indexsets import Periodic
from .verdicts import Answer, Record, encode

INF = math.inf

PROFILE_TOL = Fraction(1, 10**9)
SAMPLE_HORIZON = 10**5


# --------------------------------------------------------------------------
# exact power sums and rational forms
# --------------------------------------------------------------------------


def _gsum(a, b):
    """a + b for exponents: a float while the float sum is exact (TwoSum), else a fraction."""
    if type(a) is float and type(b) is float:
        s = a + b
        if not (a - (s - (s - a))) + (b - (s - a)):
            return s
    return Fraction(a) + Fraction(b)


def _decimal(c: float):
    """A descriptor constant as the decimal it prints as (1.1 is 11/10); the float itself
    where that is its value, so that dyadic exponents keep their float sums."""
    if c == int(c) and abs(c) < 2**53:  # printed exactly
        return float(c)
    v = Fraction(repr(c))
    return c if (v.numerator, v.denominator) == c.as_integer_ratio() else v


def _sgn(v) -> int:
    return (v > 0) - (v < 0)


class PSum(NamedTuple):
    """The exact sum of m/den·x^g·(ln x)^l over its terms (g, l, m): integers m != 0 over one
    denominator den > 0, in descending (g, l) order.  Exponents are floats while their sums
    stay exact in floats, else fractions (``_gsum``)."""

    terms: tuple = ()
    den: int = 1

    @staticmethod
    def make(terms) -> "PSum":
        """The sum of c·x^g·(ln x)^l over (g, l, c), for rationals c (ints, fractions or floats)."""
        ratios = [(g, l, *c.as_integer_ratio()) for g, l, c in terms]
        k = math.lcm(*(d for *_, d in ratios))
        acc: dict = {}
        for g, l, n, d in ratios:
            acc[g, l] = acc.get((g, l), 0) + n * (k // d)
        return _psum(acc, k)

    def add(self, other: "PSum", sign: int = 1) -> "PSum":
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        acc = {(g, l): m * a for g, l, m in self.terms}
        for g, l, m in other.terms:
            acc[g, l] = acc.get((g, l), 0) + m * b
        return _psum(acc, den)

    def sub(self, other: "PSum") -> "PSum":
        return self.add(other, -1)

    def mul(self, other: "PSum") -> "PSum":
        if other == _ONE or self == _ONE:
            return self if other == _ONE else other
        acc: dict = {}
        for g, l, m in self.terms:
            for h, k, n in other.terms:
                key = (_gsum(g, h), l + k)
                acc[key] = acc.get(key, 0) + m * n
        return _psum(acc, self.den * other.den)

    def scale(self, r) -> "PSum":
        """r times the sum, for a rational r."""
        n, d = r.as_integer_ratio()
        return PSum(tuple((g, l, m * n) for g, l, m in self.terms) if n else (), self.den * d)

    def deriv(self) -> "PSum":
        """The derivative in x of a sum without ln x."""
        ratios = [(g, m, *g.as_integer_ratio()) for g, _, m in self.terms if g]
        k = math.lcm(*(q for *_, q in ratios))
        return _psum({(_gsum(g, -1.0), 0): m * p * (k // q) for g, m, p, q in ratios}, self.den * k)

    def eval(self, x: float) -> float:
        """The float value at x of a sum without ln x."""
        return sum(m / self.den * x**g for g, _, m in self.terms)

    @property
    def sign(self) -> int:
        """The eventual sign: that of the leading coefficient, 0 for the zero sum."""
        return _sgn(self.terms[0][2]) if self.terms else 0


def _psum(acc: dict, den: int) -> PSum:
    """The sum of m/den·x^g·(ln x)^l over acc's items ((g, l), m), in lowest terms."""
    k = math.gcd(den, *acc.values())
    return PSum(tuple(sorted(((g, l, m // k) for (g, l), m in acc.items() if m), reverse=True)), den // k)


_ONE = PSum(((0.0, 0, 1),))
_X = PSum(((1.0, 0, 1),))


class RForm(NamedTuple):
    """num/den for exact power sums without ln x."""

    num: PSum
    den: PSum = _ONE

    @staticmethod
    def const(c) -> "RForm":
        return RForm(PSum.make([(0.0, 0, c)]))

    @property
    def is_zero(self) -> bool:
        return not self.num.terms

    def add(self, o: "RForm", sign: int = 1) -> "RForm":
        return RForm(self.num.mul(o.den).add(o.num.mul(self.den), sign), self.den.mul(o.den))

    def sub(self, o: "RForm") -> "RForm":
        return self.add(o, -1)

    def mul(self, o: "RForm") -> "RForm":
        return RForm(self.num.mul(o.num), self.den.mul(o.den))

    def recip(self) -> "RForm":
        return RForm(self.den, self.num)

    def eval(self, x: float) -> float:
        d = self.den.eval(x)
        n = self.num.eval(x)
        if d == 0.0:
            return INF if n > 0 else (-INF if n < 0 else 0.0)
        return n / d

    def degree(self):
        """Exponent of the leading power (growth order)."""
        if self.is_zero:
            return -INF
        return _gsum(self.num.terms[0][0], -self.den.terms[0][0])

    def lead_coeff(self) -> Fraction:
        """The coefficient of the leading power, for a nonzero form."""
        return Fraction(self.num.terms[0][2] * self.den.den, self.den.terms[0][2] * self.num.den)

    def limit(self):
        """The exact limit as x -> +inf: a rational, a float where that is its value, or ±inf."""
        gamma = self.degree()
        if gamma > 0:
            return INF if self.num.sign == self.den.sign else -INF
        c = self.lead_coeff() if gamma == 0 else 0
        n, d = c.numerator, c.denominator
        return n / d if not d & (d - 1) and abs(n) < 2**53 and d < 2**1000 else c

    @property
    def sign(self) -> int:
        """The eventual sign of num/den."""
        return self.num.sign * self.den.sign

    def is_const(self, c) -> bool:
        return self.sub(RForm.const(c)).is_zero


# --------------------------------------------------------------------------
# claims: the least index from which a closed-form inequality holds
# --------------------------------------------------------------------------

_MAX_DIGITS = sys.int_info.default_max_str_digits  # str() and json.dumps print ints up to this many digits
_TOO_FAR = 10**_MAX_DIGITS  # the least index with more digits: onsets from here on are null

def _dec(v) -> Decimal:
    return Decimal(v) if type(v) is float else Decimal(v.numerator) / Decimal(v.denominator)


class Claim:
    """The claim s(x) >= 0 (> 0 when ``strict``) at integers x >= 1, where s is the sum of
    m·x^g·(ln x)^l over the terms (g, l, m) of an exact sum, its denominator dropped."""

    __slots__ = ("terms", "strict")

    def __init__(self, terms, strict: bool = False):
        self.terms, self.strict = terms, strict

    def sign(self, x: int) -> Optional[int]:
        """The exact sign of s(x): by integers at x = 1 or where every power is in Z/2, or in
        (1/b)Z at x = r^b, else from floats with an error bound or from decimal enclosures;
        None when none settles it."""
        terms = self.terms
        if x == 1:  # ln x = 0
            return _sgn(sum(m for _, l, m in terms if not l))
        if all(not l for _, l, _ in terms):  # s(x) = Σ m·x^(k/b)
            ratios = [(g.as_integer_ratio(), m) for g, _, m in terms]
            b = math.lcm(2, *(q for (_, q), _ in ratios))
            ks = [(p * (b // q), m) for (p, q), m in ratios]
            low = min((k for k, _ in ks), default=0)
            if b == 2:  # s(x)·x^(-low/2) = r0 + r1·√x
                r = [0, 0]
                for k, m in ks:
                    r[(k - low) % 2] += m * x ** ((k - low) // 2)
                s0, s1 = _sgn(r[0]), _sgn(r[1])
                d = r[0] * r[0] - r[1] * r[1] * x
                return s0 or s1 if not (s0 and s1) or s0 == s1 else (s0 if d > 0 else s1 if d < 0 else 0)
            if b < x.bit_length() and (r := _root(x, b)) ** b == x:  # s(x)·r^-low in integers
                return _sgn(sum(m * r ** (k - low) for k, m in ks))
        # floats, scaled by x^-t and by 2^-k: each term within (|e| + |t| + 16)·2^-49 of its value, + w for the cut
        u = math.log(x)
        k = max(0, max(abs(m).bit_length() for *_, m in terms) - 999)  # the coefficients cut to under 1000 bits
        fl = [(float(g) * u, l, m >> k) for g, l, m in terms]
        top, tot, err = max(e for e, _, _ in fl), 0.0, 0.0
        for e, l, m in fl:
            w = math.exp(e - top) * (u if l else 1.0)
            v = m * w
            tot += v
            err += abs(v) * (abs(e) + abs(top) + 16 + len(fl)) * 2.0**-49 + abs(m) * 2.0**-1000 + (w if k else 0.0)
        if abs(tot) > err:
            return _sgn(tot)
        # correctly rounded ln and exp: each term within (|y| + 12)·10^(1-prec) of its value
        prec = x.bit_length() * 3 // 10 + 30
        for prec in (prec, 2 * prec, 4 * prec, 8 * prec):
            with localcontext(prec=prec):
                lx = Decimal(x).ln()
                tot = err = Decimal(0)
                for g, l, m in terms:
                    y = _dec(g) * lx
                    v = m * y.exp() * (lx if l else 1)
                    tot, err = tot + v, err + abs(v) * (abs(y) + 12 + len(terms))
                if abs(tot) > 2 * err * Decimal(10) ** (1 - prec):
                    return _sgn(tot)
        return None

    def holds(self, x: int) -> bool:
        """Whether the claim holds at x; a sign that nothing settles counts as a failure."""
        s = self.sign(x)
        return s is not None and (s > 0 or (s == 0 and not self.strict))


def _estimate(terms, a: int, top: int) -> Optional[int]:
    """Where in (a, top] the sum with these terms changes sign, by bisection on u = ln x in
    floats; None where they overflow."""
    try:
        c = [(float(g - terms[0][0]), l, float(m)) for g, l, m in terms]
    except OverflowError:
        return None

    def side(u):
        return sum(m * math.exp(g * u) * u**l for g, l, m in c) > 0

    lo, hi = math.log(a), math.log(top)
    left = side(lo)
    while hi - lo > 4e-16 * hi and (hi > 700 or (hi - lo) * math.exp(hi) > 1):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if side(mid) == left else (lo, mid)
    return math.ceil(math.exp(hi)) if hi < 700 else None


def _first(pred, a: int, b: Optional[int], terms) -> Optional[int]:
    """The least x in (a, b] where ``pred`` holds, given that it fails at a, holds at b (b None:
    at every large x) and changes once in between, where the sum with ``terms`` changes sign;
    by galloping, from a float estimate once x is far, and bisection.  None when that x is
    past the printable range."""
    top, lo, hi, step = b or _TOO_FAR, a, None, 1
    while hi is None:
        x = min(lo + step, top)
        if pred(x):
            hi = x
        elif x == top:
            return None
        elif step == 16 and x < (g := _estimate(terms, x, top) or x) < top:
            if pred(g):  # gallop down from the estimate
                hi, step = g, 1
                while hi - step > x and pred(hi - step):
                    hi, step = hi - step, 2 * step
                lo = max(x, hi - step)
            else:
                lo, step = g, 1
        else:
            lo, step = x, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
    return hi


class _Undecided(Exception):
    """A sign that no enclosure settles, where a root must be located."""


def _changes(terms) -> int:
    return sum((a[2] > 0) != (b[2] > 0) for a, b in zip(terms, terms[1:]))


def _rolle(terms) -> tuple:
    """(x^-g·s)' for g the last exponent of s: where it keeps its sign, s is monotone up to x^g."""
    return PSum(tuple((_gsum(h, -terms[-1][0]), 0, m) for h, _, m in terms)).deriv().terms


def _cuts(terms, lo: int) -> list[int]:
    """Integers >= lo such that every real root past lo of the sum without ln x with these
    terms lies on one of them or between two of them at most 1 apart (by Laguerre's rule of
    signs and Rolle's theorem on x^-g·s)."""
    changes = _changes(terms)
    if not changes:
        return []
    q = Claim(terms)

    def sign(x):
        v = q.sign(x)
        if v is None:
            raise _Undecided
        return v

    pts = sorted({lo, *(_cuts(_rolle(terms), lo) if changes > 1 else ())})
    out, vals = set(pts), [sign(x) for x in pts] + [_sgn(terms[0][2])]
    for i, a in enumerate(pts):
        b = pts[i + 1] if i + 1 < len(pts) else None
        if vals[i] * vals[i + 1] < 0 and (b is None or b - a > 1):  # one root here
            t = _first(lambda x: sign(x) != vals[i], a, b, terms)
            if t is None:
                raise _Undecided
            out.update((t - 1, t))
    return sorted(out)


def _failures(q: Claim, lo: int):
    """The integer intervals (a, b) past lo where q fails, from the top down; b is None when
    it fails at arbitrarily large x or past the printable range."""
    terms = q.terms
    if not terms or terms[0][2] < 0:
        if q.strict or terms:
            yield lo, None
        return
    if all(m > 0 for *_, m in terms) and not terms[-1][1]:
        return  # no sign change: s > 0 at every x >= 1
    if len(terms) == 2 and not terms[0][1] and not terms[1][1]:  # m0·x^g0 >= −m1·x^g1: x^p >= R^q
        p, d = (Fraction(terms[0][0]) - Fraction(terms[1][0])).as_integer_ratio()
        a, b = Fraction(-terms[1][2], terms[0][2]).as_integer_ratio()
        if p + d * max(a.bit_length(), b.bit_length()) < 4 * _MAX_DIGITS:  # decided in integers
            need = a**d // b**d + 1 if q.strict else -(-(a**d) // b**d)
            t = _root(need, p)
            if t**p < need:
                t += 1
            if t > lo:
                yield lo, t - 1
            return
    pure = tuple((g, 0, m) for g, l, m in terms if not l)
    if len(pure) == len(terms):
        if _changes(terms) > 1 and Claim(terms[:1] + tuple(t for t in terms if t[2] < 0), q.strict).holds(lo):
            return  # so does this minorant with one sign change, x^-g0 times which increases
        cuts = _cuts(_rolle(terms), lo) if _changes(terms) > 1 else []
    else:  # s = A + B·ln x, and x·B²·(A/B + ln x)' = x(A'B − AB') + B²
        a, b = PSum(pure), PSum(tuple((g, 0, m) for g, l, m in terms if l))
        turn = a.deriv().mul(b).sub(a.mul(b.deriv()))
        cuts = _cuts(b.terms, lo) + _cuts(turn.mul(_X).add(b.mul(b)).terms, lo)
    pts = sorted({lo, *cuts})
    above = True  # q holds at every large x
    for i in range(len(pts) - 1, -1, -1):
        a, b = pts[i], (pts[i + 1] if i + 1 < len(pts) else None)
        here = q.holds(a)
        if not here:
            t = b if not above else _first(q.holds, a, b, terms)
            yield a, t and (t if not above else t - 1)
            if t is None:
                return
        elif not above:
            yield _first(lambda x: not q.holds(x), a, b, terms), b
        above = here


def _root(x: int, b: int) -> int:
    """The largest integer r >= 0 with r**b <= x."""
    if x < 2 or b == 1:
        return max(x, 0)
    r = 1 << -(-x.bit_length() // b)  # at least the root; Newton's steps descend to it
    while True:
        s = ((b - 1) * r + x // r ** (b - 1)) // b
        if s >= r:
            return r
        r = s


def block_onset(k: Optional[int]) -> Optional[int]:
    """The first index of block k, None when it has more than ``_MAX_DIGITS`` digits."""
    if k is None or (k > 2 and (k - 1) * math.log10(k - 1) > _MAX_DIGITS):
        return None
    n = E.block_start(k)
    return n if n < _TOO_FAR else None


def least_index(claims, var: Optional[str], floor: Optional[int], pset: Optional[Periodic] = None) -> Optional[int]:
    """The least index N >= ``floor`` such that every claim holds at x = n (``var`` n or None)
    or at x = a_n (``var`` a) for every index n >= N in ``pset`` (default: every index).

    The claims are decided exactly; a sign that no enclosure settles counts as a failure, so
    the onset can only come out later than the least one, never earlier.  None when ``floor``
    is None or no index of at most ``_MAX_DIGITS`` digits is one: the claim fails at
    arbitrarily large indices, its onset is too large to print, or a sign that places a root
    is settled by no enclosure.
    """
    if floor is None:
        return None
    block = var == VAR_A
    onset = floor
    try:
        for q in claims:
            start = floor
            for a, b in _failures(q, E.block_value(floor) if block else floor):
                if block and b is not None:
                    a, b = E.block_start(a), block_onset(b + 1)
                    b = b and b - 1
                if b is None:
                    return None
                m = max((b - (b - r) % pset.modulus for r in pset.residues), default=0) if pset else b
                if m >= max(a, floor):
                    start = m + 1
                    break
            onset = max(onset, start)
    except _Undecided:
        return None
    return onset if onset < _TOO_FAR else None


def _later(*onsets) -> Optional[int]:
    """The latest of some onsets, None (no printable index) when any is None."""
    return None if None in onsets else max(onsets)


def at(onset: Optional[int]) -> str:
    """An onset as statements print it; a null onset claims no index."""
    return str(onset) if onset is not None else "(no printable index)"


def form_claims(f: RForm, scale=1, extra=()) -> tuple[Claim, Claim]:
    """scale·f + extra >= 0, for a rational ``scale`` and terms ``extra`` (c·x^g·(ln x)^l as
    (g, l, c), c rational): the numerator scale·num + extra·den keeping the sign of den, and
    den keeping it strictly."""
    sd = f.den.sign
    sn = _sgn(scale) * sd
    if not extra and all(m * sn > 0 for *_, m in f.num.terms) and all(m * sd > 0 for *_, m in f.den.terms):
        return ()  # no coefficient sign change: both hold at every x >= 1
    den = f.den.scale(sd)
    num = f.num.scale(scale * sd)
    if extra:
        num = num.add(PSum.make(extra).mul(den))
    return Claim(num.terms), Claim(den.terms, strict=True)


def band_claims(f: RForm, centre, tol) -> tuple[Claim, Claim, Claim]:
    """|f − centre| <= tol, for rationals centre and tol: centre + tol − f >= 0 and
    f − centre + tol >= 0, and den keeping its sign strictly."""
    c = Fraction(centre)
    return form_claims(f, -1, ((0.0, 0, c + tol),)) + form_claims(f, 1, ((0.0, 0, tol - c),))[:1]


def gap_claim(f: RForm, eps) -> Claim:
    """|f| >= eps, for a rational eps: num² − eps²·den² >= 0 (an infinite value where den = 0
    meets it)."""
    num, den = f.num, f.den
    return Claim(num.mul(num).sub(den.mul(den).scale(eps).scale(eps)).terms)


# --------------------------------------------------------------------------
# closed forms: rational in n, rational in a_n, or identically infinite
# --------------------------------------------------------------------------

VAR_N = "n"
VAR_A = "a"


@dataclass(frozen=True)
class ClosedForm:
    """f(n) = form(x) for n >= onset, where x = n or x = a_n; or f ≡ ∞.  The
    onset is None when no printable index is one."""

    form: Optional[RForm]  # None means identically infinite
    var: Optional[str]  # None for constants
    onset: Optional[int] = 1

    @property
    def is_inf(self) -> bool:
        return self.form is None

    def limit(self):
        """The exact limit: a rational, or ±inf.  a_n -> inf along every infinite
        index set, so the variable limit transfers directly in both cases."""
        if self.is_inf:
            return INF
        return self.form.limit()

    def eval_x(self, x: float) -> float:
        return INF if self.is_inf else self.form.eval(x)


def _cf_inf(onset: Optional[int] = 1) -> ClosedForm:
    return ClosedForm(None, None, onset)


def _cf(form: RForm, var: Optional[str], onset: Optional[int] = 1) -> ClosedForm:
    if form.is_zero:
        var = None
    return ClosedForm(form, var, onset)


def _join_var(a: Optional[str], b: Optional[str]) -> tuple[bool, Optional[str]]:
    if a is None:
        return True, b
    if b is None or a == b:
        return True, a
    return False, None


_COMBINATORS = (E.AbsDiff, E.Sum, E.RnOf, E.NakanoExponent, E.Recip)
_OPERANDS = {cls: tuple(f.name for f in fields(cls)) for cls in _COMBINATORS}


def closed_form(core) -> ClosedForm:
    """Closed form of a base descriptor: a constant, a drift, a linear sequence or the blocks."""
    if isinstance(core, E.Const):
        if core.value == INF:
            return _cf_inf()
        return _cf(RForm.const(_decimal(core.value)), None)
    if isinstance(core, E.RationalDrift):
        if core.is_identically_one():
            return _cf(RForm.const(1), None)
        form = RForm(PSum.make([(0.0, 0, _decimal(core.limit)), (-_decimal(core.decay), 0, _decimal(core.coeff))]))
        # where the form is >= 1, the clamp is inactive; it is everywhere for coeff >= 0
        onset = least_index(form_claims(form, 1, ((0.0, 0, -1),)), VAR_N, 1) if core.coeff < 0 else 1
        return _cf(form, VAR_N, onset)
    if isinstance(core, E.Linear):
        return _cf(RForm(PSum.make([(1.0, 0, _decimal(core.slope)), (0.0, 0, _decimal(core.intercept))])), VAR_N)
    if isinstance(core, E.BlockRepeat):
        return _cf(RForm(_X), VAR_A)


def _combine_forms(kind, cfs: list) -> Optional[ClosedForm]:
    """Closed form of a ``kind`` combinator whose operands have the closed forms ``cfs``;
    for |p − q|, r_n and the Nakano exponent it holds from the least index on which the
    difference it is built from keeps its eventual sign."""
    if cfs[0] is None or cfs[-1] is None:  # one operand or two
        return None
    if kind is E.Recip:
        (cf,) = cfs
        if cf.is_inf:
            return _cf(RForm.const(0), None, cf.onset)
        if cf.form.is_zero:
            return _cf_inf(cf.onset)
        return _cf(cf.form.recip(), cf.var, cf.onset)

    a, b = cfs
    base = _later(a.onset, b.onset)
    if kind is E.RnOf:  # 1/r_n = 1/q_n − 1/p_n where positive, with 1/∞ = 0
        if not a.is_inf and a.form.is_zero:  # 1/q - 1/0 < 0, so r_n = ∞ as in eval
            return _cf_inf(base)
        x = RForm.const(0) if b.is_inf else b.form.recip()
        y = RForm.const(0) if a.is_inf else a.form.recip()
    elif a.is_inf and b.is_inf:
        return _cf(RForm.const(0), None, base) if kind is E.AbsDiff else _cf_inf(base)
    elif a.is_inf or b.is_inf:
        if kind is E.NakanoExponent:  # the finite side
            fin = b if a.is_inf else a
            return _cf(fin.form, fin.var, base)
        return _cf_inf(base)
    else:
        x, y = a.form, b.form
    ok, var = _join_var(a.var, b.var)
    if not ok:
        return None
    if kind is E.Sum:
        return _cf(x.add(y), var, base)

    d = x.sub(y)
    if d.is_zero:
        return _cf(RForm.const(0), None, base) if kind is E.AbsDiff else _cf_inf(base)
    sign = d.sign  # 0 only for a zero denominator: d is infinite
    if sign and var is not None:  # d keeps its sign from here on; a constant d keeps it everywhere
        base = least_index(form_claims(d, sign), var, base)
    if kind is E.RnOf:
        return _cf_inf(base) if sign < 0 else _cf(d.recip(), var, base)
    absd = d if sign >= 0 else RForm(d.num.scale(-1), d.den)
    if kind is E.AbsDiff:
        return _cf(absd, var, base)
    return _cf(x.mul(y).mul(absd.recip()), var, base)


# --------------------------------------------------------------------------
# limit enclosures and branch normalization (Merge/Prefix pushdown)
# --------------------------------------------------------------------------


def printed(v) -> float:
    """The float an exact value prints as: the nearest one, except that a value other than 1
    whose nearest float is 1 prints as 1's neighbour on its side.  A SemanticError past the
    float range, where no float prints it."""
    try:
        f = float(v)
    except OverflowError:
        raise SemanticError("an exact value lies beyond the float range") from None
    if f == 1.0 and v != 1:
        return math.nextafter(1.0, 2.0 if v > 1 else 0.0)
    return f


@dataclass(frozen=True)
class Bounds:
    """Certified enclosure of an extended-real quantity, with exact ends: rationals (floats
    where that is their value) or ±inf.  They print, and write to JSON, as ``printed`` gives."""

    lo: object
    hi: object

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("inverted bounds")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def to_json(self):
        return [encode(printed(self.lo)), encode(printed(self.hi))]

    def __str__(self):
        return f"[{_g(self.lo)}, {_g(self.hi)}]"


def _g(v) -> str:
    """An exact value printed to six digits, but in full where those read 1 and it is not 1."""
    f = printed(v)
    return repr(f) if f != 1.0 and f"{f:g}" == "1" else f"{f:g}"


def _enclosure(kind, ranges: list[Bounds]) -> Bounds:
    """An exact enclosure of the limit points of a ``kind`` combinator whose operands' limit
    points lie in ``ranges``.  Each combinator is monotone in each operand, |p − q| and the
    Nakano exponent wherever p − q keeps its sign, so its limits at the corners of the ranges
    bound it; where two ranges overlap, |p − q| reaches 0 and the Nakano exponent ∞.  A corner
    that is an indeterminate form (∞ − ∞ in |p − q|, both operands 0 in r_n or the Nakano
    exponent) leaves [0, ∞]."""
    corners = set(itertools.product(*((r.lo, r.hi) for r in ranges)))
    undefined = (INF, INF) if kind is E.AbsDiff else (0, 0)  # ∞ − ∞; 1/0 − 1/0 in r_n, 0/0 in pq/|p − q|
    if kind in (E.AbsDiff, E.RnOf, E.NakanoExponent) and undefined in corners:
        return Bounds(0, INF)
    consts = [[_cf_inf() if v == INF else _cf(RForm.const(v), None) for v in c] for c in corners]
    vals = [_combine_forms(kind, cfs).limit() for cfs in consts]
    lo, hi = min(vals), max(vals)
    if kind in (E.AbsDiff, E.NakanoExponent) and ranges[0].lo <= ranges[1].hi and ranges[1].lo <= ranges[0].hi:
        lo, hi = (0, hi) if kind is E.AbsDiff else (lo, INF)
    return Bounds(lo, hi)


@dataclass(frozen=True)
class Branch:
    pset: Periodic  # pure periodic set, exceptions folded into onset
    core: object  # Merge/Prefix-free ExponentSequence
    onset: int
    form: Optional[ClosedForm] = field(compare=False, repr=False)  # None where the branch mixes n and a_n
    parts: tuple = field(default=(), compare=False, repr=False)  # a combinator's operand branches

    @cached_property
    def limits(self) -> Bounds:
        """An exact enclosure of the branch's limit points: its form's limit, or where it has
        none, the enclosure of its combinator over its operand branches' enclosures."""
        if self.form is None:
            return _enclosure(type(self.core), [b.limits for b in self.parts])
        lim = self.form.limit()
        return Bounds(lim, lim)


_ALL = Periodic(1, frozenset({0}))


def _strip(per: Periodic) -> tuple[Periodic, int]:
    onset = 1
    if per.plus or per.minus:
        onset = max(per.plus | per.minus) + 1
    return Periodic(per.modulus, per.residues), onset


def _refine(operands: list[list[Branch]]) -> list[tuple[Periodic, tuple[Branch, ...], int]]:
    """Joint refinement of the operands' branches: (pset, parts, onset) for
    each infinite intersection, with one branch per operand in order."""
    joint = [(b.pset, (b,), b.onset) for b in operands[0]]
    for branches in operands[1:]:
        refined = []
        for pset, parts, onset in joint:
            for b in branches:
                ps = pset.intersect(b.pset)
                if ps.is_infinite():
                    refined.append((ps, parts + (b,), max(onset, b.onset)))
        joint = refined
    return joint


def _joint(kind, rows) -> list[Branch]:
    """The branches of a ``kind`` combinator over the refined ``rows`` of its
    operands; each closed form is combined from the operand branches' forms."""
    return [
        Branch(ps, kind(*[b.core for b in parts]), onset, _combine_forms(kind, [b.form for b in parts]), parts)
        for ps, parts, onset in rows
    ]


def normalize(seq) -> list[Branch]:
    """Infinite Merge-free branches covering all but finitely many indices."""

    def rec(s) -> list[Branch]:
        if isinstance(s, E.Prefix):
            bump = s.max_override() + 1
            return [Branch(b.pset, b.core, max(b.onset, bump), b.form, b.parts) for b in rec(s.tail)]
        if isinstance(s, E.Merge):
            per, p_onset = _strip(s.index_set.periodic())
            out = []
            for part, sub in ((per, s.on_set), (per.complement(), s.off_set)):
                for b in rec(sub):
                    ps = part.intersect(b.pset)
                    if ps.is_infinite():
                        out.append(Branch(ps, b.core, max(p_onset, b.onset), b.form, b.parts))
            return out
        if type(s) in _OPERANDS:
            return _joint(type(s), _refine([rec(getattr(s, name)) for name in _OPERANDS[type(s)]]))
        return [Branch(_ALL, s, 1, closed_form(s))]

    return [b for b in rec(seq) if b.pset.is_infinite()]


# --------------------------------------------------------------------------
# profiles
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticProfile(Record):
    liminf: Bounds
    limsup: Bounds
    bounded_above: Answer
    onset: int
    exact: bool
    sample_range: Optional[tuple[float, float]] = None  # non-certified estimate


class Analysis:
    """One descriptor's branches, each with its closed form; its profile is computed on first use."""

    def __init__(self, seq):
        self.seq, self.branches = seq, normalize(seq)

    @cached_property
    def profile(self) -> AsymptoticProfile:
        """Limit enclosures per branch; the onset is the least index from which every
        branch with a finite limit stays within ``PROFILE_TOL`` of it."""
        lims, onset = [b.limits for b in self.branches], 1
        for b, lim in zip(self.branches, lims):
            cf, b_onset = b.form, b.onset
            if cf is not None:
                b_onset = _later(b_onset, cf.onset)
                if lim.lo != INF and lim.lo != -INF and cf.var is not None:  # within PROFILE_TOL of the printed limit
                    b_onset = least_index(band_claims(cf.form, printed(lim.lo), PROFILE_TOL), cf.var, b_onset, b.pset)
            onset = _later(onset, b_onset)

        lo, hi = [x.lo for x in lims], [x.hi for x in lims]
        liminf = Bounds(min(lo, default=INF), min(hi, default=INF))
        limsup = Bounds(max(lo, default=-INF), max(hi, default=-INF))
        bounded = Answer.YES if limsup.hi < INF else Answer.NO if limsup.lo == INF else Answer.UNKNOWN
        exact = all(b.form is not None for b in self.branches)
        sample = None
        if not exact:
            with np.errstate(over="ignore"):  # an overflowing value is ∞, outside the sample
                vals = self.seq.eval_range(1, SAMPLE_HORIZON + 1)
            finite = vals[np.isfinite(vals)]
            if finite.size:
                sample = (float(finite.min()), float(finite.max()))
        return AsymptoticProfile(liminf, limsup, bounded, onset, exact, sample)


def profile(seq) -> AsymptoticProfile:
    """Certified liminf/limsup enclosures; exact on unmixed branches."""
    return Analysis(seq).profile


# --------------------------------------------------------------------------
# liminf of |p_n - q_n| and of the signed difference; the analysis of a pair
# --------------------------------------------------------------------------


class GapKind(enum.Enum):
    POSITIVE = "positive"
    ZERO = "zero"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class GapResult(Record):
    kind: GapKind
    epsilon: Optional[float] = None  # certified lower bound when POSITIVE
    onset: Optional[int] = None
    note: str = ""


class SignKind(enum.Enum):
    POSITIVE = "positive"  # liminf (p_n - q_n) > 0 on the branch
    ZERO = "zero"
    NEGATIVE = "negative"  # limsup (p_n - q_n) < 0 on the branch
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class BranchGap:
    """p_n − q_n on one row: its sign with ε and a note, and what the claims on
    it read: the difference's closed form d (None when infinite or undecided),
    its variable, and the row's floor and set.  ``start`` is the onset of
    p_n − q_n >= ε (<= −ε when negative) where that needs no claim."""

    kind: SignKind
    epsilon: Optional[float] = None
    note: str = ""
    d: Optional[RForm] = None
    var: Optional[str] = None
    floor: Optional[int] = 1
    pset: Optional[Periodic] = None
    start: Optional[int] = 1

    @cached_property
    def onset(self) -> Optional[int]:
        """The onset of p_n − q_n >= ε (<= −ε when negative)."""
        if self.d is None or self.epsilon is None:
            return self.start
        sign = 1 if self.kind is SignKind.POSITIVE else -1
        return least_index(form_claims(self.d, sign, ((0.0, 0, -self.epsilon),)), self.var, self.floor, self.pset)

    @property
    def abs_onset(self) -> Optional[int]:
        """For a vanishing gap: the onset of |p_n − q_n| = ±(p_n − q_n), its closed form."""
        if self.d is None or not self.d.sign:
            return self.floor
        return least_index(form_claims(self.d, self.d.sign), self.var, self.floor, self.pset)

    def abs_gap_onset(self, eps: float) -> Optional[int]:
        """The onset of |p_n − q_n| >= eps on the row."""
        if self.d is None:
            return self.floor
        return least_index((gap_claim(self.d, eps),), self.var, self.floor, self.pset)


def _branch_gap(row) -> BranchGap:
    """The gap on a row (pset, (p branch, q branch), onset): one subtraction, one
    sign, one margin, read by both gap verdicts."""
    pset, (pb, qb), onset = row
    a, b = pb.form, qb.form
    ok, var = (False, None) if a is None or b is None else _join_var(a.var, b.var)
    if not ok:
        return BranchGap(SignKind.UNKNOWN, note="branch mixes n and a_n", start=onset)
    base = _later(onset, a.onset, b.onset)
    if a.is_inf and b.is_inf:
        return BranchGap(SignKind.ZERO, None, "|p_n - q_n| -> 0", floor=base, start=onset)
    if a.is_inf or b.is_inf:
        kind, side = (SignKind.POSITIVE, a) if a.is_inf else (SignKind.NEGATIVE, b)
        return BranchGap(kind, 1.0, "gap is infinite", floor=base, start=_later(onset, side.onset))
    d = a.form.sub(b.form)
    limit = d.limit()
    if limit == 0:
        return BranchGap(SignKind.ZERO, None, "|p_n - q_n| -> 0", d, var, base, pset, base)
    kind, size = (SignKind.POSITIVE, limit) if limit > 0 else (SignKind.NEGATIVE, -limit)
    if size == INF:
        return BranchGap(kind, 0.5, "gap diverges", d, var, base, pset)
    eps = printed(size)
    if d.is_const(limit):  # ε the largest float at most the gap
        return BranchGap(kind, eps if eps <= size else math.nextafter(eps, 0.0), "gap is constant", d, var, base, pset)
    return BranchGap(kind, eps / 2.0, f"gap -> {eps:g}", d, var, base, pset)


class PairAnalysis:
    """What every verdict on a pair (p, q) reads: the analyses of p and of q,
    their joint rows (pset, (p branch, q branch), onset), and, each computed
    on first use, the branches of r_n and of the equality exponent over those
    rows, the gap on each row, and liminf |p_n − q_n|."""

    def __init__(self, p, q):
        self.p, self.q = Analysis(p), Analysis(q)
        self.rows = _refine([self.p.branches, self.q.branches])

    @cached_property
    def rn(self) -> list[Branch]:
        return _joint(E.RnOf, self.rows)

    @cached_property
    def nakano(self) -> list[Branch]:
        return _joint(E.NakanoExponent, self.rows)

    @cached_property
    def branch_gaps(self) -> list[BranchGap]:
        """Per row, the sign of liminf/limsup of p_n − q_n and the |p_n − q_n| claim."""
        return [_branch_gap(row) for row in self.rows]

    @cached_property
    def liminf_abs_gap(self) -> GapResult:
        """A positive gap holds |p_n − q_n| >= ε, the least margin of the rows, from the
        least index on which every row does; a vanishing one names the earliest onset of a
        row's |p_n − q_n| closed form."""
        gaps = self.branch_gaps
        zeros = [g for g in gaps if g.kind is SignKind.ZERO]
        if zeros:
            onsets = [g.abs_onset for g in zeros]
            first = min(range(len(zeros)), key=lambda i: (onsets[i] is None, onsets[i] or 0))
            return GapResult(GapKind.ZERO, onset=onsets[first], note=zeros[first].note)
        if gaps and all(g.kind is not SignKind.UNKNOWN for g in gaps):
            eps = min(g.epsilon for g in gaps)  # |p_n − q_n| >= eps on every row from the latest onset
            onset = _later(*(g.abs_gap_onset(eps) for g in gaps))
            return GapResult(GapKind.POSITIVE, eps, onset, "; ".join(sorted({g.note for g in gaps})))
        return GapResult(GapKind.UNKNOWN, note="; ".join(g.note for g in gaps if g.note))


def liminf_abs_gap(p, q) -> GapResult:
    """Three-valued comparison of liminf |p_n - q_n| against 0."""
    return PairAnalysis(p, q).liminf_abs_gap


def signed_liminf_gap(p, q) -> GapResult:
    """Liminf of the signed difference p_n - q_n compared against 0; a positive one holds
    p_n − q_n >= ε from the latest of the rows' onsets, each for its own margin."""
    gaps = PairAnalysis(p, q).branch_gaps
    if gaps and all(g.kind is SignKind.POSITIVE for g in gaps):
        eps, onset = min(g.epsilon for g in gaps), _later(*(g.onset for g in gaps))
        return GapResult(GapKind.POSITIVE, eps, onset, "p_n - q_n stays above a positive bound")
    if any(g.kind in (SignKind.ZERO, SignKind.NEGATIVE) for g in gaps):
        return GapResult(GapKind.ZERO, note="signed difference does not stay positive")
    return GapResult(GapKind.UNKNOWN)
