"""Exact asymptotics for the closed descriptor family.

Strategy: push Merge and Prefix to the outside (both commute pointwise with
every combinator), so each remaining branch is a combinator tree over base
descriptors.  Every such branch collapses to a *generalized rational form*

    f(x) = (sum_i c_i x^{g_i}) / (sum_j d_j x^{g_j}),   real exponents,

in a single asymptotic variable: either n itself or the block value a_n.
On that algebra limits, eventual signs and dominance onsets are computable
in closed form, with onsets certified by a leading-term bound and then
tightened backwards by direct evaluation.

Branches that mix n and a_n (e.g. |n - a_n|) fall back to interval
arithmetic over the argument profiles and yield honest Unknowns.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional

import numpy as np

from . import exponents as E
from .indexsets import Periodic
from .verdicts import Answer, Record

INF = math.inf

ONSET_CAP = 10**18
PROFILE_TOL = 1e-9
SAMPLE_HORIZON = 10**5


# --------------------------------------------------------------------------
# generalized power sums and rational forms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PSum:
    """sum_i coeff_i * x^{exp_i}; terms sorted by exponent descending."""

    terms: tuple[tuple[float, float], ...]  # (exponent, coeff)

    @staticmethod
    def make(pairs) -> "PSum":
        acc: dict[float, float] = {}
        for g, c in pairs:
            acc[g] = acc.get(g, 0.0) + c
        terms = tuple(sorted(((g, c) for g, c in acc.items() if c != 0.0), reverse=True))
        return PSum(terms)

    @staticmethod
    def const(c: float) -> "PSum":
        return PSum.make([(0.0, c)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def leading(self) -> tuple[float, float]:
        return self.terms[0]

    def add(self, other: "PSum") -> "PSum":
        return PSum.make(self.terms + other.terms)

    def neg(self) -> "PSum":
        return PSum(tuple((g, -c) for g, c in self.terms))

    def sub(self, other: "PSum") -> "PSum":
        return self.add(other.neg())

    def mul(self, other: "PSum") -> "PSum":
        return PSum.make([(g1 + g2, c1 * c2) for g1, c1 in self.terms for g2, c2 in other.terms])

    def eval(self, x: float) -> float:
        return sum(c * x**g for g, c in self.terms)

    def dominance_onset(self) -> int:
        """Smallest certified N with |tail| <= |lead|/2 for all x >= N.

        Beyond it, |self(x)| is within [1/2, 3/2] times |c0| x^{g0}.
        """
        if len(self.terms) <= 1:
            return 1
        g0, c0 = self.terms[0]
        g1 = self.terms[1][0]
        rest = sum(abs(c) for g, c in self.terms[1:])
        # |tail(x)| <= rest * x^{g1} for x >= 1; need rest*x^{g1} <= |c0| x^{g0} / 2
        try:
            x0 = (rest / (0.5 * abs(c0))) ** (1.0 / (g0 - g1))
        except OverflowError:
            return ONSET_CAP
        if not math.isfinite(x0):
            return ONSET_CAP
        return min(max(1, math.floor(x0) + 1), ONSET_CAP)

    def sign_onset(self) -> tuple[int, int]:
        """(eventual sign, certified onset).  Sign 0 only for the zero sum."""
        if self.is_zero:
            return 0, 1
        _, c0 = self.terms[0]
        return (1 if c0 > 0 else -1), self.dominance_onset()


@dataclass(frozen=True)
class RForm:
    num: PSum
    den: PSum

    @staticmethod
    def from_psum(p: PSum) -> "RForm":
        return RForm(p, PSum.const(1.0))

    @staticmethod
    def const(c: float) -> "RForm":
        return RForm.from_psum(PSum.const(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def add(self, o: "RForm") -> "RForm":
        return RForm(self.num.mul(o.den).add(o.num.mul(self.den)), self.den.mul(o.den))

    def sub(self, o: "RForm") -> "RForm":
        return RForm(self.num.mul(o.den).sub(o.num.mul(self.den)), self.den.mul(o.den))

    def mul(self, o: "RForm") -> "RForm":
        return RForm(self.num.mul(o.num), self.den.mul(o.den))

    def recip(self) -> "RForm":
        return RForm(self.den, self.num)

    def neg(self) -> "RForm":
        return RForm(self.num.neg(), self.den)

    def sub_scalar(self, c: float) -> "RForm":
        return self.sub(RForm.const(c))

    def eval(self, x: float) -> float:
        d = self.den.eval(x)
        n = self.num.eval(x)
        if d == 0.0:
            return INF if n > 0 else (-INF if n < 0 else 0.0)
        return n / d

    def limit(self) -> float:
        """Limit as x -> +inf (exact on this algebra)."""
        if self.num.is_zero:
            return 0.0
        gn, cn = self.num.leading
        gd, cd = self.den.leading
        gamma = gn - gd
        c = cn / cd
        if gamma > 0:
            return math.copysign(INF, c)
        if gamma == 0:
            return c
        return 0.0

    def degree(self) -> float:
        """Exponent of the leading power (growth order)."""
        if self.num.is_zero:
            return -INF
        return self.num.leading[0] - self.den.leading[0]

    def lead_coeff(self) -> float:
        if self.num.is_zero:
            return 0.0
        return self.num.leading[1] / self.den.leading[1]

    def sign_onset(self) -> tuple[int, int]:
        sn, on_n = self.num.sign_onset()
        sd, on_d = self.den.sign_onset()
        return sn * sd, max(on_n, on_d)

    def is_const(self, c: float) -> bool:
        return self.sub_scalar(c).is_zero

    def abs_decay_onset(self, limit: float, tol: float) -> int:
        """Certified N with |f(x) - limit| <= tol for all x >= N (finite limit)."""
        g = self.sub_scalar(limit)
        if g.is_zero:
            return 1
        on = max(g.num.dominance_onset(), g.den.dominance_onset())
        gamma = g.degree()
        c = abs(g.lead_coeff())
        if gamma >= 0:  # should not happen when `limit` really is the limit
            return ONSET_CAP
        # beyond `on`: |g(x)| <= 3*c*x^gamma (num within 1.5x lead, den above 0.5x lead)
        try:
            x0 = (3.0 * c / tol) ** (-1.0 / gamma)
        except OverflowError:
            return ONSET_CAP
        if not math.isfinite(x0):
            return ONSET_CAP
        return min(max(on, math.floor(x0) + 1), ONSET_CAP)


# --------------------------------------------------------------------------
# closed forms: rational in n, rational in a_n, or identically infinite
# --------------------------------------------------------------------------

VAR_N = "n"
VAR_A = "a"


@dataclass(frozen=True)
class ClosedForm:
    """f(n) = form(x) for n >= onset, where x = n or x = a_n; or f ≡ ∞."""

    form: Optional[RForm]  # None means identically infinite
    var: Optional[str]  # None for constants
    onset: int = 1

    @property
    def is_inf(self) -> bool:
        return self.form is None

    def limit(self) -> float:
        # a_n -> inf along every infinite index set, so the variable limit
        # transfers directly in both cases.
        if self.is_inf:
            return INF
        return self.form.limit()

    def eval_x(self, x: float) -> float:
        return INF if self.is_inf else self.form.eval(x)


def _onset_n(x_onset: int, var: Optional[str]) -> int:
    """Convert an onset in the asymptotic variable to an index onset.

    For block-variable forms the claim 'for all a_n >= k0' starts holding at
    the first index of block k0.
    """
    if var != VAR_A:
        return x_onset
    if x_onset > 300:  # block start would be astronomically large
        return ONSET_CAP
    return E.block_start(max(1, int(x_onset)))


def _cf_inf(onset: int = 1) -> ClosedForm:
    return ClosedForm(None, None, onset)


def _cf(form: RForm, var: Optional[str], onset: int = 1) -> ClosedForm:
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


def closed_form(core) -> Optional[ClosedForm]:
    """Closed form of a Merge/Prefix-free descriptor, or None when the
    branch mixes n and a_n."""
    if isinstance(core, E.Const):
        if core.value == INF:
            return _cf_inf()
        return _cf(RForm.const(core.value), None)
    if isinstance(core, E.RationalDrift):
        if core.is_identically_one():
            return _cf(RForm.const(1.0), None)
        form = RForm.from_psum(PSum.make([(0.0, core.limit), (-core.decay, core.coeff)]))
        return _cf(form, VAR_N, core.clamp_onset())
    if isinstance(core, E.Linear):
        return _cf(RForm.from_psum(PSum.make([(1.0, core.slope), (0.0, core.intercept)])), VAR_N)
    if isinstance(core, E.BlockRepeat):
        return _cf(RForm.from_psum(PSum.make([(1.0, 1.0)])), VAR_A)
    names = _OPERANDS.get(type(core))
    if names is None:
        return None  # Merge/Prefix must be normalized away first; unknown types opt out
    return _combine_forms(type(core), [closed_form(getattr(core, name)) for name in names])


def _combine_forms(kind, cfs: list) -> Optional[ClosedForm]:
    """Closed form of a ``kind`` combinator whose operands have the closed forms ``cfs``."""
    if cfs[0] is None or cfs[-1] is None:  # one operand or two
        return None
    if kind is E.Recip:
        (cf,) = cfs
        if cf.is_inf:
            return _cf(RForm.const(0.0), None, cf.onset)
        if cf.form.is_zero:
            return _cf_inf(cf.onset)
        return _cf(cf.form.recip(), cf.var, cf.onset)

    a, b = cfs
    base = max(a.onset, b.onset)
    if kind is E.RnOf:  # 1/r_n = 1/q_n − 1/p_n where positive, with 1/∞ = 0
        if not a.is_inf and a.form.is_zero:  # 1/q - 1/0 < 0, so r_n = ∞ as in eval
            return _cf_inf(base)
        x = RForm.const(0.0) if b.is_inf else b.form.recip()
        y = RForm.const(0.0) if a.is_inf else a.form.recip()
    elif a.is_inf and b.is_inf:
        return _cf(RForm.const(0.0), None, base) if kind is E.AbsDiff else _cf_inf(base)
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
        return _cf(RForm.const(0.0), None, base) if kind is E.AbsDiff else _cf_inf(base)
    sign, s_onset = d.sign_onset()
    onset = max(base, _onset_n(s_onset, var))
    if kind is E.RnOf:
        return _cf_inf(onset) if sign < 0 else _cf(d.recip(), var, onset)
    absd = d if sign >= 0 else d.neg()
    if kind is E.AbsDiff:
        return _cf(absd, var, onset)
    return _cf(x.mul(y).mul(absd.recip()), var, onset)


# --------------------------------------------------------------------------
# branch normalization (Merge/Prefix pushdown)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Branch:
    pset: Periodic  # pure periodic set, exceptions folded into onset
    core: object  # Merge/Prefix-free ExponentSequence
    onset: int
    form: Optional[ClosedForm] = field(compare=False, repr=False)  # closed_form(core)


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
        Branch(ps, kind(*[b.core for b in parts]), onset, _combine_forms(kind, [b.form for b in parts]))
        for ps, parts, onset in rows
    ]


def normalize(seq) -> list[Branch]:
    """Infinite Merge-free branches covering all but finitely many indices."""

    def rec(s) -> list[Branch]:
        if isinstance(s, E.Prefix):
            bump = s.max_override() + 1
            return [Branch(b.pset, b.core, max(b.onset, bump), b.form) for b in rec(s.tail)]
        if isinstance(s, E.Merge):
            per, p_onset = _strip(s.index_set.periodic())
            out = []
            for part, sub in ((per, s.on_set), (per.complement(), s.off_set)):
                for b in rec(sub):
                    ps = part.intersect(b.pset)
                    if ps.is_infinite():
                        out.append(Branch(ps, b.core, max(p_onset, b.onset), b.form))
            return out
        if type(s) in _OPERANDS:
            return _joint(type(s), _refine([rec(getattr(s, name)) for name in _OPERANDS[type(s)]]))
        return [Branch(_ALL, s, 1, closed_form(s))]

    return [b for b in rec(seq) if b.pset.is_infinite()]


# --------------------------------------------------------------------------
# profiles
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Bounds:
    """Certified enclosure of an extended-real quantity."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("inverted bounds")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @staticmethod
    def exactly(v: float) -> "Bounds":
        return Bounds(v, v)

    def to_json(self):
        return [E._num(self.lo), E._num(self.hi)]

    def __str__(self):
        return f"[{self.lo:g}, {self.hi:g}]"


@dataclass(frozen=True)
class AsymptoticProfile(Record):
    liminf: Bounds
    limsup: Bounds
    bounded_above: Answer
    onset: int
    exact: bool
    sample_range: Optional[tuple[float, float]] = None  # non-certified estimate


def _recip_bounds(a: Bounds) -> Bounds:
    """Enclosure of 1/x for x in ``a``, with 1/∞ = 0 and 1/0 = ∞."""
    lo = 0.0 if a.hi == INF else 1.0 / a.hi
    hi = INF if a.lo == 0.0 else (1.0 / a.lo if a.lo != INF else 0.0)
    return Bounds(min(lo, hi), max(lo, hi))


def _abs_diff_bounds(a: Bounds, b: Bounds) -> Bounds:
    """Enclosure of |x - y| for x in ``a``, y in ``b``, with ∞ - ∞ = 0."""
    if a.hi == INF and b.hi == INF:
        return Bounds(0.0, INF)
    hi = max(a.hi - b.lo, b.hi - a.lo, 0.0)
    lo = max(0.0, b.lo - a.hi, a.lo - b.hi)
    return Bounds(min(lo, hi), hi)


def _interval_range(core) -> Bounds:
    """Enclosure of all accumulation values of a Merge-free branch."""
    cf = closed_form(core)
    if cf is not None:
        return Bounds.exactly(cf.limit())
    kind = type(core)
    if kind not in _OPERANDS:
        return Bounds(0.0, INF)
    ranges = [_interval_range(getattr(core, name)) for name in _OPERANDS[kind]]
    if kind is E.Recip:
        return _recip_bounds(ranges[0])
    a, b = ranges
    if kind is E.AbsDiff:
        return _abs_diff_bounds(a, b)
    if kind is E.Sum:
        return Bounds(a.lo + b.lo, a.hi + b.hi)
    if kind is E.RnOf:
        inv_p, inv_q = _recip_bounds(a), _recip_bounds(b)
        d_hi = inv_q.hi - inv_p.lo
        d_lo = inv_q.lo - inv_p.hi
        if d_hi <= 0:
            return Bounds(INF, INF)
        lo = 1.0 / d_hi
        hi = INF if d_lo <= 0 else 1.0 / d_lo
        return Bounds(min(lo, hi), max(lo, hi))
    d = _abs_diff_bounds(a, b)  # NakanoExponent
    lo = 0.0 if d.hi == INF or d.hi == 0.0 else a.lo * b.lo / d.hi
    hi = INF if d.lo == 0.0 else a.hi * b.hi / d.lo
    return Bounds(min(lo, hi), max(lo, hi))


class Analysis:
    """One descriptor's branches, each with its closed form; its profile is computed on first use."""

    def __init__(self, seq):
        self.seq, self.branches = seq, normalize(seq)

    @cached_property
    def profile(self) -> AsymptoticProfile:
        lims, onset = [], 1
        for b in self.branches:
            cf = b.form
            if cf is None:
                lim, b_onset = _interval_range(b.core), b.onset
            else:
                val = cf.limit()
                lim, b_onset = Bounds.exactly(val), max(b.onset, cf.onset)
                if val != INF and val != -INF:
                    b_onset = max(b_onset, _onset_n(cf.form.abs_decay_onset(val, PROFILE_TOL), cf.var))
            lims.append(lim)
            onset = max(onset, b_onset)

        lo, hi = [x.lo for x in lims], [x.hi for x in lims]
        liminf = Bounds(min(lo, default=INF), min(hi, default=INF))
        limsup = Bounds(max(lo, default=-INF), max(hi, default=-INF))
        bounded = Answer.YES if limsup.hi < INF else Answer.NO if limsup.lo == INF else Answer.UNKNOWN
        exact = all(b.form is not None for b in self.branches)
        sample = None
        if not exact:
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


def _refine_onset(seq, onset: int, predicate) -> int:
    """Shrink a certified onset by checking the claim at up to 10^5 indices below it."""
    if onset <= 1 or onset > 10**6:
        return onset
    start = max(1, onset - 100_000)
    vals = seq.eval_range(start, onset)
    ok = predicate(vals)
    bad = np.nonzero(~ok)[0]
    if bad.size:
        return start + int(bad[-1]) + 1
    if start == 1:
        return 1
    return start  # window exhausted; keep the certified bound reached


class SignKind(enum.Enum):
    POSITIVE = "positive"  # liminf (p_n - q_n) > 0 on the branch
    ZERO = "zero"
    NEGATIVE = "negative"  # limsup (p_n - q_n) < 0 on the branch
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class BranchGap:
    """p_n − q_n on one row: its sign with ε and onset, and the onset and
    note of the matching claim on |p_n − q_n| (none when undecided)."""

    kind: SignKind
    epsilon: Optional[float] = None
    onset: int = 1
    abs_onset: Optional[int] = None
    note: str = ""


def _branch_gap(a: Optional[ClosedForm], b: Optional[ClosedForm], onset: int) -> BranchGap:
    """The gap on a row whose p and q have the closed forms ``a`` and ``b``:
    one subtraction, one sign, one margin, read by both gap verdicts."""
    ok, var = (False, None) if a is None or b is None else _join_var(a.var, b.var)
    if not ok:
        return BranchGap(SignKind.UNKNOWN, onset=onset, note="branch mixes n and a_n")
    base = max(onset, a.onset, b.onset)
    if a.is_inf and b.is_inf:
        return BranchGap(SignKind.ZERO, None, onset, base, "|p_n - q_n| -> 0")
    if a.is_inf or b.is_inf:
        kind, side = (SignKind.POSITIVE, a) if a.is_inf else (SignKind.NEGATIVE, b)
        return BranchGap(kind, 1.0, max(onset, side.onset), base, "gap is infinite")
    d = a.form.sub(b.form)
    limit = d.limit()
    abs_onset = base if d.is_zero else max(base, _onset_n(d.sign_onset()[1], var))  # |d| = ±d from there
    if limit == 0.0:
        return BranchGap(SignKind.ZERO, None, base, abs_onset, "|p_n - q_n| -> 0")
    kind, size = (SignKind.POSITIVE, limit) if limit > 0 else (SignKind.NEGATIVE, -limit)
    # |d| >= ε from m_onset: ε = 1/2 for an infinite limit, the limit for a constant d, else half of it
    eps = 0.5 if size == INF else (size if d.is_const(limit) else size / 2.0)
    m_onset = max(base, _onset_n((d if limit > 0 else d.neg()).sub_scalar(eps).sign_onset()[1], var))
    if eps == size:  # a constant gap holds wherever the branch's closed form does
        return BranchGap(kind, eps, m_onset, abs_onset, "gap is constant")
    note = "gap diverges" if size == INF else f"gap -> {size:g}"
    return BranchGap(kind, eps, m_onset, max(abs_onset, m_onset), note)


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
        return [_branch_gap(pb.form, qb.form, onset) for _, (pb, qb), onset in self.rows]

    @cached_property
    def liminf_abs_gap(self) -> GapResult:
        gaps = self.branch_gaps
        zeros = [g for g in gaps if g.kind is SignKind.ZERO]
        if zeros:
            first = min(zeros, key=lambda g: g.abs_onset)
            return GapResult(GapKind.ZERO, onset=first.abs_onset, note=first.note)
        if gaps and all(g.abs_onset is not None for g in gaps):
            eps, onset = min(g.epsilon for g in gaps), max(g.abs_onset for g in gaps)
            onset = _refine_onset(E.AbsDiff(self.p.seq, self.q.seq), onset, lambda vals: vals >= eps)
            return GapResult(GapKind.POSITIVE, eps, onset, "; ".join(sorted({g.note for g in gaps})))
        return GapResult(GapKind.UNKNOWN, note="; ".join(g.note for g in gaps if g.note))


def liminf_abs_gap(p, q) -> GapResult:
    """Three-valued comparison of liminf |p_n - q_n| against 0."""
    return PairAnalysis(p, q).liminf_abs_gap


def signed_liminf_gap(p, q) -> GapResult:
    """Liminf of the signed difference p_n - q_n compared against 0."""
    gaps = PairAnalysis(p, q).branch_gaps
    if gaps and all(g.kind is SignKind.POSITIVE for g in gaps):
        eps, onset = min(g.epsilon for g in gaps), max(g.onset for g in gaps)
        return GapResult(GapKind.POSITIVE, eps, onset, "p_n - q_n stays above a positive bound")
    if any(g.kind in (SignKind.ZERO, SignKind.NEGATIVE) for g in gaps):
        return GapResult(GapKind.ZERO, note="signed difference does not stay positive")
    return GapResult(GapKind.UNKNOWN)
