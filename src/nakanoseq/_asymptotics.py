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
from dataclasses import dataclass, fields
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

    def scale(self, s: float) -> "PSum":
        return PSum.make([(g, c * s) for g, c in self.terms])

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
    kind = type(core)
    names = _OPERANDS.get(kind)
    if names is None:
        return None  # Merge/Prefix must be normalized away first; unknown types opt out
    cfs = [closed_form(getattr(core, name)) for name in names]
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
    onset: int = 1


_ALL = Periodic(1, frozenset({0}))


def _strip(per: Periodic) -> tuple[Periodic, int]:
    onset = 1
    if per.plus or per.minus:
        onset = max(per.plus | per.minus) + 1
    return Periodic(per.modulus, per.residues), onset


def _refine(operands: list[list[Branch]]) -> list[tuple[Periodic, tuple, int]]:
    """Joint refinement of the operands' branches: (pset, cores, onset) for
    each infinite intersection, with one core per operand in order."""
    joint = [(b.pset, (b.core,), b.onset) for b in operands[0]]
    for branches in operands[1:]:
        refined = []
        for pset, cores, onset in joint:
            for b in branches:
                ps, o = _strip(pset.intersect(b.pset))
                if ps.is_infinite():
                    refined.append((ps, cores + (b.core,), max(o, onset, b.onset)))
        joint = refined
    return joint


def normalize(seq) -> list[Branch]:
    """Infinite Merge-free branches covering all but finitely many indices."""

    def rec(s) -> list[Branch]:
        if isinstance(s, E.Prefix):
            bump = s.max_override() + 1
            return [Branch(b.pset, b.core, max(b.onset, bump)) for b in rec(s.tail)]
        if isinstance(s, E.Merge):
            per, p_onset = _strip(s.index_set.periodic())
            out = []
            for part, sub in ((per, s.on_set), (per.complement(), s.off_set)):
                for b in rec(sub):
                    ps, o = _strip(part.intersect(b.pset))
                    if ps.is_infinite():
                        out.append(Branch(ps, b.core, max(o, p_onset, b.onset)))
            return out
        if type(s) in _OPERANDS:
            joint = _refine([rec(getattr(s, name)) for name in _OPERANDS[type(s)]])
            return [Branch(ps, type(s)(*cores), onset) for ps, cores, onset in joint]
        return [Branch(_ALL, s, 1)]

    return [b for b in rec(seq) if b.pset.is_infinite()]


def pair_branches(p, q) -> list[tuple[Periodic, object, object, int]]:
    """Common refinement of the branch decompositions of two descriptors."""
    return [(ps, pc, qc, onset) for ps, (pc, qc), onset in _refine([normalize(p), normalize(q)])]


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


def profile(seq) -> AsymptoticProfile:
    """Certified liminf/limsup enclosures; exact on unmixed branches."""
    liminf_lo = liminf_hi = INF
    limsup_lo = limsup_hi = -INF
    exact = True
    onset = 1
    any_unknown = False

    for b in normalize(seq):
        cf = closed_form(b.core)
        if cf is not None:
            val = cf.limit()
            b_onset = max(b.onset, cf.onset)
            if val != INF and val != -INF and not cf.is_inf:
                b_onset = max(b_onset, _onset_n(cf.form.abs_decay_onset(val, PROFILE_TOL), cf.var))
            lim = Bounds.exactly(val)
        else:
            lim = _interval_range(b.core)
            exact = False
            any_unknown = True
            b_onset = b.onset
        liminf_lo = min(liminf_lo, lim.lo)
        liminf_hi = min(liminf_hi, lim.hi)
        limsup_lo = max(limsup_lo, lim.lo)
        limsup_hi = max(limsup_hi, lim.hi)
        onset = max(onset, b_onset)

    liminf = Bounds(liminf_lo, liminf_hi)
    limsup = Bounds(limsup_lo, limsup_hi)
    if limsup.hi < INF:
        bounded = Answer.YES
    elif limsup.lo == INF:
        bounded = Answer.NO
    else:
        bounded = Answer.UNKNOWN

    sample = None
    if any_unknown:
        vals = seq.eval_range(1, SAMPLE_HORIZON + 1)
        finite = vals[np.isfinite(vals)]
        if finite.size:
            sample = (float(finite.min()), float(finite.max()))
    return AsymptoticProfile(liminf, limsup, bounded, onset, exact, sample)


# --------------------------------------------------------------------------
# liminf of |p_n - q_n| and of the signed difference
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


def _margin(form: RForm, limit: float) -> tuple[float, int]:
    """(ε, onset) with form(x) >= ε > 0 for x >= onset, given a positive
    limit: ε = 1/2 for an infinite limit, the limit itself for a constant
    form, half the limit otherwise.  The onset is in the form's variable."""
    eps = 0.5 if limit == INF else (limit if form.is_const(limit) else limit / 2.0)
    _, onset = form.sub_scalar(eps).sign_onset()
    return eps, onset


def _gap_of_cf(cf: ClosedForm, branch_onset: int) -> GapResult:
    if cf.is_inf:
        return GapResult(GapKind.POSITIVE, 1.0, max(branch_onset, cf.onset), "gap is infinite")
    limit = cf.limit()
    if limit == 0.0:
        return GapResult(GapKind.ZERO, onset=max(branch_onset, cf.onset), note="|p_n - q_n| -> 0")
    eps, s_onset = _margin(cf.form, limit)
    if eps == limit:  # a constant gap holds wherever the branch's closed form does
        return GapResult(GapKind.POSITIVE, eps, max(branch_onset, cf.onset), "gap is constant")
    note = "gap diverges" if limit == INF else f"gap -> {limit:g}"
    return GapResult(GapKind.POSITIVE, eps, max(branch_onset, cf.onset, _onset_n(s_onset, cf.var)), note)


def liminf_abs_gap(p, q) -> GapResult:
    """Three-valued comparison of liminf |p_n - q_n| against 0."""
    diff = E.AbsDiff(p, q)
    results = []
    for per, pc, qc, onset in pair_branches(p, q):
        cf = closed_form(E.AbsDiff(pc, qc))
        if cf is None:
            results.append(GapResult(GapKind.UNKNOWN, note="branch mixes n and a_n"))
        else:
            results.append(_gap_of_cf(cf, onset))

    if any(r.kind is GapKind.ZERO for r in results):
        zero = min((r for r in results if r.kind is GapKind.ZERO), key=lambda r: r.onset or 1)
        return zero
    if all(r.kind is GapKind.POSITIVE for r in results) and results:
        eps = min(r.epsilon for r in results)
        onset = max(r.onset for r in results)
        onset = _refine_onset(diff, onset, lambda vals: vals >= eps)
        return GapResult(GapKind.POSITIVE, eps, onset, "; ".join(sorted({r.note for r in results})))
    return GapResult(GapKind.UNKNOWN, note="; ".join(r.note for r in results if r.note))


class SignKind(enum.Enum):
    POSITIVE = "positive"  # liminf (p_n - q_n) > 0 on the branch
    ZERO = "zero"
    NEGATIVE = "negative"  # limsup (p_n - q_n) < 0 on the branch
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SignedBranchGap:
    pset: Periodic
    p_core: object
    q_core: object
    kind: SignKind
    epsilon: Optional[float] = None
    onset: int = 1


def signed_branch_gaps(p, q) -> list[SignedBranchGap]:
    """Per-branch classification of liminf/limsup of the signed difference."""
    out = []
    for per, pc, qc, onset in pair_branches(p, q):
        a, b = closed_form(pc), closed_form(qc)
        if a is None or b is None:
            out.append(SignedBranchGap(per, pc, qc, SignKind.UNKNOWN, onset=onset))
            continue
        if a.is_inf and b.is_inf:
            out.append(SignedBranchGap(per, pc, qc, SignKind.ZERO, onset=onset))
            continue
        if a.is_inf:
            out.append(SignedBranchGap(per, pc, qc, SignKind.POSITIVE, 1.0, max(onset, a.onset)))
            continue
        if b.is_inf:
            out.append(SignedBranchGap(per, pc, qc, SignKind.NEGATIVE, 1.0, max(onset, b.onset)))
            continue
        ok, var = _join_var(a.var, b.var)
        if not ok:
            out.append(SignedBranchGap(per, pc, qc, SignKind.UNKNOWN, onset=onset))
            continue
        d = a.form.sub(b.form)
        limit = d.limit()
        base = max(onset, a.onset, b.onset)
        if d.is_zero or limit == 0.0:
            out.append(SignedBranchGap(per, pc, qc, SignKind.ZERO, onset=base))
        else:
            kind = SignKind.POSITIVE if limit > 0 else SignKind.NEGATIVE
            eps, s_onset = _margin(d if limit > 0 else d.neg(), abs(limit))
            out.append(SignedBranchGap(per, pc, qc, kind, eps, max(base, _onset_n(s_onset, var))))
    return out


def signed_liminf_gap(p, q) -> GapResult:
    """Liminf of the signed difference p_n - q_n compared against 0."""
    gaps = signed_branch_gaps(p, q)
    if gaps and all(g.kind is SignKind.POSITIVE for g in gaps):
        return GapResult(
            GapKind.POSITIVE,
            min(g.epsilon for g in gaps),
            max(g.onset for g in gaps),
            "p_n - q_n stays above a positive bound",
        )
    if any(g.kind in (SignKind.ZERO, SignKind.NEGATIVE) for g in gaps):
        return GapResult(GapKind.ZERO, note="signed difference does not stay positive")
    return GapResult(GapKind.UNKNOWN)
