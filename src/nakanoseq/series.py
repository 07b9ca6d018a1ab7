"""Certified three-valued convergence decisions for Σ α^{e_n}.

Two regimes are decidable on the descriptor family and both produce
checkable certificates:

* convergence — the exponent grows at least like a positive power of n
  (then α^{e_n} is eventually dominated by a geometric or p-series term),
  or, for block exponents f(a_n), the block totals k^k·α^{f(k)} are
  eventually dominated by 2^{-k};
* divergence — the exponent has a finite limit along an infinite index
  family (terms stay bounded away from zero), or it is a block form of
  growth order at most one, in which case the block totals do not vanish
  for any α (each block k contributes about k^k·α^{f(k)} ≥ 1 once k ≥ 1/α).

Everything in between is an honest Unknown with numeric probes attached.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional

import numpy as np

from . import exponents as E
from ._asymptotics import (
    Branch,
    Claim,
    ClosedForm,
    VAR_A,
    VAR_N,
    _later,
    at,
    block_onset,
    form_claims,
    least_index,
    normalize,
    printed,
)
from .errors import SemanticError
from .indexsets import Periodic
from .verdicts import Answer, INCLUSION_TEST, Record, Verdict

INF = math.inf

PROBE_HORIZON = 10**6
PROBE_ALPHAS = (0.5, 0.1, 0.01)
DIVERGENCE_THRESHOLD = 1e3


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricComparison(Record, kind="geometric_comparison"):
    """term(n) <= scale·ratio^n for n >= onset (per block k when per_block)."""

    ratio: float
    scale: float
    onset: int
    per_block: bool = False
    statement: str = ""


@dataclass(frozen=True)
class PSeriesComparison(Record, kind="p_series_comparison"):
    """term(n) <= scale·n^(−power) for n >= onset, power > 1."""

    scale: float
    power: float
    onset: int
    statement: str = ""


@dataclass(frozen=True)
class DivergenceByTerms(Record, kind="divergence_by_terms"):
    """Terms (or whole blocks) stay >= lower_bound on an infinite family."""

    lower_bound: float
    onset: int
    per_block: bool = False
    exponent_cap: Optional[float] = None  # e(n) <= cap on the family, when finite
    statement: str = ""


@dataclass(frozen=True)
class NumericProbe(Record, kind="numeric_probe"):
    """Non-certifying partial-sum evidence."""

    horizon: int
    partial_sums: tuple[tuple[float, float], ...]  # (alpha, partial sum)
    statement: str = ""

    def __str__(self):
        sums = ", ".join(f"α={a:g}: {s:.6g}" for a, s in self.partial_sums)
        text = f"partial sums to {self.horizon}: {sums}"
        return f"{self.statement}; {text}" if self.statement else text


@dataclass(frozen=True)
class BranchCertificates(Record, kind="branch_certificates"):
    """One certificate per infinite index-set branch of the series."""

    parts: tuple[tuple[Periodic, object], ...]  # (periodic set, certificate)

    def __str__(self):
        return "; ".join(str(cert) for _, cert in self.parts)


@dataclass(frozen=True)
class AlphaCertificate(Record, kind="alpha_certificate"):
    """Records the α realizing an existential convergence claim."""

    alpha: float
    inner: object
    statement: str = ""

    def __str__(self):
        base = f"α = {self.alpha:g}"
        return f"{base}; {self.inner}" if self.inner is not None else base


# --------------------------------------------------------------------------
# per-branch analysis
# --------------------------------------------------------------------------


def _ln(v: float, digits: int) -> tuple[Fraction, Fraction]:
    """Fractions below and above ln v: from ``math.log``, within an ulp (2^-52), up to 15
    digits, else from a correctly rounded decimal logarithm."""
    if digits <= 15:
        x, w = Fraction(math.log(v)), Fraction(2.0**-50)
    else:
        with localcontext(prec=digits):
            x, w = Fraction(Decimal(v).ln()), Fraction(1, 10 ** (digits - 2))
    return x - abs(x) * w, x + abs(x) * w


def _log_onset(form, alpha: float, sign: int, ln_terms=(), consts=(), floor: Optional[int] = 2) -> Optional[int]:
    """The least index from which sign·f(x)·|ln α| + Σ c·x^g·ln x over ``ln_terms`` (g, c) +
    Σ c·x^g·ln v over ``consts`` (g, c, v) >= 0 holds in x = n, for f = ``form`` >= 0.

    Each logarithm of a constant is enclosed, so that one claim implies this one and this
    one implies another: the onset N of the first is one, and it is the least where the
    other fails at N − 1; otherwise the enclosures narrow.  A tie, a zero at an integer
    x, needs ln x/ln α rational, so α = 2^-k and x a power of 2; where every v is a power
    of 2 too, the claim divided by |ln α| is decided exactly at the powers of 2^k, in
    logarithms to that base.  When no enclosure settles N − 1, N is still an onset."""
    k = round(-math.log2(alpha))
    ties = k >= 1 and alpha == 2.0**-k and all(math.log2(v).is_integer() for _, _, v in consts)
    digits = 15
    for _ in range(4):
        ln_a, ln_v = _ln(alpha, digits), {v: _ln(v, digits) for _, _, v in consts}  # ln α < 0

        def claims(end):  # end 0 takes the enclosures' ends that make the claim stronger
            ln = [(g, 0, c * ln_v[v][(c < 0) ^ end]) for g, c, v in consts]
            return form_claims(form, -sign * ln_a[(sign > 0) ^ end], [(g, 1, c) for g, c in ln_terms] + ln)

        num, den = claims(0)
        onset = least_index((num, den), VAR_N, floor)
        while ties and onset and onset > floor and (2**k) ** (j := round(math.log(onset - 1, 2**k))) == onset - 1:
            terms = [(g, 0, c * j) for g, c in ln_terms]  # log x = j at x = (2^k)^j, in logarithms to base 2^k
            terms += [(g, 0, c * Fraction(int(math.log2(v)), k)) for g, c, v in consts]
            exact = Claim(form_claims(form, sign, terms)[0].terms)
            if not (exact.holds(onset - 1) and den.holds(onset - 1)):
                break
            onset -= 1
        if not onset or onset <= floor or (claims(1)[0].sign(onset - 1) or 0) < 0 or not den.holds(onset - 1):
            break
        digits = 2 * digits + onset.bit_length() * 3 // 10
    return onset


def _n_convergence_cert(cf: ClosedForm, alpha: float, base_onset: int):
    """Comparison certificate for Σ α^{f(n)} when f is rational in n, f -> ∞: f(n) >= c·n
    (order >= 1) or f(n)·|ln α| >= 2·ln n (order < 1) from the least index on."""
    form = cf.form
    gamma = form.degree()
    floor = _later(base_onset, cf.onset)
    if gamma >= 1.0:  # c at most half the slope, and small enough that α^c is a positive normal float
        c = printed(min(form.lead_coeff() / 2 if gamma == 1 else 1, 1021 / -math.log2(alpha)))
        onset = least_index(form_claims(form, 1, ((1.0, 0, -c),)), VAR_N, floor)
        ratio = alpha**c
        return GeometricComparison(
            ratio, 1.0, onset, statement=f"exponent >= {c:g}·n from n = {at(onset)}, so terms <= ({ratio:g})^n"
        )
    # 0 < gamma < 1: f(n)·|ln α| >= 2·ln n makes the terms at most n^-2
    onset = _log_onset(form, alpha, 1, ((0.0, -2),), floor=floor)
    return PSeriesComparison(
        1.0, 2.0, onset, statement=f"exponent >= 2·ln n/|ln α| from n = {at(onset)}, so terms <= n^-2"
    )


def _block_convergence_cert(cf: ClosedForm, alpha: float, base_onset: int):
    """Block totals k^k·α^{f(k)} <= 2^{-k} for f rational in a_n of order > 1:
    f(k)·|ln α| >= k·ln k + k·ln 2 from block k0 >= 2 on."""
    k0 = _log_onset(cf.form, alpha, 1, ((1.0, -1),), ((1.0, -1, 2.0),))
    n_onset = _later(block_onset(k0), base_onset, cf.onset)
    index = f" (index {n_onset})" if n_onset is not None else ""
    return GeometricComparison(
        0.5,
        1.0,
        k0,
        per_block=True,
        statement=f"block totals k^k·α^f(k) <= 2^-k from block {at(k0)}{index}",
    )


def _block_divergence_cert(cf: ClosedForm, alpha: float, pset: Periodic):
    """Block totals stay >= 1 from some block on, for every α: the block
    exponent has growth order <= 1.  Block k has k^k indices, at least
    k^k/(2m) of them in a proper subset, so k·ln k >= |ln α|·f(k) + ln(2m)
    suffices there, and k·ln k >= |ln α|·f(k) on every index."""
    m = max(1, pset.modulus // max(1, len(pset.residues)))
    slack = ((0.0, -1, 2.0 * m),) if len(pset.residues) < pset.modulus else ()
    k0 = _log_onset(cf.form, alpha, -1, ((1.0, 1),), slack)
    return DivergenceByTerms(
        1.0,
        k0,
        per_block=True,
        statement=f"for every α in (0,1) the block totals eventually stay >= 1; at α = {alpha:g} from block {at(k0)}",
    )


def _bounded_divergence_cert(cf: ClosedForm, alpha: Optional[float], base_onset: int):
    """Exponent has a finite limit on the branch, so terms never vanish: it stays at most
    the limit + 1 from the least index on."""
    cap = printed(cf.limit()) + 1.0
    onset = _later(base_onset, cf.onset)
    if cf.var is not None:  # a constant exponent stays below its cap everywhere
        onset = least_index(form_claims(cf.form, -1, ((0.0, 0, cap),)), cf.var, onset)
    ref = alpha if alpha is not None else 0.5
    scope = f"α = {alpha:g}" if alpha is not None else "every α in (0,1)"
    return DivergenceByTerms(
        ref**cap,
        onset,
        exponent_cap=cap,
        statement=f"exponent <= {cap:g} on an infinite index family from {at(onset)}; for {scope} terms >= α^{cap:g}",
    )


def _trivial_yes_cert(onset: int):
    return GeometricComparison(
        0.5, 0.0, onset, statement=f"all exponents infinite from index {at(onset)}; only finitely many nonzero terms"
    )


def decide_branch(branch: Branch, alpha: Optional[float]) -> tuple[Answer, object]:
    """(answer, certificate) for Σ_{branch} α^{e_n} < ∞; ``alpha=None`` asks
    whether some α ∈ (0,1) makes it converge.

    Any α works in the convergent regimes here, so the ∃α question is
    certified at α = 1/2.
    """
    cf = branch.form
    if cf is None:
        return Answer.UNKNOWN, None
    if cf.is_inf:
        return Answer.YES, _trivial_yes_cert(_later(branch.onset, cf.onset))
    limit = cf.limit()
    if limit < 0:
        raise SemanticError("series exponent is certified negative; terms would not be in (0, ∞]")
    if limit != INF:
        return Answer.NO, _bounded_divergence_cert(cf, alpha, branch.onset)
    if alpha is None:
        alpha = 0.5
    if cf.var in (None, VAR_N):
        return Answer.YES, _n_convergence_cert(cf, alpha, branch.onset)
    # block variable
    if cf.form.degree() > 1.0:
        return Answer.YES, _block_convergence_cert(cf, alpha, branch.onset)
    return Answer.NO, _block_divergence_cert(cf, alpha, branch.pset)


# --------------------------------------------------------------------------
# public decisions
# --------------------------------------------------------------------------


def _combine(branches: list[Branch], alpha: Optional[float], probe) -> Verdict:
    """Decide every branch: one No decides, all Yes decide, anything else is
    Unknown with ``probe()`` attached."""
    parts = [(b.pset, *decide_branch(b, alpha)) for b in branches]
    for _, ans, cert in parts:
        if ans is Answer.NO:
            return Verdict(Answer.NO, cert)
    if parts and all(ans is Answer.YES for _, ans, _ in parts):
        if len(parts) == 1:
            return Verdict(Answer.YES, parts[0][2])
        return Verdict(Answer.YES, BranchCertificates(tuple((p, c) for p, _, c in parts)))
    return Verdict(Answer.UNKNOWN, probe())


def decide_convergence(alpha: float, exponent: E.ExponentSequence) -> Verdict:
    """Decide Σ_n α^{e(n)} < ∞ for a fixed base α > 0.

    Terms with e(n) = ∞ are dropped when α < 1.
    """
    if not (alpha > 0):
        raise SemanticError(f"series base must be positive, got {alpha}")
    if alpha >= 1.0:
        cert = DivergenceByTerms(1.0, 1, statement=f"α = {alpha:g} >= 1: terms never fall below 1")
        return Verdict(Answer.NO, cert)

    def probe():
        s = partial_sum(alpha, exponent, PROBE_HORIZON)
        return NumericProbe(PROBE_HORIZON, ((alpha, s),), "undecided regime; partial sums attached")

    return _combine(normalize(exponent), alpha, probe)


def exists_alpha(exponent: E.ExponentSequence) -> Verdict:
    """Decide ∃α ∈ (0,1): Σ_{n: e(n) < ∞} α^{e(n)} < ∞."""
    return _exists_alpha(exponent, normalize(exponent))


def _exists_alpha(exponent: E.ExponentSequence, branches: list[Branch]) -> Verdict:
    """``exists_alpha`` decided over ``branches``, the branches of ``exponent``."""

    def probe():
        sums = tuple(zip(PROBE_ALPHAS, _direct_partial_sums(PROBE_ALPHAS, exponent, PROBE_HORIZON)))
        return NumericProbe(PROBE_HORIZON, sums, "undecided regime; probes at several α attached")

    verdict = _combine(branches, None, probe)
    if verdict.answer is Answer.YES:
        return Verdict(Answer.YES, AlphaCertificate(0.5, verdict.certificate))
    return verdict


def one_in_lrn(p: E.ExponentSequence, q: E.ExponentSequence) -> Verdict:
    """Membership of the all-ones sequence in the complementary-exponent
    space: equivalent to ∃α ∈ (0,1): Σ_{r_n < ∞} α^{r_n} < ∞."""
    v = exists_alpha(E.RnOf(p, q))
    return Verdict(v.answer, v.certificate, INCLUSION_TEST)


# --------------------------------------------------------------------------
# partial sums (block-aggregated where possible)
# --------------------------------------------------------------------------

_DIRECT_CAP = 50_000_000
_CHUNK = 500_000
_ZERO_LOG2 = 1100.0  # α^e < 2^-1100 rounds to +0.0: half the smallest subnormal is 2^-1075


def _powers(alpha: float, vals: np.ndarray) -> np.ndarray:
    """``alpha**vals``, bit for bit, without calling pow on the terms that
    lie below 2^-1100: they are written as 0.0 in place, so the array keeps
    its length and a later ``np.sum`` its summation order."""
    if not 0 < alpha < 1:  # nothing underflows, and the cutoff needs log2(α) < 0
        return alpha**vals
    near = vals <= _ZERO_LOG2 / -math.log2(alpha)
    if near.all():
        return alpha**vals
    return np.power(alpha, vals, out=np.zeros_like(vals), where=near)


def _direct_partial_sums(alphas, exponent: E.ExponentSequence, horizon: int) -> list[float]:
    """Term-by-term Σ_{n <= horizon, e(n) < ∞} α^{e(n)} for each α in alphas.

    Each chunk of exponent values is evaluated once and raised to every α;
    each total is accumulated chunk by chunk, as a single-α sum would be.
    """
    totals = [0.0] * len(alphas)
    n = 1
    with np.errstate(over="ignore"):  # an overflowing exponent is ∞, whose term α^∞ = 0 is left out
        while n <= horizon:
            stop = min(horizon + 1, n + _CHUNK)
            vals = exponent.eval_range(n, stop)
            vals = vals[np.isfinite(vals)]
            for i, alpha in enumerate(alphas):
                totals[i] += float(np.sum(_powers(alpha, vals)))
            n = stop
    return totals


def _block_branches(exponent: E.ExponentSequence) -> Optional[list[Branch]]:
    """The branches of ``exponent`` when every one has a block or constant closed form, else None."""
    branches = normalize(exponent)
    for b in branches:
        cf = b.form
        if cf is None or cf.onset is None:
            return None
        if not cf.is_inf and cf.var == VAR_N:
            lim = cf.form.limit()
            if lim == INF or lim == -INF or not cf.form.is_const(lim):
                return None
    return branches


def _add_block(total: float, alpha: float, blocks, k: int, start: int, end: int) -> float:
    """``total`` plus the terms of block k at indices start..end, added branch
    by branch; indices before a branch's onset are left out."""
    for b in blocks:
        cf = b.form
        count = b.pset.count_in_range(max(start, b.onset, cf.onset), end)
        if count == 0:
            continue
        val = cf.eval_x(float(k)) if cf.var == VAR_A else printed(cf.limit())
        if val != INF:
            total += count * alpha**val
    return total


def partial_sum(alpha: float, exponent: E.ExponentSequence, horizon: int) -> float:
    """Σ_{n <= horizon, e(n) < ∞} α^{e(n)} for α ∈ (0,1); exact per-block
    aggregation makes astronomically large horizons affordable for block
    exponents."""
    if not (0 < alpha < 1):
        raise SemanticError("partial sums are defined here for α in (0,1)")
    if horizon <= 2_000_000:
        return _direct_partial_sums((alpha,), exponent, horizon)[0]
    blocks = _block_branches(exponent)
    if blocks is None:
        if horizon > _DIRECT_CAP:
            raise SemanticError(f"horizon {horizon} too large for term-by-term summation on this exponent")
        return _direct_partial_sums((alpha,), exponent, horizon)[0]

    lead_in = max(max(b.onset, b.form.onset) for b in blocks)
    lead_in = min(lead_in, horizon)
    if lead_in > 2_000_000:
        raise SemanticError("closed-form onset too large for exact aggregation")
    total = _direct_partial_sums((alpha,), exponent, lead_in)[0]

    k = E.block_value(lead_in + 1) if lead_in < horizon else None
    while k is not None:
        start = max(E.block_start(k), lead_in + 1)
        if start > horizon:
            break
        total = _add_block(total, alpha, blocks, k, start, min(E.block_end(k), horizon))
        k += 1
    return total


def divergence_horizon(alpha: float, exponent: E.ExponentSequence, threshold: float = DIVERGENCE_THRESHOLD) -> int:
    """An index N with partial_sum(alpha, exponent, N) >= threshold,
    derived from the block structure (or a direct scan)."""
    blocks = _block_branches(exponent)
    if blocks is not None:
        total = 0.0
        for k in range(1, 10**6):
            end = E.block_end(k)
            total = _add_block(total, alpha, blocks, k, E.block_start(k), end)
            if total >= threshold:
                return end
        raise SemanticError("no divergence horizon found within 10^6 blocks")
    total = 0.0
    n = 1
    with np.errstate(over="ignore"):  # an overflowing exponent is ∞, and α^∞ = 0
        while n <= _DIRECT_CAP:
            stop = n + _CHUNK
            sums = np.cumsum(_powers(alpha, exponent.eval_range(n, stop)))
            hit = np.nonzero(total + sums >= threshold)[0]
            if hit.size:
                return n + int(hit[0])
            total += float(sums[-1]) if sums.size else 0.0
            n = stop
    raise SemanticError(f"partial sums did not reach {threshold} within {_DIRECT_CAP} terms")
