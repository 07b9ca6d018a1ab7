"""An independent exact oracle for the onsets that reports print.

It evaluates descriptors itself, written apart from ``_asymptotics`` and from
``eval``/``eval_range``: every value at an index n is ∞ (a sentinel) or an exact
element a + b·√n of Q(√n) with fractions a, b, which covers the integer and
half-integer powers of n that the seed-88 pairs use; each descriptor constant is
read as the decimal it prints as (all seed-88 constants are dyadic, so this is
their float value); ``blocks`` takes its exact
value from integer block starts, and the logarithms in series claims are
decimal enclosures.  A claim at an index is True, False, or None when an
enclosure does not decide it.

For the first 200 seed-88 pairs it checks every non-null onset N <= 10^6 on the
report's gap and on the series certificates of single-branch exponents: the
printed claim must hold at N ... N+200 and fail at N - 1.  The failure check is
skipped, and counted, where N - 1 lies below the claim's floor: a prefix
override, a merge exception or an active clamp at 1 at N - 1 or later, or a sign
change of the difference that a series exponent is built from.
"""
from __future__ import annotations

import bisect
import math
import random
import re
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import pytest

import nakanoseq as N
from _generators import gen_pair

TOP = None  # the value ∞
WINDOW = 200
PAIRS = 200
ONE = (1, 0)


# -- exact values: a + b·√n, or TOP ------------------------------------------

_CUMS = [0]  # _CUMS[k] = 1^1 + 2^2 + ... + k^k


def _cums(index: int = 0, blocks: int = 0) -> list[int]:
    while _CUMS[-1] < index or len(_CUMS) <= blocks:
        k = len(_CUMS)
        _CUMS.append(_CUMS[-1] + k**k)
    return _CUMS


def block_of(n: int) -> int:
    return bisect.bisect_left(_cums(index=n), n)


def block_first(k: int) -> int:
    return _cums(blocks=k)[k - 1] + 1


@lru_cache(maxsize=None)
def _num(v: float):
    """A descriptor's float read as the decimal it prints as, as the analysis reads it: an
    int when it is one, else a fraction (ints keep the arithmetic fast)."""
    v = Fraction(repr(v))
    return v.numerator if v.denominator == 1 else v


def _rat(v) -> tuple:
    return TOP if v == math.inf else (_num(v), 0)


@lru_cache(maxsize=None)
def _power(n: int, e: float) -> tuple:
    """n**e for a half-integer e, as a + b·√n."""
    k = Fraction(repr(e)) * 2
    assert k.denominator == 1, f"exponent {e} is not a half-integer"
    half, odd = divmod(int(k), 2)
    v = Fraction(n) ** half if half < 0 else n**half
    return (0, v) if odd else (v, 0)


def sign(v, n: int) -> int:
    """The exact sign of a + b·√n."""
    a, b = v
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if not sb:
        return sa
    if not sa or not sb or sa == sb:
        return sa or sb
    d = a * a - b * b * n
    return sa if d > 0 else sb if d < 0 else 0


def _sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _add(x, y, n):
    return TOP if x is TOP or y is TOP else (x[0] + y[0], x[1] + y[1])


def _mul(x, y, n):
    if not x[1] and not y[1]:
        return x[0] * y[0], x[1]
    return x[0] * y[0] + x[1] * y[1] * n, x[0] * y[1] + x[1] * y[0]


def _recip(x, n):
    if x is TOP:
        return (0, 0)
    if not x[1]:
        return (Fraction(1) / x[0], 0) if x[0] else TOP
    norm = x[0] * x[0] - x[1] * x[1] * n
    if not norm:  # a + b·√n = 0 exactly when the norm vanishes with a = ±b·√n
        return TOP if not sign(x, n) else (Fraction(1) / (2 * x[0]), 0)
    return Fraction(x[0]) / norm, -Fraction(x[1]) / norm


def _absdiff(x, y, n):
    if x is TOP or y is TOP:
        return (0, 0) if x is y else TOP
    d = _sub(x, y)
    return d if sign(d, n) >= 0 else (-d[0], -d[1])


def _rn(p, q, n):
    inv = _sub(_recip(q, n), _recip(p, n))  # 1/q − 1/p; r = ∞ where it is <= 0
    return TOP if sign(inv, n) <= 0 else _recip(inv, n)


def _nakano(p, q, n):
    if p is TOP or q is TOP:
        return q if p is TOP else p
    d = _absdiff(p, q, n)
    return TOP if not sign(d, n) else _mul(_mul(p, q, n), _recip(d, n), n)


@lru_cache(maxsize=None)
def _set_json(index_set) -> dict:
    return index_set.to_json()


def _member(index_set: dict, n: int) -> bool:
    kind = index_set["kind"]
    if kind == "complement":
        return not _member(index_set["inner"], n)
    if kind == "thinned":
        return n % index_set["stride"] == 0 if "stride" in index_set else n in index_set["indices"]
    return {"all": True, "evens": n % 2 == 0, "odds": n % 2 == 1}[kind]


@lru_cache(maxsize=None)
def _drift_at(limit: float, coeff: float, decay: float, n: int) -> tuple:
    a, b = _power(n, -decay)
    c = _num(coeff)
    return _num(limit) + c * a, c * b


def _drift(seq, n: int) -> tuple:
    """limit + coeff·n^(−decay), before the clamp at 1."""
    return _drift_at(seq.limit, seq.coeff, seq.decay, n)


@lru_cache(maxsize=None)
def _clamped(limit: float, coeff: float, decay: float, n: int) -> tuple:
    v = _drift_at(limit, coeff, decay, n)
    return v if sign(_sub(v, ONE), n) >= 0 else ONE


def value(seq, n: int):
    kind = seq.json_kind
    if kind == "const":
        return _rat(seq.value)
    if kind == "rational_drift":
        return _clamped(seq.limit, seq.coeff, seq.decay, n)
    if kind == "linear":
        return _num(seq.slope) * n + _num(seq.intercept), 0
    if kind == "block_repeat":
        return _rat(block_of(n))
    if kind == "prefix":
        for i, v in seq.overrides:
            if i == n:
                return _rat(v)
        return value(seq.tail, n)
    if kind == "merge":
        return value(seq.on_set if _member(_set_json(seq.index_set), n) else seq.off_set, n)
    if kind == "recip":
        return _recip(value(seq.inner, n), n)
    a, b = (value(getattr(seq, name), n) for name in seq.__dataclass_fields__)
    return _OPS[kind](a, b, n)


_OPS = {"sum": _add, "abs_diff": _absdiff, "rn_of": _rn, "nakano_exponent": _nakano}


def irregular(seq, n: int) -> bool:
    """Whether n is a prefix override, a merge exception or an index with an active
    clamp anywhere in the descriptor."""
    kind = seq.json_kind
    if kind == "prefix" and any(i == n for i, _ in seq.overrides):
        return True
    if kind == "merge" and n in _set_json(seq.index_set).get("indices", ()):
        return True
    if kind == "rational_drift":
        return sign(_sub(_drift(seq, n), ONE), n) < 0
    parts = [getattr(seq, f) for f in seq.__dataclass_fields__]
    return any(irregular(s, n) for s in parts if isinstance(s, N.ExponentSequence))


def _has_merge(seq) -> bool:
    if seq.json_kind == "merge":
        return True
    return any(_has_merge(getattr(seq, f)) for f in seq.__dataclass_fields__ if isinstance(getattr(seq, f), N.ExponentSequence))


# -- claims ------------------------------------------------------------------


@lru_cache(maxsize=None)
def _log2(v) -> tuple:
    """An enclosure (lo, hi) of log2(v) for a positive int or fraction v."""
    v = Fraction(v)
    a, b = v.numerator, v.denominator
    if a & (a - 1) == 0 and b & (b - 1) == 0:
        return Fraction(a.bit_length() - b.bit_length()), Fraction(a.bit_length() - b.bit_length())
    with localcontext(prec=40):
        w = Fraction((Decimal(a).ln() - Decimal(b).ln()) / Decimal(2).ln())
    return w - abs(w) / 10**35, w + abs(w) / 10**35


def _vs(v, bound, n: int):
    """Whether v >= bound, for an exact value v and an enclosure (lo, hi) of the bound."""
    if v is TOP:
        return True
    lo, hi = bound
    if not v[1]:
        return True if v[0] >= hi else False if v[0] < lo else None
    if sign(_sub(v, (hi, 0)), n) >= 0:
        return True
    return False if sign(_sub(v, (lo, 0)), n) < 0 else None


def _at_most(v, bound, n: int):
    """Whether v <= bound, for an exact value v and an enclosure (lo, hi) of the bound."""
    if v is TOP:
        return False
    lo, hi = bound
    if not v[1]:
        return True if v[0] <= lo else False if v[0] > hi else None
    if sign(_sub(v, (lo, 0)), n) <= 0:
        return True
    return False if sign(_sub(v, (hi, 0)), n) > 0 else None


def series_claim(cert: dict):
    """(per_block, the claim at x for an exponent value e there) for a certificate at
    α = 1/2, or None when it states nothing checked here."""
    kind, statement = cert["kind"], cert.get("statement", "")
    if kind == "geometric_comparison" and cert["per_block"]:  # k^k·2^-f(k) <= 2^-k
        return True, lambda k, f: _vs(f, tuple(k * v + k for v in _log2(k)), k)
    if kind == "geometric_comparison" and cert["scale"] == 0.0:  # all exponents infinite
        return False, lambda n, e: e is TOP
    if kind == "geometric_comparison":
        c = Fraction(re.match(r"exponent >= ([^·]+)·n", statement).group(1))
        return False, lambda n, e: _vs(e, (c * n, c * n), n)
    if kind == "p_series_comparison":
        return False, lambda n, e: _vs(e, tuple(2 * v for v in _log2(n)), n)
    if kind == "divergence_by_terms" and cert["per_block"]:  # k^k·2^-f(k) >= 1
        return True, lambda k, f: _at_most(f, tuple(k * v for v in _log2(k)), k)
    if kind == "divergence_by_terms" and cert["exponent_cap"] is not None:
        cap = Fraction(cert["exponent_cap"])
        return False, lambda n, e: e is not TOP and sign(_sub((cap, 0), e), n) >= 0
    return None


def _window_check(holds, onset, floor_reached, stats, label):
    for n in range(onset, onset + WINDOW + 1):
        assert holds(n) is True, f"{label}: the claim does not hold at {n} (onset {onset})"
    if onset == 1 or (onset > 1 and floor_reached(onset - 1)):
        stats["skipped"] += onset > 1
        return
    before = holds(onset - 1)
    assert before is not True, f"{label}: the claim already holds at {onset - 1}, below the onset {onset}"
    stats["undecided" if before is None else "failed"] += 1


def test_printed_onsets_are_least_indices():
    start = time.perf_counter()
    rng = random.Random(88)
    pairs = [gen_pair(rng) for _ in range(PAIRS)]
    stats = {"claims": 0, "failed": 0, "skipped": 0, "undecided": 0}
    for i, (p, q) in enumerate(pairs):
        report = N.full_report(p, q, witness_count=0)
        cache: dict = {}

        def pq(n):
            if n not in cache:
                cache[n] = value(p, n), value(q, n)
            return cache[n]

        odd: dict = {}

        def below_floor(m, switch=None):
            """Whether an index from m on is irregular, or is one where ``switch`` holds."""
            for n in range(m, m + WINDOW + 2):
                if n not in odd:
                    odd[n] = irregular(p, n) or irregular(q, n)
                if odd[n] or (switch is not None and switch(n)):
                    return True
            return False

        def side(n):  # the sign of p_n − q_n, with ∞ above every finite value
            a, b = pq(n)
            return (b is TOP) - (a is TOP) if a is TOP or b is TOP else sign(_sub(a, b), n)

        gap = report.gap
        if gap.kind is N.GapKind.POSITIVE and gap.onset is not None and gap.onset <= 10**6:
            eps = Fraction(gap.epsilon)
            stats["claims"] += 1
            _window_check(lambda n: _vs(_absdiff(*pq(n), n), (eps, eps), n), gap.onset, below_floor, stats, f"pair {i} gap")
        if _has_merge(p) or _has_merge(q):
            continue
        for verdict, build in ((report.inclusion_holds, _rn), (report.spaces_equal, _nakano)):
            cert = verdict.certificate.to_json() if verdict.certificate is not None else None
            if cert is None or verdict.citation not in (N.INCLUSION_TEST, N.NAKANO_LEMMA):
                continue
            if cert["kind"] == "alpha_certificate":
                cert = cert["inner"]
            claim = series_claim(cert) if cert["kind"] != "branch_certificates" else None
            onset = cert.get("onset")
            if claim is None or onset is None or onset > 10**6:
                continue
            per_block, at = claim
            if per_block:  # the block claims start at block 2
                holds, floor = (lambda k: at(k, build(*pq(block_first(k)), block_first(k)))), (lambda m: m < 2)
            else:
                # the closed form of r_n or of the Nakano exponent switches where p − q changes sign
                eventual = side(onset + WINDOW)
                holds = lambda n: at(n, build(*pq(n), n))  # noqa: E731
                floor = lambda m: below_floor(m, lambda n: side(n) * eventual < 0)  # noqa: E731
            stats["claims"] += 1
            _window_check(holds, onset, floor, stats, f"pair {i} {cert['kind']}")
    print(stats, f"{time.perf_counter() - start:.2f} s")
    assert stats["claims"] > 300 and stats["failed"] > 30 and not stats["undecided"]


@pytest.mark.parametrize(
    "alpha, exponent, block",
    [(0.1, "blocks", 10), (0.4, "blocks", 3), (0.5, "blocks", 2), (0.25, "blocks", 4), (0.5, "blocks + blocks", 4)],
)
def test_block_divergence_onset_is_the_least_block(alpha, exponent, block):
    """k^k·α^f(k) >= 1, i.e. f(k)·log2(1/α) <= k·log2 k, holds from the printed block
    on and fails at the block before it (blocks start at 2); at α = 2^-j and a power
    of 2 both sides can tie exactly."""
    e = N.parse_expression(exponent)
    verdict = N.decide_convergence(alpha, e)
    assert verdict.answer is N.Answer.NO and verdict.certificate.per_block
    assert verdict.certificate.onset == block
    lo, hi = (-v for v in reversed(_log2(Fraction(alpha))))  # log2(1/α)

    def holds(k):
        lk = _log2(k)
        return _at_most(value(e, block_first(k)), (k * lk[0] / hi, k * lk[1] / lo), k)

    stats = {"failed": 0, "skipped": 0, "undecided": 0}
    _window_check(holds, block, lambda m: m < 2, stats, f"{exponent} at α = {alpha}")
    assert not stats["undecided"]


def test_exists_alpha_on_blocks_plus_blocks():
    """The divergence certificate that ``exists_alpha`` gives for 2·a_n: at α = 1/2,
    2k·log2 2 <= k·log2 k first holds at block 4, with equality there."""
    verdict = N.exists_alpha(N.Sum(N.BlockRepeat(), N.BlockRepeat()))
    assert verdict.answer is N.Answer.NO and verdict.certificate.onset == 4


def test_block_convergence_onset_at_a_tie():
    """r_n for blocks + 2 vs blocks is a_n(a_n + 2)/2, and the block claim
    f(k) >= k·log2 k + k at α = 1/2 is k/2 >= log2 k: equality at block 4, the onset."""
    p, q = N.parse_expression("blocks + 2"), N.parse_expression("blocks")
    cert = N.full_report(p, q, witness_count=0).inclusion_holds.certificate.to_json()["inner"]
    assert cert["onset"] == 4
    per_block, at = series_claim(cert)
    stats = {"failed": 0, "skipped": 0, "undecided": 0}
    _window_check(lambda k: at(k, _rn(*(value(s, block_first(k)) for s in (p, q)), k)), 4, lambda m: m < 2, stats, "r_n")
    assert per_block and stats["failed"] == 1
