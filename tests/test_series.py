"""Certified series decisions: verdicts, certificate soundness, partial sums."""
import math
import random
import sys
import warnings

import numpy as np
import pytest

from nakanoseq import (
    AbsDiff,
    AlphaCertificate,
    Answer,
    BlockRepeat,
    BranchCertificates,
    Const,
    DivergenceByTerms,
    GeometricComparison,
    Linear,
    Merge,
    NakanoExponent,
    NumericProbe,
    Odds,
    PSeriesComparison,
    Prefix,
    RationalDrift,
    Recip,
    RnOf,
    SemanticError,
    Sum,
    Evens,
    block_end,
    block_start,
    decide_convergence,
    divergence_horizon,
    exists_alpha,
    one_in_lrn,
    partial_sum,
)
from nakanoseq._asymptotics import normalize
from nakanoseq.series import PROBE_ALPHAS, PROBE_HORIZON, _ZERO_LOG2, _direct_partial_sums, _powers, decide_branch

from _generators import gen_exponent, gen_pair

INF = math.inf


# -- decide_convergence ---------------------------------------------------------


def test_convergence_geometric_example():
    # term(n) = (1/2)^(n+1): converges, sum 1/2  [DERIVED: geometric closed form]
    v = decide_convergence(0.5, Linear(1.0, 1.0))
    assert v.answer is Answer.YES
    assert isinstance(v.certificate, (GeometricComparison, PSeriesComparison))
    for horizon in (10, 100, 1000):
        s = partial_sum(0.5, Linear(1.0, 1.0), horizon)
        assert s == pytest.approx(0.5 * (1.0 - 2.0**-horizon), abs=1e-12)


def test_convergence_blocks_diverge():
    # [PAPER-anchored regression]: block k contributes k^k (1/2)^k >= 1 for k >= 2
    v = decide_convergence(0.5, BlockRepeat())
    assert v.answer is Answer.NO
    assert isinstance(v.certificate, DivergenceByTerms)
    assert v.certificate.per_block


def test_convergence_constant_terms():
    v = decide_convergence(0.5, Const(3.0))  # terms 1/8 forever
    assert v.answer is Answer.NO
    assert v.certificate.exponent_cap is not None


def test_convergence_alpha_at_least_one():
    v = decide_convergence(1.0, Linear(1.0, 0.0))
    assert v.answer is Answer.NO
    with pytest.raises(SemanticError):
        decide_convergence(0.0, Const(2))


def test_convergence_infinite_exponents_trivial_yes():
    v = decide_convergence(0.5, Const(INF))
    assert v.answer is Answer.YES


# -- exists_alpha ----------------------------------------------------------------


def test_geometric_base_stays_a_positive_normal_float():
    # the exponent of rn(1 + 1e-300/n, 1) is 1e300·n + 1: half its slope, 5e299, would make
    # α^c underflow to 0, so c is capped at 1021/|log2 α| and the onset decided for that c
    v = one_in_lrn(RationalDrift(1.0, 1e-300, 1.0), Const(1.0))
    cert = v.certificate.inner
    assert (cert.ratio, cert.onset) == (2.0**-1021, 1)
    assert cert.statement == "exponent >= 1021·n from n = 1, so terms <= (4.45015e-308)^n"
    for alpha in (0.5, 1e-300, 5e-324):
        cert = decide_convergence(alpha, Linear(1e300)).certificate
        assert sys.float_info.min <= cert.ratio < 1


def test_exists_alpha_linear():
    v = exists_alpha(Linear(1.0, 1.0))
    assert v.answer is Answer.YES
    assert isinstance(v.certificate, AlphaCertificate)
    assert v.certificate.alpha == 0.5
    # the paper-pattern sum at alpha 1/2 equals 1/2
    assert partial_sum(0.5, Linear(1.0, 1.0), 10**4) == pytest.approx(0.5, abs=1e-12)


def test_exists_alpha_blocks_no():
    v = exists_alpha(BlockRepeat())
    assert v.answer is Answer.NO
    assert isinstance(v.certificate, DivergenceByTerms)


def test_exists_alpha_constant_no():
    v = exists_alpha(Const(7.0))
    assert v.answer is Answer.NO


def test_exists_alpha_sublinear_power_yes():
    # e(n) = 2 + sqrt(n)-ish growth via nakexp of drifting pair
    e = NakanoExponent(Sum(Const(2), Recip(Linear(1, 0))), Const(2))  # = 2(2+1/n)n -> ~4n
    v = exists_alpha(e)
    assert v.answer is Answer.YES


def test_exists_alpha_merge_branch_no_wins():
    e = Merge(Evens(), Linear(1.0, 0.0), Const(5.0))  # constant on odds
    assert exists_alpha(e).answer is Answer.NO


def test_exists_alpha_merge_all_yes():
    e = Merge(Evens(), Linear(1.0, 0.0), Linear(2.0, 1.0))
    v = exists_alpha(e)
    assert v.answer is Answer.YES
    assert isinstance(v.certificate, AlphaCertificate)
    assert isinstance(v.certificate.inner, BranchCertificates)


def test_exists_alpha_mixed_unknown_with_probe():
    e = Sum(Const(1), AbsDiff(Linear(1.0, 0.0), BlockRepeat()))  # mixes n and a_n
    v = exists_alpha(e)
    assert v.answer is Answer.UNKNOWN
    assert isinstance(v.certificate, NumericProbe)
    assert len(v.certificate.partial_sums) == 3


def test_exists_alpha_probe_matches_partial_sum_bit_for_bit():
    # blocks vs blocks + recip(3 + 1/n^2): a mixed pair that ends in a probe
    q = Sum(BlockRepeat(), Recip(RationalDrift(3.0, 1.0, 2.0)))
    e = NakanoExponent(BlockRepeat(), q)
    v = exists_alpha(e)
    assert v.answer is Answer.UNKNOWN
    # exact equality: the one-pass probe must sum in the same order as partial_sum
    assert v.certificate.partial_sums == tuple((a, partial_sum(a, e, PROBE_HORIZON)) for a in PROBE_ALPHAS)


@pytest.mark.parametrize(
    "exponent, sums",
    [
        (
            NakanoExponent(BlockRepeat(), Sum(BlockRepeat(), Recip(RationalDrift(2.0, 1.0, 1.0)))),
            ("0x1.06ebab959c304p-4", "0x1.a36e3759b6fc4p-14", "0x1.5798ee2308d04p-27"),
        ),
        (RnOf(Linear(2.0, 1.0), BlockRepeat()), ("0x1.e5ba15b36d4e7p+12", "0x1.e442c300a58d6p-3", "0x1.0ecba8f381c4cp-10")),
    ],
)
def test_exists_alpha_probe_sums_pinned(exponent, sums):
    # the sums' low bits follow the summation order (500 000-term chunks) and
    # the combinator arithmetic; recorded on x86-64 with numpy 2.4
    v = exists_alpha(exponent)
    assert isinstance(v.certificate, NumericProbe) and v.certificate.horizon == 10**6
    assert v.certificate.partial_sums == tuple(zip(PROBE_ALPHAS, map(float.fromhex, sums)))


@pytest.mark.parametrize(
    "exponent, sums",
    [
        # exponent a³ + a: underflows to 0 from block 7 at α = 0.1, block 6 at α = 0.01
        (
            NakanoExponent(BlockRepeat(), Sum(BlockRepeat(), Recip(BlockRepeat()))),
            ("0x1.040001b000000p-2", "0x1.47ae1556c8467p-7", "0x1.a36e2eb1c4330p-14"),
        ),
        # 9n² + 3 at even n of block 3 underflows at every α
        (
            NakanoExponent(Merge(Evens(), RationalDrift(3.0, 1.0, 2.0), BlockRepeat()), BlockRepeat()),
            ("0x1.a4b1c18df72ecp+13", "0x1.ab95bb4c47eafp+1", "0x1.e52b6a9e7009ep-16"),
        ),
        # block-7 exponents of about 154-161 give subnormal terms at α = 0.01
        (
            NakanoExponent(BlockRepeat(), Sum(BlockRepeat(), Recip(RationalDrift(3.0, -0.5, 1.0)))),
            ("0x1.6b9e7c04625efp-4", "0x1.4b96be9fc0931p-12", "0x1.ad7f29abcaf39p-24"),
        ),
    ],
)
def test_probe_sums_pinned_where_pow_underflows(exponent, sums):
    # the probe exists_alpha attaches (the first pair is decided, so it is
    # called directly); terms written as 0.0 without pow must not move a bit
    got = _direct_partial_sums(PROBE_ALPHAS, exponent, PROBE_HORIZON)
    assert [float.hex(x) for x in got] == list(sums)


def _alternating_runs(rng, near, far, size):
    out = []
    while len(out) < size:
        for lo, hi in (near, far):
            out += [rng.uniform(lo, hi)] * rng.randint(1, 5)
    return out[:size]


def test_powers_matches_pow_bit_for_bit():
    rng = np.random.default_rng(1100)
    for alpha in (*PROBE_ALPHAS, 0.3, 1e-300, 0.999999):
        cutoff = _ZERO_LOG2 / -math.log2(alpha)
        assert alpha**cutoff == 0.0
        edge = 1074 / -math.log2(alpha)  # where α^e leaves the subnormal range
        arrays = [
            rng.uniform(0.0, 2 * cutoff, 4001),
            rng.uniform(0.0, 0.9 * cutoff, 4001),
            rng.uniform(1.01 * cutoff, 3 * cutoff, 4001),
            rng.uniform(0.97 * edge, 1.03 * edge, 4001),
            np.array(_alternating_runs(random.Random(alpha), (0.0, edge), (cutoff, 2 * cutoff), 4001)),
            np.array([1.0, INF, 0.5 * edge, INF, 2 * cutoff, edge]),
        ]
        for vals in arrays:
            got, want = _powers(alpha, vals), alpha**vals
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (alpha, vals[:4])


def test_exists_alpha_symmetry_of_nakano():
    rng = random.Random(4242)
    for _ in range(25):
        p, q = gen_exponent(rng), gen_exponent(rng)
        a = exists_alpha(NakanoExponent(p, q))
        b = exists_alpha(NakanoExponent(q, p))
        assert a.answer is b.answer


# -- one_in_lrn -------------------------------------------------------------------


def test_one_in_lrn_examples():
    assert one_in_lrn(Const(1), Const(2)).answer is Answer.YES  # r_n = inf everywhere... no:
    # 1/2 - 1/1 < 0 -> r_n = inf -> empty finite part -> Yes  [TRIVIAL]
    v = one_in_lrn(RationalDrift(1, 1, 1), Const(1))  # r_n = n + 1
    assert v.answer is Answer.YES
    assert one_in_lrn(Const(2), Const(1)).answer is Answer.NO  # r_n = 2 constant
    assert one_in_lrn(Const(2), Const(1)).citation == "Thm 1.3"


# -- certificate soundness ---------------------------------------------------------


def _check_cert_bound(cert, exponent, alpha):
    """Sampled terms respect the certified comparison bound."""
    if isinstance(cert, BranchCertificates):
        for _, part in cert.parts:
            _check_cert_bound(part, exponent, alpha)
        return
    if isinstance(cert, GeometricComparison) and not cert.per_block:
        n0 = cert.onset
        if n0 > 10**6:
            return
        ns = np.arange(n0, n0 + 1000, dtype=np.float64)
        vals = exponent.eval_range(n0, n0 + 1000)
        terms = np.where(np.isfinite(vals), alpha**vals, 0.0)
        assert np.all(terms <= cert.scale * cert.ratio**ns + 1e-12)
    elif isinstance(cert, GeometricComparison) and cert.per_block:
        for k in range(max(cert.onset, 1), cert.onset + 15):
            start, end = block_start(k), block_end(k)
            count = end - start + 1
            # whole-block bound: count * alpha^f(k) <= 2^-k; f constant per block
            val = exponent.eval(start)
            total = 0.0 if val == INF else count * alpha**val
            assert total <= cert.ratio**k + 1e-12
    elif isinstance(cert, PSeriesComparison):
        n0 = max(cert.onset, 1)
        if n0 > 10**6:
            return
        ns = np.arange(n0, n0 + 1000, dtype=np.float64)
        vals = exponent.eval_range(n0, n0 + 1000)
        terms = np.where(np.isfinite(vals), alpha**vals, 0.0)
        assert np.all(terms <= cert.scale * ns**-cert.power + 1e-12)


def test_yes_certificates_are_sound_by_sampling():
    cases = [
        Linear(1.0, 1.0),
        Linear(3.0, 0.0),
        NakanoExponent(RationalDrift(1, 1, 1), Const(1)),  # ~ n + 1
        NakanoExponent(RationalDrift(2, 1, 0.5), Const(2)),  # ~ 4 sqrt(n): p-series regime
        Merge(Odds(), Linear(1, 0), Linear(2, 3)),
    ]
    for e in cases:
        v = exists_alpha(e)
        assert v.answer is Answer.YES, str(e)
        cert = v.certificate
        assert isinstance(cert, AlphaCertificate)
        _check_cert_bound(cert.inner, e, cert.alpha)


def test_yes_partial_sums_bounded_and_monotone():
    e = Linear(1.0, 1.0)
    v = exists_alpha(e)
    alpha = v.certificate.alpha
    sums = [partial_sum(alpha, e, h) for h in (10, 100, 1000, 10**4)]
    assert all(a <= b + 1e-15 for a, b in zip(sums, sums[1:]))
    assert sums[-1] <= 1.0  # geometric bound for alpha = 1/2


def test_no_certificates_reach_threshold():
    # DivergenceByTerms: partial sums exceed 10^3 within a computable horizon
    for alpha in (0.9, 0.5, 0.1):
        h = divergence_horizon(alpha, BlockRepeat(), 1e3)
        assert partial_sum(alpha, BlockRepeat(), h) >= 1e3
    for alpha in (0.9, 0.5, 0.1):
        h = divergence_horizon(alpha, Const(2.0), 1e3)
        assert partial_sum(alpha, Const(2.0), h) >= 1e3 * (1 - 1e-12)


def test_monotonicity_in_alpha():
    e = Linear(1.0, 1.0)
    s_small = partial_sum(0.25, e, 1000)
    s_big = partial_sum(0.5, e, 1000)
    assert s_small < s_big


def test_partial_sum_block_fast_path_matches_direct():
    e = Sum(Const(2), Recip(BlockRepeat()))
    nak = NakanoExponent(Const(2), e)  # 4 a_n + 2
    # force both code paths over the same horizon and compare
    direct = 0.0
    alpha = 0.5
    vals = nak.eval_range(1, 100_001)
    direct = float(np.sum(alpha ** vals[np.isfinite(vals)]))
    assert partial_sum(alpha, nak, 100_000) == pytest.approx(direct, rel=1e-12)
    # astronomically large horizons are exact via block aggregation
    h = divergence_horizon(0.1, BlockRepeat(), 1e3)
    assert h > 10**18  # ~1.9e19 terms needed at alpha = 0.1
    assert partial_sum(0.1, BlockRepeat(), h) >= 1e3


def test_divergence_horizon_direct_path_pinned():
    # 1 + 1/n on the odd indices, ∞ on the even ones: no block closed form,
    # so the horizon comes from the direct scan; recorded before pow was
    # skipped past the underflow cutoff
    e = Merge(Odds(), Const(INF), RationalDrift(1.0, 1.0, 1.0))
    assert [divergence_horizon(a, e) for a in (0.5, 0.1)] == [4006, 20022]


def test_divergence_horizon_direct_scan_past_its_first_chunk():
    # Σ 0.001^(1 + 1/n) first reaches 10^3 in the third chunk of the direct scan
    assert divergence_horizon(0.001, RationalDrift(1.0, 1.0, 1.0)) == 1000085


def test_divergence_horizon_scan_overflows_without_a_warning():
    # 1e308·n is ∞ from n = 2, and α^∞ = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert divergence_horizon(0.5, Prefix(((1, 1.0),), Linear(1e308, 0.0)), 0.5) == 1


def test_partial_sum_validation():
    with pytest.raises(SemanticError):
        partial_sum(1.5, Const(2), 100)


def test_decide_convergence_unknown_attaches_its_probe():
    v = decide_convergence(0.5, AbsDiff(Linear(1.0, 0.0), BlockRepeat()))  # mixes n and a_n
    assert v.answer is Answer.UNKNOWN
    assert isinstance(v.certificate, NumericProbe)
    assert v.certificate.horizon == PROBE_HORIZON
    ((alpha, total),) = v.certificate.partial_sums
    assert alpha == 0.5
    assert total == partial_sum(0.5, AbsDiff(Linear(1.0, 0.0), BlockRepeat()), PROBE_HORIZON)
    assert 3.125 <= total < 3.125 + 1e-8


def test_partial_sum_direct_past_two_million_without_a_block_form():
    e = Sum(Const(2), Recip(Linear(1.0, 0.0)))  # 2 + 1/n
    assert partial_sum(0.5, e, 3_000_000) == 749997.3999574373
    with pytest.raises(SemanticError, match="too large for term-by-term summation"):
        partial_sum(0.5, e, 60_000_000)


def test_exists_alpha_prefix_invariance():
    # finitely many overrides never change the verdict
    e = Linear(1.0, 0.0)
    assert exists_alpha(Prefix(((1, 1.0), (5, 2.0)), e)).answer is Answer.YES
    c = Const(4.0)
    assert exists_alpha(Prefix(((2, 10.0),), c)).answer is Answer.NO


def test_decide_branch_exists_alpha_matches_alpha_half():
    # ∃α is certified at α = 1/2: both questions agree on every branch
    rng = random.Random(31)
    checked = 0
    for _ in range(150):
        p, q = gen_pair(rng)
        for seq in (p, NakanoExponent(p, q), RnOf(p, q)):
            for branch in normalize(seq):
                ans_half, cert_half = decide_branch(branch, 0.5)
                ans_any, cert_any = decide_branch(branch, None)
                assert ans_half is ans_any
                if ans_any is Answer.YES:
                    assert cert_half == cert_any
                    checked += 1
    assert checked > 100
