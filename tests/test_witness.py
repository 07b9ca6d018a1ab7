"""Witness subsequences and empirical norm-ratio probes."""
import math
import random
import warnings

import numpy as np
import pytest

from _generators import gen_pair
from nakanoseq import (
    AbsDiff,
    All,
    Answer,
    BlockRepeat,
    Const,
    Evens,
    GapKind,
    HorizonExhausted,
    Linear,
    NakanoExponent,
    PreconditionError,
    RationalDrift,
    Recip,
    Sum,
    equality_witness,
    liminf_abs_gap,
    linf_witness,
    parse_expression,
    profile,
    ratio_decay_profile,
)
from nakanoseq import witness as W

INF = math.inf

EX3_Q = Sum(Const(2), Recip(BlockRepeat()))


# -- equality witness ----------------------------------------------------------


def test_equality_witness_block_pair():
    wit = equality_witness(Const(2), EX3_Q, 3)
    assert wit.indices == (1, 2, 6)  # starts of blocks 1, 2, 3
    assert wit.gaps[0] == pytest.approx(1.0)
    assert wit.gaps[1] == pytest.approx(0.5)
    assert wit.gaps[2] == pytest.approx(1.0 / 3.0)
    assert wit.checks["within_bound"]


def test_equality_witness_identical_pair():
    wit = equality_witness(Const(2), Const(2), 4)
    assert wit.indices == (1, 2, 3, 4)
    assert wit.checks["modular_at_half"] == 0.0  # equality exponent is inf


def test_equality_witness_drift_pair():
    # |p_n - q_n| = 1/n <= 1/k iff n >= k; strictly increasing indices give 2..6
    # after n_1 = 1 qualifies for k = 1
    wit = equality_witness(RationalDrift(1, 1, 1), Const(1), 5)
    assert wit.indices == (1, 2, 3, 4, 5)
    assert all(g <= 1.0 / k * (1 + 1e-9) for k, g in enumerate(wit.gaps, start=1))


def test_equality_witness_gap_law_exact():
    wit = equality_witness(Const(2), EX3_Q, 6)
    for k, (n, g) in enumerate(zip(wit.indices, wit.gaps), start=1):
        assert g <= (1.0 / k) * (1 + 1e-12)
    assert list(wit.indices) == sorted(set(wit.indices))  # strictly increasing


def test_equality_witness_extension_property():
    short = equality_witness(Const(2), EX3_Q, 3)
    long = equality_witness(Const(2), EX3_Q, 6)
    assert long.indices[:3] == short.indices


def test_equality_witness_precondition():
    with pytest.raises(PreconditionError):
        equality_witness(Const(3), Const(2), 3)  # gap is positive


def test_equality_witness_horizon_exhausted():
    # gap n^-0.001 needs n > 2^1000 to fall below 1/2
    p = RationalDrift(1.0, 1.0, 0.001)
    with pytest.raises(HorizonExhausted):
        equality_witness(p, Const(1), 2)


# -- linf witness ----------------------------------------------------------------


def test_linf_witness_blocks():
    wit = linf_witness(BlockRepeat(), 4)
    # [DERIVED] first index of block j is 1 + sum_{i<j} i^i: 1, 2, 6, 33
    assert wit.indices == (1, 2, 6, 33)
    assert wit.gaps == (1.0, 2.0, 3.0, 4.0)
    assert wit.checks["within_bound"]


def test_linf_witness_linear():
    wit = linf_witness(Linear(1, 0), 3)
    assert wit.indices == (1, 2, 3)


def test_linf_witness_growth_law():
    wit = linf_witness(BlockRepeat(), 7)
    for k, v in enumerate(wit.gaps, start=1):
        assert v >= k * (1 - 1e-12)
    assert wit.checks["modular_at_half"] <= 1.0


def test_linf_witness_precondition():
    with pytest.raises(PreconditionError):
        linf_witness(Const(2), 3)


# -- scan against a scalar reference --------------------------------------------


def _reference_indices(value, hit, count):
    """First ``count`` indices n_1 < n_2 < ... with hit(value(n_k), k), one
    index at a time through scalar ``eval``."""
    indices, n = [], 1
    for k in range(1, count + 1):
        while not hit(value(n), k):
            n += 1
        indices.append(n)
        n += 1
    return tuple(indices)


def _reference_equality(p, q, count):
    def gap(n):
        a, b = p.eval(n), q.eval(n)
        return 0.0 if a == b else abs(a - b)

    return _reference_indices(gap, lambda d, k: d <= (1.0 / k) * (1.0 + 1e-12), count)


def _reference_linf(p, count):
    return _reference_indices(p.eval, lambda v, k: not v < k * (1.0 - 1e-12), count)


def test_witnesses_match_scalar_reference_on_seeded_pairs():
    rng = random.Random(88)
    seen = {"equality": 0, "linf": 0}
    for _ in range(300):
        p, q = gen_pair(rng)
        if liminf_abs_gap(p, q).kind is GapKind.ZERO:
            assert equality_witness(p, q, 6).indices == _reference_equality(p, q, 6), (p, q)
            seen["equality"] += 1
        if profile(p).bounded_above is Answer.NO:
            assert linf_witness(p, 6).indices == _reference_linf(p, 6), p
            seen["linf"] += 1
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize(
    "p, q, count, last",
    [
        ("blocks", "blocks + recip(blocks)", 7, 50070),
        ("2", "2 + recip(blocks)", 7, 50070),
        ("n", "n + recip(n)", 300, 301),
    ],
)
def test_equality_witness_across_chunks_matches_scalar_reference(p, q, count, last):
    # the last index lies past several chunk boundaries
    p, q = parse_expression(p), parse_expression(q)
    wit = equality_witness(p, q, count)
    assert wit.indices == _reference_equality(p, q, count)
    assert wit.indices[-1] == last


def test_linf_witness_across_chunks_matches_scalar_reference():
    p = parse_expression("merge(odd: blocks, 2)")
    assert linf_witness(p, 7).indices == _reference_linf(p, 7)


# -- printed values are the scanned values -----------------------------------------


def _hex_at(seq, indices):
    """``seq.eval_range`` at each index, as ``float.hex`` strings."""
    with np.errstate(over="ignore"):
        values = seq.eval_range(1, indices[-1] + 1)
    return [float(values[n - 1]).hex() for n in indices]


def _half_sum(exponents):
    return sum(0.5**e for e in exponents if e != INF)


@pytest.mark.parametrize(
    "p, q",
    [
        ("1.5 - 1/n^0.5", "1.5 + 2/n^2"),  # seed-88 pair 40: scalar eval rounds its k = 5 gap differently
        ("merge(odd: 2.2*n + 3.3, 2.2 + 2.2/n^0.3)", "merge(odd: 2.2*n + 3.3, 2.2 + 2.2/n^0.3) + recip(2.2)"),
        ("merge(even: 2.2, 1.1 - 1.1/n^2.2)", "1.1 + 2.2/n^1.1"),
        ("2.2 + 2.2/n^0.3", "2.2 + 2.2/n^0.3 + recip(1.1*n)"),
        ("blocks", "merge(odd: blocks, 3.3 - 2.2/n^0.3)"),
        ("merge(even: 2.2 + 2.2/n^0.3, 1.1*n + 3.3)", "merge(even: 2.2 + 2.2/n^0.3, 1.1*n + 3.3)"),
        ("2", "2 + recip(blocks)"),
        ("n", "n + recip(n)"),
        ("1e308*n", "1e308*n"),
    ],
)
def test_witnesses_print_the_values_their_scan_tested(p, q):
    """Every printed gap or value, and the equality exponents behind the modular
    check, read bit for bit as ``eval_range`` gives them at the witness indices."""
    p, q = parse_expression(p), parse_expression(q)
    checked = 0
    if liminf_abs_gap(p, q).kind is GapKind.ZERO:
        wit = equality_witness(p, q, 6)
        assert [g.hex() for g in wit.gaps] == _hex_at(AbsDiff(p, q), wit.indices)
        nak = [float.fromhex(h) for h in _hex_at(NakanoExponent(p, q), wit.indices)]
        assert wit.checks["modular_at_half"] == _half_sum(nak)
        checked += 1
    if profile(p).bounded_above is Answer.NO:
        wit = linf_witness(p, 6)
        assert [v.hex() for v in wit.gaps] == _hex_at(p, wit.indices)
        assert wit.checks["modular_at_half"] == _half_sum(wit.gaps)
        checked += 1
    assert checked


def test_witness_values_are_python_floats():
    wit = equality_witness(parse_expression("1.5 - 1/n^0.5"), parse_expression("1.5 + 2/n^2"), 5)
    assert {type(g) for g in wit.gaps} == {float}
    assert type(wit.checks["modular_at_half"]) is float
    assert wit.gaps[4] == 0.19907471501984064


def test_linf_witness_overflow_writes_no_warning():
    # 1e308·n is past the float range from n = 2; the scan reads it as ∞
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wit = linf_witness(parse_expression("1e308*n"), 5)
    assert wit.indices == (1, 2, 3, 4, 5)
    assert wit.gaps == (1e308, INF, INF, INF, INF)


# -- scan cost ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda: linf_witness(Linear(1, 0), 2000),
        lambda: equality_witness(parse_expression("n"), parse_expression("n + recip(n)"), 1000),
    ],
    ids=["linf-n", "equality-n"],
)
def test_scan_cost_follows_last_index(monkeypatch, call):
    terms = []  # the length of every range the scan evaluates
    scan = W._scan

    def counting_scan(eval_range, *args):
        def counted(start, stop):
            terms.append(stop - start)
            return eval_range(start, stop)

        return scan(counted, *args)

    monkeypatch.setattr(W, "_scan", counting_scan)
    wit = call()
    assert sum(terms) <= 2 * wit.indices[-1] + W._FIRST_CHUNK, terms


# -- scan horizon ------------------------------------------------------------------

# [DERIVED] block j starts at 1 + sum_{i<j} i^i: 1, 2, 6, 33, 289, 3414, 50070, 873613


def test_hit_at_the_horizon_is_found():
    assert linf_witness(BlockRepeat(), 4, horizon=33).indices == (1, 2, 6, 33)
    assert equality_witness(Const(2), EX3_Q, 6, horizon=3414).indices == (1, 2, 6, 33, 289, 3414)


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda h: linf_witness(BlockRepeat(), 6, horizon=h), "p_n >= 6"),
        (lambda h: equality_witness(Const(2), EX3_Q, 6, horizon=h), "|p_n - q_n| <= 1/6"),
    ],
    ids=["linf", "equality"],
)
def test_horizon_one_short_of_the_hit(call, what):
    # the sixth hit is at 3414; no chunk size divides 3413 or 3414
    with pytest.raises(HorizonExhausted) as info:
        call(3413)
    assert (info.value.k, info.value.horizon) == (6, 3413)
    assert str(info.value) == f"no index with {what} found for k=6 within 3413 terms"


def test_linf_witness_default_horizon_exhausted():
    with pytest.raises(HorizonExhausted) as info:
        linf_witness(BlockRepeat(), 12)
    assert (info.value.k, info.value.horizon) == (9, W.SCAN_HORIZON)
    assert str(info.value) == "no index with p_n >= 9 found for k=9 within 10000000 terms"


# -- ratio profiles -----------------------------------------------------------------


def test_ratio_constant_exponents_closed_form():
    prof = ratio_decay_profile(Const(2), Const(4), All(), [16])
    (n, np_, nq, ratio) = prof.rows[0]
    # [DERIVED] flat vector: N^{1/p}; ratio N^{1/4}/N^{1/2} = 16^{-1/4} = 0.5
    assert np_ == pytest.approx(4.0, rel=1e-10)
    assert nq == pytest.approx(2.0, rel=1e-10)
    assert ratio == pytest.approx(0.5, abs=1e-6)


def test_ratio_identity_is_one():
    prof = ratio_decay_profile(Const(2), Const(2), All(), [16])
    assert prof.rows[0][3] == pytest.approx(1.0, rel=1e-10)


def test_ratio_rows_positive_and_sandwiched():
    prof = ratio_decay_profile(RationalDrift(1, 1, 1), Linear(1, 0), All(), [4, 64, 256])
    for n, np_, nq, ratio in prof.rows:
        assert 0.0 < ratio
        # each norm obeys the sandwich max <= norm <= sum for the flat vector
        assert 1.0 - 1e-9 <= np_ <= n * (1 + 1e-9)
        assert 1.0 - 1e-9 <= nq <= n * (1 + 1e-9)
    ratios = [r for _, _, _, r in prof.rows]
    assert ratios == sorted(ratios, reverse=True)  # decaying for the SS pair


def test_ratio_profile_on_even_set():
    prof = ratio_decay_profile(Const(2), Const(4), Evens(), [4])
    assert prof.rows[0][3] == pytest.approx(4.0 ** (1 / 4) / 2.0, rel=1e-8)


def test_ratio_precondition_checks():
    with pytest.raises(PreconditionError):
        ratio_decay_profile(Const(3), Const(2), All(), [4])  # inclusion fails
    with pytest.raises(PreconditionError):
        ratio_decay_profile(Const(2), Const(4), All(), [64, 4])  # not ascending
    with pytest.raises(PreconditionError):
        ratio_decay_profile(Const(2), Const(4), All(), [])


def test_ratio_profile_serialization():
    prof = ratio_decay_profile(Const(2), Const(4), All(), [4, 16])
    obj = prof.to_json()
    assert obj["index_set"] == {"kind": "all"}
    assert len(obj["rows"]) == 2
    text = prof.to_text()
    assert "ratio" in text and "16" in text
