"""Descriptor evaluation, the block sequence, JSON round-trips, and the
certified asymptotic profiles."""
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nakanoseq import (
    AbsDiff,
    All,
    Answer,
    BlockRepeat,
    Complement,
    Const,
    GapKind,
    Linear,
    Merge,
    NakanoExponent,
    Odds,
    Prefix,
    RationalDrift,
    Recip,
    RnOf,
    SemanticError,
    Sum,
    Evens,
    ExponentSequence,
    Thinned,
    block_end,
    block_start,
    block_value,
    liminf_abs_gap,
    parse_expression,
    profile,
    signed_liminf_gap,
)
import nakanoseq
from nakanoseq._asymptotics import normalize
from nakanoseq.exponents import EVAL_BLOCK, from_json

from _generators import gen_dsl_ast, gen_exponent

INF = math.inf


# -- block sequence ----------------------------------------------------------


def brute_blocks(count):
    # [DERIVED] independent oracle: literally repeat value j, j^j times
    out = []
    j = 1
    while len(out) < count:
        out.extend([j] * (j**j))
        j += 1
    return out[:count]


def test_block_value_matches_brute_force():
    oracle = brute_blocks(5000)
    for n in range(1, 5001):
        assert block_value(n) == oracle[n - 1]


def test_block_boundaries():
    # [DERIVED] cumulative sums 1, 5, 32, 288, 3413
    assert [block_start(k) for k in range(1, 6)] == [1, 2, 6, 33, 289]
    assert [block_end(k) for k in range(1, 5)] == [1, 5, 32, 288]
    assert block_value(block_start(7)) == 7
    assert block_value(block_end(7)) == 7


def test_block_repeat_eval_range_vectorized():
    b = BlockRepeat()
    vals = b.eval_range(1, 4001)
    assert [int(v) for v in vals[:8]] == [1, 2, 2, 2, 2, 3, 3, 3]
    assert all(b.eval(n) == vals[n - 1] for n in range(1, 4001, 37))


def test_block_repeat_eval_range_after_cache_passes_float_range():
    # block sums past block ~143 exceed the float64 range; the cache keeps them
    block_start(300)
    b = BlockRepeat()
    vals = b.eval_range(1, 10**6)
    assert all(vals[n - 1] == block_value(n) for n in range(1, 10**6, 9973))
    assert vals[-1] == block_value(10**6 - 1)


def test_prefix_inf_override_on_integer_const_tail():
    # an integer Const tail used to make an int64 array that cannot hold inf
    assert Const(2)._eval_array(np.arange(1.0, 4.0)).dtype == np.float64
    assert Prefix(((1, INF),), Const(2)).eval_range(1, 4).tolist() == [INF, 2.0, 2.0]
    assert Const(2).to_json() == {"kind": "const", "value": 2}


# -- extended-value conventions [TRIVIAL] -------------------------------------


def test_absdiff_of_two_infinities_is_zero():
    d = AbsDiff(Const(INF), Const(INF))
    assert d.eval(5) == 0.0
    assert d.eval_range(1, 4).tolist() == [0.0, 0.0, 0.0]


def test_recip_conventions():
    assert Recip(Const(INF)).eval(1) == 0.0
    assert Recip(Const(2)).eval(1) == 0.5


def test_rn_of_conventions():
    # r_n is finite exactly when q < p (1/q - 1/p > 0)
    assert RnOf(Const(2), Const(3)).eval(1) == INF
    assert RnOf(Const(2), Const(2)).eval(1) == INF
    assert RnOf(Const(3), Const(2)).eval(1) == pytest.approx(6.0)  # 1/(1/2 - 1/3)
    assert RnOf(Const(2), Const(INF)).eval(1) == INF  # 1/q - 1/p = -1/2 <= 0
    assert RnOf(Const(INF), Const(2)).eval(1) == 2.0


def test_nakano_exponent_conventions():
    assert NakanoExponent(Const(2), Const(2)).eval(1) == INF
    assert NakanoExponent(Const(INF), Const(INF)).eval(1) == INF
    assert NakanoExponent(Const(INF), Const(3)).eval(1) == 3.0
    assert NakanoExponent(Const(3), Const(INF)).eval(1) == 3.0
    assert NakanoExponent(Const(2), Const(4)).eval(1) == 4.0  # 8/2


def test_drift_clamps_at_one():
    d = RationalDrift(1.0, -5.0, 1.0)
    assert d.eval(1) == 1.0
    assert d.eval(100) == 1.0
    d2 = RationalDrift(2.0, -5.0, 1.0)
    assert d2.eval(1) == 1.0  # 2 - 5 clamped
    assert d2.eval(10) == 1.5


def test_base_descriptor_validation():
    with pytest.raises(SemanticError):
        Const(0.5)
    with pytest.raises(SemanticError):
        RationalDrift(0.5, 1.0, 1.0)
    with pytest.raises(SemanticError):
        RationalDrift(INF, 1.0, 1.0)
    with pytest.raises(SemanticError):
        RationalDrift(2.0, 1.0, 0.0)
    with pytest.raises(SemanticError):
        Linear(0.0, 5.0)
    with pytest.raises(SemanticError):
        Prefix(((1, 0.5),), Const(2))
    with pytest.raises(SemanticError):
        Prefix(((1, 2.0), (1, 3.0)), Const(2))


def test_merge_and_prefix_eval():
    m = Merge(Evens(), Const(2), Const(3))
    assert [m.eval(n) for n in range(1, 5)] == [3.0, 2.0, 3.0, 2.0]
    p = Prefix(((2, 7.0),), m)
    assert [p.eval(n) for n in range(1, 5)] == [3.0, 7.0, 3.0, 2.0]


def test_eval_range_matches_eval_pointwise():
    rng = random.Random(20260823)
    for _ in range(60):
        seq = gen_dsl_ast(rng, depth=2)
        vals = seq.eval_range(1, 301)
        for n in (1, 2, 3, 17, 100, 300):
            expected = seq.eval(n)
            got = vals[n - 1]
            if expected == INF:
                assert got == INF
            else:
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_json_round_trip():
    rng = random.Random(7)
    for _ in range(80):
        seq = gen_dsl_ast(rng, depth=2)
        assert from_json(seq.to_json()) == seq


# -- profiles -----------------------------------------------------------------


def test_profile_drift():
    prof = profile(RationalDrift(1.0, 1.0, 1.0))
    assert prof.liminf.exact and prof.liminf.lo == 1.0
    assert prof.limsup.exact and prof.limsup.hi == 1.0
    assert prof.bounded_above is Answer.YES
    assert prof.exact


def test_profile_linear_and_blocks_unbounded():
    for seq in (Linear(1.0, 0.0), BlockRepeat()):
        prof = profile(seq)
        assert prof.limsup.lo == INF
        assert prof.bounded_above is Answer.NO


def test_profile_merge_split_limits():
    m = Merge(Evens(), Const(2), Const(5))
    prof = profile(m)
    assert (prof.liminf.lo, prof.liminf.hi) == (2.0, 2.0)
    assert (prof.limsup.lo, prof.limsup.hi) == (5.0, 5.0)
    assert prof.bounded_above is Answer.YES


def test_profile_prefix_ignores_overrides():
    prof = profile(Prefix(((1, 10.0), (3, 7.0)), Const(2)))
    assert prof.liminf.lo == 2.0 and prof.limsup.hi == 2.0


def test_profile_onset_soundness():
    # beyond the reported onset, values stay within 1e-9 of the limit
    seq = RationalDrift(2.0, 3.0, 1.0)
    prof = profile(seq)
    n0 = prof.onset
    vals = seq.eval_range(n0, n0 + 1000)
    assert np.all(np.abs(vals - 2.0) <= 1e-9 * 1.01)


@pytest.mark.parametrize(
    "expr, onset",
    [
        ("2 + 2/n^0.5", 4 * 10**18),  # 2/√n <= 10^-9 first at n = 4·10^18
        ("1.5 - 2/n^0.5", 4 * 10**18),
        ("2 + 1/n^0.5", 10**18),
        ("2 + recip(blocks)", None),  # 1/a_n <= 10^-9 only from block 10^9, whose first index has no print
    ],
)
def test_profile_onset_is_the_least_index(expr, onset):
    assert profile(parse_expression(expr)).onset == onset


def test_profile_onset_past_the_exceptions_of_the_index_set():
    # on_set holds off {3, 7}; the exceptions move the onset past 7
    assert profile(Merge(Complement(Thinned(indices=(3, 7))), Const(2), Linear(1, 0))).onset == 8


def test_profile_mixed_branch_is_inexact_interval():
    mixed = AbsDiff(Linear(1.0, 0.0), BlockRepeat())  # n - a_n mixes variables
    prof = profile(mixed)
    assert not prof.exact
    assert prof.sample_range is not None


# -- liminf gaps ---------------------------------------------------------------


def test_gap_positive_constant():
    g = liminf_abs_gap(Const(3), Const(2))
    assert g.kind is GapKind.POSITIVE
    assert g.epsilon == pytest.approx(1.0)


def test_gap_zero_drift():
    g = liminf_abs_gap(RationalDrift(2.0, 1.0, 1.0), Const(2))
    assert g.kind is GapKind.ZERO


def test_gap_positive_onset_is_sound():
    p, q = RationalDrift(3.0, -5.0, 0.5), Const(2)
    g = liminf_abs_gap(p, q)
    assert g.kind is GapKind.POSITIVE
    d = AbsDiff(p, q)
    vals = d.eval_range(g.onset, g.onset + 2000)
    assert np.all(vals >= g.epsilon * (1 - 1e-12))


def test_gap_onset_is_the_least_index_past_every_float():
    # the exponent is read as 1/100, so 1 − 2·n^(−1/100) >= 0 first at n = 2^100, where it is
    # exactly 0: a zero that only the integer sign at a perfect 100th power settles
    g = liminf_abs_gap(parse_expression("3 - 2/n^0.01"), Const(1))
    assert (g.kind, g.epsilon, g.onset) == (GapKind.POSITIVE, 1.0, 2**100)


def test_gap_zero_on_one_merge_branch_wins():
    p = Merge(Evens(), Const(2), Const(5))
    q = Const(2)
    assert liminf_abs_gap(p, q).kind is GapKind.ZERO


def test_signed_gap():
    g = signed_liminf_gap(Const(3), Const(2))
    assert g.kind is GapKind.POSITIVE and g.epsilon == pytest.approx(1.0)
    assert signed_liminf_gap(Const(2), Const(3)).kind is GapKind.ZERO
    assert signed_liminf_gap(Linear(1, 1), Linear(1, 0)).kind is GapKind.POSITIVE


def test_signed_gap_unknown_where_a_row_mixes_n_and_blocks():
    assert signed_liminf_gap(Linear(1, 0), BlockRepeat()).kind is GapKind.UNKNOWN


def test_gap_of_blocks_pair():
    # |2 - (2 + 1/a_n)| = 1/a_n -> 0
    q = Sum(Const(2), Recip(BlockRepeat()))
    assert liminf_abs_gap(Const(2), q).kind is GapKind.ZERO


def test_profile_random_descriptors_enclose_samples():
    # enclosure soundness: sampled values near 1e5 fall inside [liminf-eps, limsup+eps]
    rng = random.Random(99)
    for _ in range(40):
        seq = gen_exponent(rng, depth=1)
        prof = profile(seq)
        if not prof.exact:
            continue
        if prof.onset is None or prof.onset > 10**6:
            continue  # the enclosure only claims anything beyond the onset (null: past printing)
        start = max(prof.onset, 10**5)
        vals = seq.eval_range(start, start + 200)
        finite = vals[np.isfinite(vals)]
        if finite.size and prof.limsup.hi != INF:
            assert finite.max() <= prof.limsup.hi + 1e-9
        if finite.size and prof.liminf.lo != INF:
            assert finite.min() >= prof.liminf.lo - 1e-9


MIXED_ENCLOSURES = [
    ("recip(n + recip(blocks))", (0, 0)),
    ("absdiff(n, blocks)", (0, INF)),  # ∞ − ∞
    ("rn(3, 2 + recip(n + blocks))", (6, 6)),
    ("rn(recip(n + blocks), 2)", (INF, INF)),
    ("nakexp(n + blocks, 2)", (2, 2)),
    ("nakexp(blocks + recip(n), n)", (INF, INF)),  # p·q/|p − q| >= min(p, q)
    ("recip(recip(n + blocks))", (INF, INF)),
]


@pytest.mark.parametrize("expr, ends", MIXED_ENCLOSURES)
def test_mixed_branch_enclosure_is_exact(expr, ends):
    # a branch that mixes n and a_n has no closed form; its enclosure comes from the same
    # combination rules at the corners of its operands' enclosures
    seq = parse_expression(expr)
    (branch,) = normalize(seq)
    assert branch.form is None
    assert (branch.limits.lo, branch.limits.hi) == ends
    prof = profile(seq)
    assert (prof.liminf.lo, prof.liminf.hi) == ends == (prof.limsup.lo, prof.limsup.hi)
    if INF not in ends:  # far out, the values approach it
        for n in (10**6, 10**9, 10**12):
            assert ends[0] - 1e-4 <= seq.eval(n) <= ends[1] + 1e-4


def test_profile_onset_past_the_printable_range_is_null():
    # |f − 2| <= 1e-9 holds only past 10^4300; the signs near there need 1027-bit
    # coefficients, which the float tier scales instead of leaving to decimals
    prof = profile(parse_expression("2 + 1e300/n^1e-300"))
    assert (prof.liminf.lo, prof.limsup.hi) == (2, 2)
    assert prof.onset is None


def test_profile_limit_next_to_one_is_exact():
    prof = profile(parse_expression("1 + recip(1e16)"))
    assert prof.liminf.lo > 1 and prof.liminf.lo - 1 == Fraction(1, 10**16)
    assert prof.liminf.to_json() == [1.0000000000000002, 1.0000000000000002]
    assert str(prof.liminf) == "[1.0000000000000002, 1.0000000000000002]"


def test_rn_of_zero_operand_follows_reciprocal_rule():
    # 1/0 = ∞ in the scalar path too, matching eval_range
    for seq in (RnOf(Recip(Const(INF)), Const(2)), RnOf(Const(2), Recip(Const(INF)))):
        assert seq.eval(3) == seq.eval_range(3, 4)[0]
    assert RnOf(Recip(Const(INF)), Const(2)).eval(2**53 + 1) == INF


def test_exponents_does_not_import_asymptotics():
    # the import runs one way: _asymptotics -> exponents.  A bare package
    # object stands in for nakanoseq/__init__.py, which imports everything.
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('nakanoseq')\n"
        f"pkg.__path__ = [{os.path.dirname(nakanoseq.__file__)!r}]\n"
        "sys.modules['nakanoseq'] = pkg\n"
        "import nakanoseq.exponents\n"
        "assert 'nakanoseq._asymptotics' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_rn_of_zero_operand_closed_form_matches_eval():
    # rn(0, n) is ∞ at every n, so this exponent is 2 everywhere
    seq = Merge(Evens(), Sum(Const(2), Recip(RnOf(Recip(Const(INF)), Linear(1)))), Const(2))
    assert set(seq.eval_range(1, 100)) == {2.0}
    prof = profile(seq)
    assert prof.bounded_above is Answer.YES
    assert (prof.liminf.lo, prof.limsup.hi) == (2.0, 2.0)


# -- array combinators and block evaluation ----------------------------------------

_GRID = [0.0, 1e-300, 0.5, 1.0, 1.0 + 1e-10, 2.0, 3.0, 1e200, 1e308, INF]


class _Fixed(ExponentSequence):
    """A stub descriptor: fixed values at n = 1, 2, ..."""

    def __init__(self, values):
        self.values = np.array(values, dtype=np.float64)

    def eval(self, n):
        return float(self.values[n - 1])

    def _eval_array(self, ns):
        return self.values[ns.astype(np.int64) - 1]


def _same_bits(arr, scalars):
    return [float(x).hex() for x in arr] == [float(x).hex() for x in scalars]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # Sum of 1e308 and 1e308 overflows to ∞
def test_combinator_arrays_match_scalar_eval_on_extended_grid():
    # p = q = 0 and p = q = 1e-300 give nan under a naive p·q/|p − q|
    p = _Fixed([a for a in _GRID for _ in _GRID])
    q = _Fixed([b for _ in _GRID for b in _GRID])
    ns = np.arange(1, len(_GRID) ** 2 + 1, dtype=np.float64)
    for cls in (NakanoExponent, RnOf, AbsDiff, Sum):
        seq = cls(p, q)
        assert _same_bits(seq._eval_array(ns), [seq.eval(n) for n in range(1, ns.size + 1)]), cls.__name__
    recip = Recip(_Fixed(_GRID))
    assert _same_bits(recip._eval_array(ns[: len(_GRID)]), [recip.eval(n) for n in range(1, len(_GRID) + 1)])


def test_eval_range_blocks_match_one_array_call():
    spans = [(1, EVAL_BLOCK + 1), (1, EVAL_BLOCK + 2), (EVAL_BLOCK - 1, 3 * EVAL_BLOCK + 2)]
    rng = random.Random(4096)
    for _ in range(40):
        seq = gen_dsl_ast(rng, depth=3)
        for start, stop in spans:
            whole = seq._eval_array(np.arange(start, stop, dtype=np.float64))
            assert np.array_equal(seq.eval_range(start, stop), whole), (str(seq), start, stop)
        for start, stop in ((5, 5), (9, 3)):
            empty = seq.eval_range(start, stop)
            assert empty.dtype == np.float64 and empty.size == 0
    nine = block_start(9)
    assert nine == 17650829
    start, stop = nine - EVAL_BLOCK - 3, nine + EVAL_BLOCK + 5
    vals = BlockRepeat().eval_range(start, stop)
    assert np.array_equal(vals, BlockRepeat()._eval_array(np.arange(start, stop, dtype=np.float64)))
    assert vals[nine - start - 1] == 8.0 and vals[nine - start] == 9.0


def test_eval_range_memory_is_output_plus_one_block():
    seq = NakanoExponent(BlockRepeat(), Sum(BlockRepeat(), Recip(RationalDrift(2.0, 1.0, 1.0))))
    tracemalloc.start()
    try:
        vals = seq.eval_range(1, 500_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one whole-span _eval_array call would build every temporary of the tree at 4 MB (7.25×)
    assert peak < 1.5 * vals.nbytes


def _array_matches_scalar(seq, ns):
    ns = np.array(ns, dtype=np.float64)
    return _same_bits(seq._eval_array(ns), [seq.eval(int(n)) for n in ns])


def test_block_repeat_array_path_matches_scalar_eval():
    eight = block_start(8)
    assert eight == 873613
    rng = random.Random(873613)
    spans = [
        [7],  # a single index
        [1],
        list(range(eight - 40, eight - 5)),  # inside block 7
        list(range(eight - 5, eight + 5)),  # across block 8's start
        [eight - 1, eight],  # the last index of block 7 and the first of block 8
        [eight, eight - 1, 3, eight + 9, 28, 27, 1, eight],  # unsorted
        rng.sample(range(1, 2 * eight), 500),
    ]
    for ns in spans:
        assert _array_matches_scalar(BlockRepeat(), ns), ns[:5]
    assert BlockRepeat()._eval_array(np.array([], dtype=np.float64)).size == 0


@pytest.mark.parametrize(
    "index_set",
    [
        All(),
        Evens(),
        Odds(),
        Thinned(stride=3),
        Thinned(stride=10**12),
        Thinned(indices=(2, 5)),
        Complement(Thinned(stride=3)),
        Complement(Thinned(indices=(2, 5))),
    ],
)
def test_merge_array_path_matches_scalar_eval(index_set):
    seq = Merge(index_set, Linear(1.0, 0.0), BlockRepeat())
    rng = random.Random(12)
    big = [10**12 - 1, 10**12, 10**12 + 1, 3 * 10**12]
    spans = [[5], [1], list(range(1, 400)), big + [7, 2, 6, 5, 1], rng.sample(range(1, 10**6), 300) + big]
    for ns in spans:
        assert _array_matches_scalar(seq, ns), (index_set, ns[:5])


def test_merge_mask_memory_is_independent_of_modulus():
    seq = Merge(Thinned(stride=10**12), Const(2), BlockRepeat())
    tracemalloc.start()
    try:
        vals = seq.eval_range(1, 500_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * vals.nbytes


def test_merge_normalizes_its_index_set_once(monkeypatch):
    # a complement's periodic form costs O(modulus); 2^18 terms span 16 blocks
    calls = []
    periodic = Complement.periodic
    monkeypatch.setattr(Complement, "periodic", lambda self: calls.append(self) or periodic(self))
    seq = Merge(Complement(Thinned(stride=10**5)), Const(2), BlockRepeat())
    vals = seq.eval_range(1, 2**18 + 1)
    assert [vals[n - 1] for n in (1, 10**5, 2 * 10**5, 2**18)] == [seq.eval(n) for n in (1, 10**5, 2 * 10**5, 2**18)]
    assert vals[10**5 - 1] == block_value(10**5) and vals[0] == 2.0
    assert len(calls) == 1
    # the cached plan stays outside ==, hash and repr
    fresh = Merge(Complement(Thinned(stride=10**5)), Const(2), BlockRepeat())
    assert seq == fresh and hash(seq) == hash(fresh) and repr(seq) == repr(fresh)
