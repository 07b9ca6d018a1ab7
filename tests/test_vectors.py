"""Modular and Luxemburg norm: oracles, properties, and edge cases."""
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from nakanoseq import (
    BlockRepeat,
    Const,
    Merge,
    Evens,
    NormComputationError,
    Prefix,
    Recip,
    SemanticError,
    SparseVector,
    basis_vector,
    in_unit_ball,
    luxemburg_norm,
    modular,
    parse_expression,
)

INF = math.inf


# -- SparseVector -------------------------------------------------------------


def test_from_pairs_validation():
    with pytest.raises(SemanticError):
        SparseVector.from_pairs([(0, 1.0)])
    with pytest.raises(SemanticError):
        SparseVector.from_pairs([(1, INF)])
    with pytest.raises(SemanticError):
        SparseVector.from_pairs([(1, 1.0), (1, 2.0)])
    x = SparseVector.from_pairs([(3, 0.0), (1, 2.0)])
    assert x.support == (1,)  # zeros dropped, sorted


def test_vector_json_round_trip():
    x = SparseVector.from_pairs([(2, -1.5), (7, 3.0)])
    assert SparseVector.from_json(x.to_json()) == x
    assert SparseVector.from_json([[2, -1.5], [7, 3.0]]) == x


def test_vector_algebra():
    x = SparseVector.from_pairs([(1, 1.0), (2, -2.0)])
    y = SparseVector.from_pairs([(2, 2.0), (3, 5.0)])
    assert x.add(y).support == (1, 3)  # the index-2 entries cancel
    assert x.scale(2.0)[2] == -4.0
    assert x.abs()[2] == 2.0
    assert basis_vector(4)[4] == 1.0


# -- modular ------------------------------------------------------------------


def test_modular_constant_exponent():
    x = SparseVector.from_pairs([(1, 0.6), (2, 0.8)])
    assert modular(Const(2), x) == pytest.approx(1.0)
    assert in_unit_ball(Const(2), x)


def test_modular_infinite_exponent():
    p = Prefix(((1, INF),), Const(2))
    assert modular(p, SparseVector.from_pairs([(1, 0.9)])) == 0.0
    assert modular(p, SparseVector.from_pairs([(1, 1.1)])) == INF
    assert modular(p, SparseVector.from_pairs([(1, 0.9), (2, 2.0)])) == 4.0


# -- Luxemburg norm: oracles ----------------------------------------------------


def lp_oracle(c, entries):
    # [DERIVED] independent closed form for constant exponents
    return sum(abs(v) ** c for v in entries) ** (1.0 / c)


def test_norm_matches_lp_closed_form():
    rng = random.Random(12345)
    for c in (1.0, 1.5, 2.0, 3.0, 10.0):
        for _ in range(40):
            support = rng.sample(range(1, 100), rng.randint(1, 8))
            entries = [(i, rng.uniform(-10, 10)) for i in support]
            x = SparseVector.from_pairs(entries)
            if not x.entries:
                continue
            r = luxemburg_norm(Const(c), x)
            assert r.converged
            assert r.value == pytest.approx(lp_oracle(c, [v for _, v in x.entries]), rel=1e-10)


def test_norm_golden_ratio():
    # [DERIVED] p = (1, 2), x = (1, 1): 1/r + 1/r^2 = 1 => r = (1 + sqrt 5)/2
    oracle = (1.0 + math.sqrt(5.0)) / 2.0
    p = Prefix(((1, 1.0),), Const(2))
    x = SparseVector.from_pairs([(1, 1.0), (2, 1.0)])
    r = luxemburg_norm(p, x)
    assert r.value == pytest.approx(oracle, rel=1e-10)


def test_norm_zero_vector():
    r = luxemburg_norm(Const(2), SparseVector.from_pairs([]))
    assert r.value == 0.0 and r.converged


def test_norm_pure_sup_part():
    p = Const(INF)
    x = SparseVector.from_pairs([(1, 3.0), (5, -7.0)])
    r = luxemburg_norm(p, x)
    assert r.value == 7.0 and r.converged  # [TRIVIAL] sup norm


def test_norm_sup_floor_binds():
    # index 1 has exponent inf with |x_1| = 5; the finite part alone would
    # need radius 2, so the floor 5 binds and the modular stays below 1
    p = Prefix(((1, INF),), Const(2))
    x = SparseVector.from_pairs([(1, 5.0), (2, 2.0)])
    r = luxemburg_norm(p, x)
    assert r.value == 5.0
    assert r.residual == pytest.approx((2.0 / 5.0) ** 2)


def test_norm_single_coordinate_exact():
    r = luxemburg_norm(Const(3), SparseVector.from_pairs([(4, -2.5)]))
    assert r.value == 2.5 and r.iterations == 0


def test_norm_rel_tol_validation():
    x = SparseVector.from_pairs([(1, 1.0)])
    with pytest.raises(SemanticError):
        luxemburg_norm(Const(2), x, rel_tol=0.5)
    with pytest.raises(SemanticError):
        luxemburg_norm(Const(2), x, rel_tol=0.0)


def test_norm_unit_ball_consistency():
    # scaling by the norm puts the vector on the modular unit ball
    p = Merge(Evens(), Const(2), Const(3))
    x = SparseVector.from_pairs([(1, 2.0), (2, -4.0), (3, 1.0), (8, 0.5)])
    r = luxemburg_norm(p, x)
    assert in_unit_ball(p, x.scale(1.0 / r.value))
    assert modular(p, x.scale(1.0 / (r.value * 0.99))) > 1.0


def test_norm_near_float_range():
    # scaling keeps the bracket finite; the norm itself fits in float64
    x = SparseVector.from_pairs([(1, 1e308), (2, 1e308)])
    r = luxemburg_norm(Const(2), x)
    assert r.converged and r.value == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-12)
    with pytest.raises(NormComputationError, match="float64 range"):
        luxemburg_norm(Const(1), x)  # 2e308 is not a float
    tiny = luxemburg_norm(Const(1), SparseVector.from_pairs([(1, 1e-320), (2, 1e-320)]))
    assert tiny.converged and tiny.value == 2 * 1e-320


def test_norm_rejects_exponents_below_one():
    # the bracket [max|x_i|, Σ|x_i|] needs p_i >= 1 (recip(2) has root 4 > 2)
    x = SparseVector.from_pairs([(1, 1.0), (2, 1.0)])
    with pytest.raises(SemanticError, match="index 1"):
        luxemburg_norm(Recip(Const(2)), x)


# -- Luxemburg norm: the Newton solver ------------------------------------------


def reference_modular(p, x, r):
    """ρ(x/r) by scalar p.eval and math.fsum, independent of the solver."""
    terms = []
    for i, v in x.entries:
        e = p.eval(i)
        if e == INF:
            if abs(v) > r:
                return INF
        else:
            terms.append((abs(v) / r) ** e)
    return math.fsum(terms)


SOLVER_EXPONENTS = ["1", "2", "1 + 1/n", "blocks", "n", "prefix(2=inf, 5=1; merge(odd: inf, 2))", "merge(even: inf, 1.5)"]


def test_norm_bracket_certified_independently():
    rng = random.Random(31337)
    for text in SOLVER_EXPONENTS:
        p = parse_expression(text)
        for _ in range(8):
            n = rng.choice([1, 2, 7, 60, 700, 5000])
            support = rng.sample(range(1, 4 * n + 10), n)
            scale = 10.0 ** rng.uniform(-6, 6)
            x = SparseVector.from_pairs((i, scale * rng.uniform(-1, 1)) for i in support)
            r = luxemburg_norm(p, x)
            assert r.converged and r.iterations <= 20, (text, r)
            lo, hi = r.bracket
            assert hi == r.value
            assert reference_modular(p, x, r.value) <= 1 + 1e-12, (text, r)
            if lo < hi:
                assert reference_modular(p, x, lo) > 1 - 1e-12, (text, r)
            else:  # exact: no radius below the largest entry is admissible
                assert r.value == max(abs(v) for _, v in x.entries)


def test_norm_const_one_root_on_the_sum():
    # φ(r) = Σ|x_i|/r: the root is the (rounded) upper end of the bracket
    for a, b in [(1.0, 1.0), (3.0, -4.0), (1e-3, 7.5), (2.0, 1e-9)]:
        r = luxemburg_norm(Const(1), SparseVector.from_pairs([(1, a), (2, b)]))
        assert r.converged and r.iterations <= 20
        assert r.value == pytest.approx(abs(a) + abs(b), rel=1e-15)


def test_norm_flat_vector_of_1e5_entries():
    n = 10**5
    r = luxemburg_norm(Const(2), SparseVector.from_pairs((i, 1.0) for i in range(1, n + 1)))
    assert r.converged
    assert abs(r.value - math.sqrt(n)) <= 1e-12


def test_norm_support_beyond_float_exact_indices():
    # indices from 2**53 on are evaluated by scalar eval, not eval_range
    big = [3, 2**53 + 1, 2**60, 10**400]
    values = [2.0, -1.5, 0.5, 3.0]
    p = BlockRepeat()
    exps = [p.eval(i) for i in big]
    assert exps == [2.0, 14.0, 16.0, 178.0]
    # the same exponents at small indices, spelled out as overrides
    q = Prefix(tuple((k + 1, e) for k, e in enumerate(exps)), Const(1))
    x = SparseVector.from_pairs(zip(big, values))
    y = SparseVector.from_pairs(zip(range(1, 5), values))
    assert luxemburg_norm(p, x) == luxemburg_norm(q, y)
    assert modular(p, x) == modular(q, y)
    r = luxemburg_norm(p, x)
    assert reference_modular(p, x, r.bracket[0]) > 1 - 1e-12
    assert reference_modular(p, x, r.value) <= 1 + 1e-12


# -- Luxemburg norm: hypothesis properties --------------------------------------


entry_values = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False).filter(lambda v: abs(v) > 1e-6)
vectors = st.dictionaries(st.integers(min_value=1, max_value=50), entry_values, min_size=1, max_size=10).map(
    lambda d: SparseVector.from_pairs(d.items())
)

MIXED_P = Merge(Evens(), Const(1.5), Prefix(((1, INF), (3, 1.0)), Const(3)))


@settings(max_examples=150, deadline=None)
@given(x=vectors)
def test_norm_sandwich(x):
    r = luxemburg_norm(MIXED_P, x)
    lo = max(abs(v) for _, v in x.entries)
    hi = sum(abs(v) for _, v in x.entries)
    assert lo * (1 - 1e-11) <= r.value <= hi * (1 + 1e-11)


@settings(max_examples=100, deadline=None)
@given(x=vectors, lam=st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
def test_norm_homogeneity(x, lam):
    r1 = luxemburg_norm(MIXED_P, x)
    r2 = luxemburg_norm(MIXED_P, x.scale(lam))
    assert r2.value == pytest.approx(lam * r1.value, rel=1e-11)


@settings(max_examples=100, deadline=None)
@given(x=vectors, y=vectors)
def test_norm_triangle(x, y):
    rx = luxemburg_norm(MIXED_P, x)
    ry = luxemburg_norm(MIXED_P, y)
    rxy = luxemburg_norm(MIXED_P, x.add(y))
    assert rxy.value <= (rx.value + ry.value) * (1 + 1e-11)


@settings(max_examples=100, deadline=None)
@given(x=vectors, shrink=st.floats(min_value=0.1, max_value=1.0))
def test_norm_lattice_monotonicity(x, shrink):
    smaller = x.scale(shrink)
    r_small = luxemburg_norm(MIXED_P, smaller)
    r_big = luxemburg_norm(MIXED_P, x)
    assert r_small.value <= r_big.value * (1 + 1e-11)


@pytest.mark.parametrize(
    "obj",
    [[[1, "x"]], [1, 2], {"enries": [[1, 1]]}, [[1e400, 1]], [[1.5, 2]], [[True, 1]], [[1, True]], [[1, 10**400]], 7],
    ids=["str-value", "flat", "bad-key", "inf-index", "fractional-index", "bool-index", "bool-value", "huge-value", "scalar"],
)
def test_from_json_rejects_malformed_entries(obj):
    with pytest.raises(SemanticError):
        SparseVector.from_json(obj)


def test_from_json_accepts_integral_float_index():
    assert SparseVector.from_json([[2.0, 1]]) == SparseVector.from_json({"entries": [[2, 1.0]]})


def test_norm_rejects_exponent_beyond_float_range():
    with pytest.raises(SemanticError):
        luxemburg_norm(parse_expression("n"), SparseVector.from_pairs([(10**400, 1.0)]))


# -- support arrays, built once per vector ----------------------------------------


class _CountingEntries(tuple):
    """An entries tuple that counts the full passes made over it."""

    passes = 0

    def __iter__(self):
        type(self).passes += 1
        return super().__iter__()


def test_support_arrays_built_once_per_vector(monkeypatch):
    monkeypatch.setattr(_CountingEntries, "passes", 0)
    x = SparseVector(_CountingEntries((i, (-1.0) ** i / i) for i in range(1, 200)))
    luxemburg_norm(Const(2), x)
    luxemburg_norm(parse_expression("1 + 1/n"), x)
    modular(BlockRepeat(), x)
    assert _CountingEntries.passes == 1


MIXED_SUPPORT = [(1, 0.5), (2, -0.25), (2**53, 0.75), (2**53 + 2, -0.125)]


@pytest.mark.parametrize("text", ["blocks", "n"])
def test_support_arrays_across_the_exact_index_limit(text):
    p, x = parse_expression(text), SparseVector.from_pairs(MIXED_SUPPORT)
    assert modular(p, x) == pytest.approx(reference_modular(p, x, 1.0), rel=1e-14)
    r = luxemburg_norm(p, x)
    assert r.converged
    assert reference_modular(p, x, r.value) <= 1 + 1e-12
    if r.bracket[0] < r.value:
        assert reference_modular(p, x, r.bracket[0]) > 1 - 1e-12
    # the cached arrays give the same answers again
    assert luxemburg_norm(p, x) == r
    assert modular(p, x) == modular(p, SparseVector.from_pairs(MIXED_SUPPORT))


def test_norm_names_a_tail_index_with_exponent_below_one():
    # recip(a_n) is 1 at n = 1 and 1/14 at n = 2**53 + 2
    x = SparseVector.from_pairs([(1, 1.0), (2**53 + 2, 1.0)])
    with pytest.raises(SemanticError, match=f"at index {2**53 + 2}$"):
        luxemburg_norm(Recip(BlockRepeat()), x)


def test_norm_leaves_the_vector_value_unchanged():
    x, fresh = SparseVector.from_pairs(MIXED_SUPPORT), SparseVector.from_pairs(MIXED_SUPPORT)
    luxemburg_norm(BlockRepeat(), x)
    modular(Const(2), x)
    assert x == fresh
    assert hash(x) == hash(fresh)
    assert repr(x) == repr(fresh)
    assert x.to_json() == fresh.to_json()


def test_getitem_by_index():
    x = SparseVector.from_pairs(MIXED_SUPPORT + [(10**400, 3.0)])
    assert [x[i] for i, _ in MIXED_SUPPORT] == [v for _, v in MIXED_SUPPORT]
    assert x[10**400] == 3.0
    for missing in (0, 3, 2**53 - 1, 2**53 + 1, 2**60, 10**401):
        assert x[missing] == 0.0
    assert SparseVector(())[1] == 0.0
