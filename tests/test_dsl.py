"""DSL parsing, canonical printing, and round-trip guarantees."""
import math
import random

import pytest

from nakanoseq import (
    BlockRepeat,
    Const,
    Linear,
    Merge,
    Odds,
    ParseError,
    Prefix,
    RationalDrift,
    Recip,
    SemanticError,
    Sum,
    Evens,
    parse_expression,
    print_expression,
)

from _generators import gen_dsl_ast

INF = math.inf


def test_parse_examples():
    assert parse_expression("1 + 1/n") == RationalDrift(1.0, 1.0, 1.0)
    assert parse_expression("n") == Linear(1.0, 0.0)
    assert parse_expression("blocks") == BlockRepeat()
    assert parse_expression("inf") == Const(INF)
    assert parse_expression("2") == Const(2.0)
    assert parse_expression("2 - 1/n^2") == RationalDrift(2.0, -1.0, 2.0)
    assert parse_expression("2*n + 3") == Linear(2.0, 3.0)
    assert parse_expression("2 + recip(blocks)") == Sum(Const(2.0), Recip(BlockRepeat()))
    assert parse_expression("merge(even: 2, 3)") == Merge(Evens(), Const(2.0), Const(3.0))
    assert parse_expression("merge(odd: n, inf)") == Merge(Odds(), Linear(1.0, 0.0), Const(INF))
    assert parse_expression("prefix(1=1, 4=2.5; 2)") == Prefix(((1, 1.0), (4, 2.5)), Const(2.0))


def test_parse_whitespace_insensitive():
    assert parse_expression("1+1/n") == parse_expression("1  +  1 / n")
    assert parse_expression("merge(even:2,3)") == parse_expression("merge( even : 2 , 3 )")


def test_parse_derived_combinators():
    e = parse_expression("nakexp(2, 2 + recip(blocks))")
    assert e.p == Const(2.0)
    e2 = parse_expression("absdiff(n, blocks)")
    assert e2.left == Linear(1.0, 0.0)
    e3 = parse_expression("rn(1 + 1/n, 1)")
    assert e3.q == Const(1.0)


def test_linear_vs_drift_disambiguation():
    # an additive constant that starts a drift stays with the drift
    assert parse_expression("n + 1 + 1/n") == Sum(Linear(1.0, 0.0), RationalDrift(1.0, 1.0, 1.0))
    assert parse_expression("n + 1") == Linear(1.0, 1.0)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_expression("merge(even: 2)")
    assert "column" in str(exc.value)
    with pytest.raises(ParseError):
        parse_expression("2 +")
    with pytest.raises(ParseError):
        parse_expression("")
    with pytest.raises(ParseError):
        parse_expression("2 $ 3")
    with pytest.raises(ParseError):
        parse_expression("frobnicate(2)")
    with pytest.raises(ParseError):
        parse_expression("2 2")


def test_semantic_errors_for_small_values():
    with pytest.raises(SemanticError):
        parse_expression("0.5")
    with pytest.raises(SemanticError):
        parse_expression("0.5 + 1/n")
    with pytest.raises(SemanticError):
        parse_expression("prefix(1=0.2; 2)")


def test_overflowing_literals_rejected():
    with pytest.raises(ParseError) as exc:
        parse_expression("1e400")
    assert "column 1" in str(exc.value)
    with pytest.raises(ParseError):
        parse_expression("2 + 1e999/n")
    with pytest.raises(ParseError):
        parse_expression("prefix(1e400=2; 2)")
    assert parse_expression("inf") == Const(INF)
    assert parse_expression("1e300") == Const(1e300)


def test_prefix_inf_override_round_trip():
    ast = Prefix(((1, INF), (3, 1.0)), Const(2.0))
    assert print_expression(ast) == "prefix(1=inf, 3=1; 2)"
    assert parse_expression(print_expression(ast)) == ast
    with pytest.raises(ParseError):
        parse_expression("prefix(inf=2; 2)")  # an index is still a number


def test_print_examples():
    assert print_expression(RationalDrift(1.0, 1.0, 1.0)) == "1 + 1/n"
    assert print_expression(Linear(1.0, 0.0)) == "n"
    assert print_expression(Const(INF)) == "inf"
    assert print_expression(RationalDrift(2.0, -1.0, 2.0)) == "2 - 1/n^2"
    assert print_expression(Sum(Const(2.0), Recip(BlockRepeat()))) == "2 + recip(blocks)"
    assert print_expression(Linear(2.0, -0.5)) == "2*n - 0.5"  # printer superset


def test_round_trip_fixed_corpus():
    corpus = [
        "1 + 1/n",
        "n",
        "2*n + 3",
        "blocks",
        "inf",
        "2 + recip(blocks)",
        "merge(even: 1 + 1/n, n)",
        "prefix(1=1, 2=3; merge(odd: 2, blocks))",
        "nakexp(2, 2 + recip(blocks))",
        "rn(1 + 1/n, 1)",
        "absdiff(2, 3)",
        "1.5 + 2.25/n^0.5",
        "2*n - 0.5",
    ]
    for text in corpus:
        ast = parse_expression(text)
        assert parse_expression(print_expression(ast)) == ast


def test_round_trip_generated_asts():
    rng = random.Random(20260823)
    for _ in range(300):
        ast = gen_dsl_ast(rng, depth=3)
        printed = print_expression(ast)
        assert parse_expression(printed) == ast, printed


def test_float_values_round_trip_exactly():
    ast = RationalDrift(1.0, 1.0 / 3.0, 0.1)
    assert parse_expression(print_expression(ast)) == ast


@pytest.mark.parametrize(
    "source, message, pos",
    [
        ("recip(2, 3)", "expected ')'", 7),
        ("rn(2)", "expected ','", 4),
        ("absdiff(2 3)", "expected ','", 10),
        ("nakexp(", "expected an expression", 7),
        ("recip()", "expected an expression", 6),
        ("rn(2, 3, 4)", "expected ')'", 7),
    ],
)
def test_call_form_errors(source, message, pos):
    with pytest.raises(ParseError) as info:
        parse_expression(source)
    assert info.value.pos == pos
    assert str(info.value) == f"{message} at line 1, column {pos + 1}\n  {source}\n  {' ' * pos}^"
