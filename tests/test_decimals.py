"""Decimal literals: the analysis reads each descriptor constant as the decimal it
prints as, so sums of decimals equal the decimal they add up to, and exact gaps
are never rounded up into the certificates that state them."""
import itertools
import random

import pytest

import nakanoseq as N
from _generators import SUMMANDS, gen_decimal_pair

DECIMAL_PAIRS = list(itertools.combinations_with_replacement(SUMMANDS, 2))  # 36 pairs a <= b


@pytest.mark.parametrize("a, b", DECIMAL_PAIRS)
def test_a_sum_of_decimals_equals_its_decimal(a, b):
    """a + b and round(a + b, 10) give the same space: 1.1 + 2.2 is 3.3, whatever the
    floats 1.1 + 2.2 and 3.3 are."""
    p, q = N.parse_expression(f"{a!r} + {b!r}"), N.parse_expression(repr(round(a + b, 10)))
    report = N.full_report(p, q, witness_count=0)
    assert report.inclusion_holds.answer is N.Answer.YES
    assert report.spaces_equal.answer is N.Answer.YES
    assert report.gap.kind is N.GapKind.ZERO


def test_constant_gap_epsilon_is_the_largest_float_below_it():
    """|10 − (2 + 1/3)| = 23/3 at every n; the float nearest 23/3 lies above it, so ε is
    the float below, and the claim holds from n = 1."""
    report = N.full_report(N.Const(10.0), N.parse_expression("2 + recip(3)"), witness_count=0)
    assert (report.gap.epsilon, report.gap.onset, report.gap.note) == (7.666666666666666, 1, "gap is constant")
    assert report.gap.epsilon < 23 / 3 == 7.666666666666667
    inclusion = report.inclusion_holds
    assert inclusion.answer is N.Answer.NO and inclusion.citation == N.NAKANO_LEMMA
    assert "p_n >= q_n + 7.66667 from 1 and" in inclusion.certificate.statement


def test_decimal_fuzz_reports_are_consistent():
    """1000 ``gen_decimal_pair`` draws: ``full_report`` raises no InternalInconsistency."""
    rng = random.Random(19)
    for _ in range(1000):
        p, q = gen_decimal_pair(rng)
        N.full_report(p, q, witness_count=0)
