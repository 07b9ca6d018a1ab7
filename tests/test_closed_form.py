"""Branch closed forms against pointwise evaluation.

For every combinator over every ordered pair of a few base shapes (and the
reciprocal of each shape), wherever the closed form exists with an onset
within reach, its values from the onset on must match ``eval_range``: ∞
exactly, finite values to a relative 1e-9.
"""
import math

from nakanoseq import (
    AbsDiff,
    BlockRepeat,
    Const,
    Linear,
    NakanoExponent,
    RationalDrift,
    Recip,
    RnOf,
    Sum,
    block_value,
)
from nakanoseq._asymptotics import VAR_A, normalize

INF = math.inf
CHECKED = 300  # indices compared from each onset

SHAPES = [
    Const(2.0),
    Const(INF),
    Recip(Const(INF)),
    RationalDrift(2.0, -1.0, 0.5),
    RationalDrift(1.5, 2.0, 1.0),
    Linear(1.0, 0.0),
    Linear(2.0, 3.0),
    BlockRepeat(),
    Sum(Const(2.0), Recip(BlockRepeat())),
]
FORMS = [cls(a, b) for cls in (AbsDiff, Sum, RnOf, NakanoExponent) for a in SHAPES for b in SHAPES]
FORMS += [Recip(s) for s in SHAPES]


def _mismatch(form, cf):
    """The first index where the closed form and eval_range disagree, else None."""
    vals = form.eval_range(cf.onset, cf.onset + CHECKED)
    for n, v in zip(range(cf.onset, cf.onset + CHECKED), vals):
        w = cf.eval_x(float(block_value(n) if cf.var == VAR_A else n))
        if v == INF or w == INF:
            if v != w:
                return n
        elif not math.isclose(v, w, rel_tol=1e-9, abs_tol=0.0):
            return n
    return None


def test_closed_forms_match_pointwise_values():
    checked = 0
    for form in FORMS:
        (branch,) = normalize(form)
        cf = branch.form
        if cf is None or cf.onset > 10**6:
            continue
        assert _mismatch(form, cf) is None, (form, cf)
        checked += 1
    # the forms that mix n and a_n have no closed form; every other one is checked
    assert checked == 269
