"""Seeded random descriptor generators shared across test modules.

Two flavors:

* ``gen_dsl_ast`` — ASTs guaranteed to be canonical-printer round-trippable
  (the printer's one ambiguity, a zero-intercept Linear absorbed into a
  following additive constant, is avoided by never putting Linear inside Sum).
* ``gen_pair`` — (p, q) descriptor pairs exercising the classifier: related
  pairs (equal spaces, drifted copies, gapped pairs) are overrepresented so
  the invariant checks see all verdict combinations.  Its constants are
  dyadic, so they are exact as floats.
* ``gen_decimal_pair`` — ``gen_pair``'s shapes with decimal constants that
  no float holds exactly (1.1, 0.3, ...), and sums of two decimals against
  the decimal they add up to.
"""
from __future__ import annotations

import random
from dataclasses import fields, replace

from nakanoseq import (
    AbsDiff,
    BlockRepeat,
    Const,
    Evens,
    ExponentSequence,
    Linear,
    Merge,
    NakanoExponent,
    Odds,
    Prefix,
    RationalDrift,
    Recip,
    RnOf,
    Sum,
)

INF = float("inf")

_CONSTS = [1.0, 1.5, 2.0, 3.0, 10.0]
_LIMITS = [1.0, 1.5, 2.0, 3.0]
_COEFFS = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]
_DECAYS = [0.5, 1.0, 2.0]


def gen_base(rng: random.Random, allow_inf: bool = True, allow_sum: bool = True):
    roll = rng.random()
    if roll < 0.30 or (roll >= 0.90 and not allow_sum):
        value = rng.choice(_CONSTS + ([INF] if allow_inf else []))
        return Const(value)
    if roll < 0.55:
        return RationalDrift(rng.choice(_LIMITS), rng.choice(_COEFFS), rng.choice(_DECAYS))
    if roll < 0.75:
        slope = rng.choice([1.0, 2.0])
        intercept = rng.choice([0.0, 1.0, 3.0])
        return Linear(slope, intercept)
    if roll < 0.90:
        return BlockRepeat()
    return Sum(Const(rng.choice(_CONSTS)), Recip(gen_base(rng, allow_inf=False)))


def gen_dsl_ast(rng: random.Random, depth: int = 2):
    """A DSL-expressible AST whose canonical print re-parses identically."""
    if depth <= 0:
        return gen_base(rng)
    roll = rng.random()
    if roll < 0.40:
        return gen_base(rng)
    if roll < 0.55:
        index_set = rng.choice([Evens(), Odds()])
        return Merge(index_set, gen_dsl_ast(rng, depth - 1), gen_dsl_ast(rng, depth - 1))
    if roll < 0.70:
        count = rng.randint(1, 3)
        indices = rng.sample(range(1, 10), count)
        overrides = tuple((i, float(rng.choice(_CONSTS))) for i in sorted(indices))
        return Prefix(overrides, gen_dsl_ast(rng, depth - 1))
    if roll < 0.80:
        # Sum operands avoid Linear (zero-intercept Linear + Const is the
        # printer's one ambiguous shape) and right-nested Sums (the flat
        # "a + b + c" print re-parses left-folded)
        left = gen_dsl_ast(rng, depth - 1)
        right = gen_dsl_ast(rng, depth - 1)
        if isinstance(left, Linear) or isinstance(right, (Linear, Sum)):
            return gen_base(rng, allow_sum=False)
        return Sum(left, right)
    if roll < 0.90:
        cls = rng.choice([AbsDiff, RnOf, NakanoExponent])
        return cls(gen_dsl_ast(rng, depth - 1), gen_dsl_ast(rng, depth - 1))
    return Recip(gen_dsl_ast(rng, depth - 1))


def gen_exponent(rng: random.Random, depth: int = 1):
    """A valid exponent sequence (values in [1, ∞]) for classifier fuzzing."""
    if depth <= 0 or rng.random() < 0.55:
        return gen_base(rng)
    roll = rng.random()
    if roll < 0.55:
        index_set = rng.choice([Evens(), Odds()])
        return Merge(index_set, gen_exponent(rng, depth - 1), gen_exponent(rng, depth - 1))
    if roll < 0.85:
        count = rng.randint(1, 2)
        overrides = tuple((i, float(rng.choice(_CONSTS))) for i in sorted(rng.sample(range(1, 6), count)))
        return Prefix(overrides, gen_exponent(rng, depth - 1))
    return Sum(Const(rng.choice(_CONSTS)), Recip(gen_base(rng, allow_inf=False)))


def gen_pair(rng: random.Random):
    """(p, q) pairs with overrepresented related structure."""
    p = gen_exponent(rng)
    roll = rng.random()
    if roll < 0.20:
        return p, p  # identical
    if roll < 0.40:
        # drifted copy: equal spaces or vanishing gap candidates
        return p, Sum(p, Recip(gen_base(rng, allow_inf=False)))
    if roll < 0.55:
        # constant shift: positive gap
        return p, Sum(p, Const(rng.choice([1.0, 2.0])))
    if roll < 0.70:
        return Sum(p, Const(rng.choice([1.0, 2.0]))), p  # reverse gap
    return p, gen_exponent(rng)


# each dyadic constant of gen_pair -> a nearby decimal with the same role and sign
_DECIMALS = {1.0: 1.1, 1.5: 1.7, 2.0: 2.2, 3.0: 3.3, 10.0: 2.6, 0.5: 0.3, -0.5: -0.3, -1.0: -1.1, -2.0: -2.2}
SUMMANDS = [1.01, 1.1, 1.2, 1.3, 1.7, 2.2, 2.6, 3.3]


def _decimal_copy(seq):
    """``seq`` with every float field v, prefix overrides included, replaced by _DECIMALS[v]."""
    changes = {}
    for f in fields(seq):
        v = getattr(seq, f.name)
        if isinstance(v, ExponentSequence):
            changes[f.name] = _decimal_copy(v)
        elif isinstance(v, float):
            changes[f.name] = _DECIMALS.get(v, v)
        elif isinstance(v, tuple):  # Prefix overrides
            changes[f.name] = tuple((i, _DECIMALS.get(x, x)) for i, x in v)
    return replace(seq, **changes)


def gen_decimal_pair(rng: random.Random):
    """One draw in five a + b against the decimal round(a + b, 10), a and b from SUMMANDS;
    otherwise a ``gen_pair`` draw with its constants swapped for decimals."""
    if rng.random() < 0.2:
        a, b = rng.choice(SUMMANDS), rng.choice(SUMMANDS)
        return Sum(Const(a), Const(b)), Const(round(a + b, 10))
    p, q = gen_pair(rng)
    return _decimal_copy(p), _decimal_copy(q)
