"""Explicit witness subsequences and desk-scale numerical probes.

Witnesses realize the existential claims behind No-verdicts: indices where
two exponent sequences approach each other at rate 1/k, or where a single
sequence climbs past every level k.  Ratio profiles exhibit (never prove)
norm collapse of flat vectors under an inclusion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import exponents as E
from ._asymptotics import GapKind, liminf_abs_gap, profile
from .errors import HorizonExhausted, NormComputationError, PreconditionError
from .indexsets import IndexSet, index_set_to_json
from .vectors import SparseVector, luxemburg_norm
from .verdicts import Answer

INF = math.inf

SCAN_HORIZON = 10**7
_FIRST_CHUNK = 64
_CHUNK = E.EVAL_BLOCK  # chunk cap: bounds how far a chunk overshoots the last hit
_REL_SLACK = 1e-12  # slack for float roundoff in the gap/growth comparisons


@dataclass(frozen=True)
class WitnessSubsequence:
    """A materialized strictly increasing index prefix with numeric checks."""

    kind: str  # "equality" or "linf"
    indices: tuple[int, ...]
    gaps: tuple[float, ...]  # |p - q| at the indices (equality) or p values (linf)
    checks: dict

    def to_json(self):
        return {
            "kind": self.kind,
            "indices": list(self.indices),
            "gaps": [E._num(g) for g in self.gaps],
            "checks": {k: (E._num(v) if isinstance(v, float) else v) for k, v in self.checks.items()},
        }

    def to_text(self) -> str:
        label = "gap" if self.kind == "equality" else "value"
        lines = [f"{self.kind} witness ({len(self.indices)} indices)"]
        for k, (n, g) in enumerate(zip(self.indices, self.gaps), start=1):
            lines.append(f"  k={k:<3d} n={n:<12d} {label}={g:.12g}")
        for key, val in self.checks.items():
            lines.append(f"  {key}: {val}")
        return "\n".join(lines)


def _scan(eval_range, hit, count: int, horizon: int, what: str) -> list[int]:
    """First ``count`` indices n_1 < n_2 < ... <= horizon with ``hit(values, k)``
    true at n_k, in one forward pass: each chunk of ``eval_range`` values is
    computed once and serves every k until it runs out.  Chunks double from
    ``_FIRST_CHUNK`` up to ``_CHUNK``, so the cost follows the last index reached."""
    indices: list[int] = []
    n = base = stop = 1  # next index to test; the chunk in hand covers [base, stop)
    size = _FIRST_CHUNK
    for k in range(1, count + 1):
        while True:
            if n == stop:
                if n > horizon:
                    raise HorizonExhausted(
                        f"no index with {what.format(k=k)} found for k={k} within {horizon} terms", k, horizon
                    )
                base, stop = n, min(horizon + 1, n + size)
                values = eval_range(base, stop)
                size = min(2 * size, _CHUNK)
            hits = np.flatnonzero(hit(values[n - base :], k))
            if hits.size:
                break
            n = stop
        indices.append(n + int(hits[0]))
        n = indices[-1] + 1
    return indices


def equality_witness(
    p: E.ExponentSequence, q: E.ExponentSequence, count: int, horizon: int = SCAN_HORIZON
) -> WitnessSubsequence:
    """First ``count`` indices n_1 < n_2 < ... with |p(n_k) − q(n_k)| <= 1/k.

    Requires a certified liminf |p_n − q_n| = 0; the checks record the
    modular Σ_k (1/2)^{e(n_k)} of the half-scaled flat vector on the witness,
    where e is the equality exponent p·q/|p − q| — it must stay <= 1.
    """
    if count < 1:
        raise PreconditionError("witness count must be positive")
    gap = liminf_abs_gap(p, q)
    if gap.kind is not GapKind.ZERO:
        raise PreconditionError(
            f"equality witness needs liminf |p_n - q_n| = 0; the gap verdict is {gap.kind.value}"
        )

    diff = E.AbsDiff(p, q)
    nak = E.NakanoExponent(p, q)
    indices = _scan(
        diff.eval_range, lambda d, k: d <= (1.0 / k) * (1.0 + _REL_SLACK), count, horizon, "|p_n - q_n| <= 1/{k}"
    )
    gaps = [diff.eval(n) for n in indices]

    modular_half = 0.0
    for n in indices:
        e = nak.eval(n)
        if e != INF:
            modular_half += 0.5**e
    checks = {"modular_at_half": modular_half, "modular_bound": 1.0, "within_bound": modular_half <= 1.0 + 1e-9}
    return WitnessSubsequence("equality", tuple(indices), tuple(gaps), checks)


def linf_witness(p: E.ExponentSequence, count: int, horizon: int = SCAN_HORIZON) -> WitnessSubsequence:
    """First ``count`` indices with p(n_k) >= k; the flat vector on them,
    scaled by 1/2, has modular Σ (1/2)^{p(n_k)} <= Σ (1/2)^k <= 1, which is
    the sup-norm-copy construction."""
    if count < 1:
        raise PreconditionError("witness count must be positive")
    prof = profile(p)
    if prof.bounded_above is not Answer.NO:
        raise PreconditionError(
            f"sup-norm witness needs a certified unbounded exponent; boundedness verdict is "
            f"{prof.bounded_above.value}"
        )

    indices = _scan(p.eval_range, lambda v, k: ~(v < k * (1.0 - _REL_SLACK)), count, horizon, "p_n >= {k}")
    values = [p.eval(n) for n in indices]

    modular_half = 0.0
    for v in values:
        if v != INF:
            modular_half += 0.5**v
    checks = {"modular_at_half": modular_half, "modular_bound": 1.0, "within_bound": modular_half <= 1.0 + 1e-9}
    return WitnessSubsequence("linf", tuple(indices), tuple(values), checks)


# --------------------------------------------------------------------------
# empirical ratio probes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioProfile:
    """Norm ratios of flat vectors along an index set; evidence, not proof."""

    index_set: IndexSet
    rows: tuple[tuple[int, float, float, float], ...]  # (N, ‖x‖_p, ‖x‖_q, ratio)

    def to_json(self):
        return {
            "index_set": index_set_to_json(self.index_set),
            "rows": [
                {"length": n, "norm_p": np_, "norm_q": nq, "ratio": r} for n, np_, nq, r in self.rows
            ],
        }

    def to_text(self) -> str:
        lines = [f"{'N':>8}  {'norm_p':>18}  {'norm_q':>18}  {'ratio':>12}"]
        for n, np_, nq, r in self.rows:
            lines.append(f"{n:>8}  {np_:>18.12g}  {nq:>18.12g}  {r:>12.6f}")
        return "\n".join(lines)


def ratio_decay_profile(
    p: E.ExponentSequence,
    q: E.ExponentSequence,
    index_set: IndexSet,
    lengths: Sequence[int],
    rel_tol: float = 1e-12,
) -> RatioProfile:
    """For each length N, the flat vector on the first N indices of the set
    gets both Luxemburg norms; the recorded ratio is ‖x_N‖_q / ‖x_N‖_p."""
    from .criteria import inclusion_holds

    lengths = list(lengths)
    if not lengths or any(n < 1 for n in lengths) or sorted(lengths) != lengths:
        raise PreconditionError("lengths must be a nonempty ascending list of positive counts")
    if inclusion_holds(p, q).answer is not Answer.YES:
        raise PreconditionError("ratio probe needs a certified inclusion between the spaces")

    all_indices = index_set.first(lengths[-1])
    rows = []
    for n in lengths:
        x = SparseVector.from_pairs((i, 1.0) for i in all_indices[:n])
        rp = luxemburg_norm(p, x, rel_tol)
        rq = luxemburg_norm(q, x, rel_tol)
        if not (rp.converged and rq.converged):
            raise NormComputationError(f"norm solver hit the iteration cap at length {n}")
        rows.append((n, rp.value, rq.value, rq.value / rp.value))
    return RatioProfile(index_set, tuple(rows))
