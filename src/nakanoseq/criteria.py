"""Classification of Nakano sequence spaces and of inclusion operators.

Every Yes/No verdict carries a citation from the fixed anchor set and a
certificate (a series comparison, a profile enclosure, or a gap bound);
anything the profiles cannot resolve stays an honest Unknown.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from . import exponents as E
from ._asymptotics import Analysis, AsymptoticProfile, GapKind, GapResult, PairAnalysis, SignKind, at
from .errors import HorizonExhausted, InternalInconsistency
from .series import _exists_alpha, decide_branch
from .verdicts import (
    Answer,
    CANONICAL_BASIS_REMARK,
    INCLUSION_TEST,
    LINF_COPY,
    NAKANO_LEMMA,
    NOT_APPLICABLE,
    Record,
    SEPARABILITY_REMARK,
    SS_BOUNDED,
    SS_UNBOUNDED_SOURCE,
    SS_UNBOUNDED_TARGET,
    Verdict,
    WEAK_COMPACTNESS,
)
from .witness import _equality_witness, _linf_witness


# --------------------------------------------------------------------------
# criteria-level evidence records
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileEvidence(Record, kind="profile_evidence"):
    """A liminf/limsup enclosure backing a profile-based verdict."""

    statement: str
    profile: AsymptoticProfile


@dataclass(frozen=True)
class GapEvidence(Record, kind="gap_evidence"):
    """A liminf bound on |p_n - q_n| (or its failure) backing a verdict."""

    statement: str
    gap: object  # a GapResult, or a dict of the gap-route epsilon, onset and Nakano certificate


@dataclass(frozen=True)
class Remark(Record, kind="remark"):
    statement: str


def _na() -> Verdict:
    return Verdict(Answer.UNKNOWN, None, NOT_APPLICABLE)


# --------------------------------------------------------------------------
# space-level classification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SpaceProfile(Record):
    separable: Verdict
    reflexive: Verdict
    contains_linf_copy: Verdict
    profile: AsymptoticProfile
    linf_witness: Optional[object] = None  # WitnessSubsequence when a copy exists
    # why linf_witness is missing although a copy exists; not part of the JSON
    _linf_exhausted: Optional[HorizonExhausted] = field(default=None, compare=False, repr=False)

    def to_json(self):
        out = super().to_json()
        del out["_linf_exhausted"]
        return out


def _reflexivity(prof: AsymptoticProfile) -> tuple[Answer, str]:
    """Whether ℓ_{p_n} is reflexive, that is 1 < liminf p_n <= limsup p_n < ∞, read off p's
    profile, with its anchor: Prop 1.4 where p is unbounded (a sup-norm copy), else §1-remark."""
    if prof.bounded_above is Answer.NO:
        return Answer.NO, LINF_COPY
    if prof.liminf.hi <= 1:
        return Answer.NO, SEPARABILITY_REMARK
    if prof.liminf.lo > 1 and prof.bounded_above is Answer.YES:
        return Answer.YES, SEPARABILITY_REMARK
    return Answer.UNKNOWN, ""


def _space_verdicts(prof: AsymptoticProfile, ev) -> tuple[Verdict, Verdict, Verdict]:
    """(separable, reflexive, contains a sup-norm copy) read off a profile, with evidence ``ev``."""
    answer, citation = _reflexivity(prof)
    reflexive = Verdict(answer, ev, citation)
    if prof.bounded_above is Answer.UNKNOWN:
        return Verdict(Answer.UNKNOWN, ev), reflexive, Verdict(Answer.UNKNOWN, ev)
    if prof.bounded_above is Answer.NO:
        return Verdict(Answer.NO, ev, LINF_COPY), reflexive, Verdict(Answer.YES, ev, LINF_COPY)
    return Verdict(Answer.YES, ev, SEPARABILITY_REMARK), reflexive, Verdict(Answer.NO, ev, LINF_COPY)


def space_profile(p: E.ExponentSequence, witness_count: int = 5) -> SpaceProfile:
    """Separability, reflexivity, and presence of a sup-norm copy, all read
    off the certified exponent profile."""
    a = Analysis(p)
    prof = a.profile
    ev = ProfileEvidence(f"liminf p_n in {prof.liminf}, limsup p_n in {prof.limsup}", prof)
    separable, reflexive, linf = _space_verdicts(prof, ev)
    wit = exhausted = None
    if linf.answer is Answer.YES and witness_count > 0:
        try:
            wit = _linf_witness(a, witness_count)
        except HorizonExhausted as exc:
            exhausted = exc
    return SpaceProfile(separable, reflexive, linf, prof, wit, exhausted)


# --------------------------------------------------------------------------
# operator-level classification
# --------------------------------------------------------------------------


def spaces_equal(p: E.ExponentSequence, q: E.ExponentSequence) -> Verdict:
    """ℓ_{p_n} = ℓ_{q_n} iff Σ α^{p_n q_n / |p_n − q_n|} < ∞ for some α."""
    return _spaces_equal(PairAnalysis(p, q))


def _spaces_equal(a: PairAnalysis) -> Verdict:
    v = _exists_alpha(E.NakanoExponent(a.p.seq, a.q.seq), a.nakano)
    return Verdict(v.answer, v.certificate, NAKANO_LEMMA if v.answer is not Answer.UNKNOWN else "")


def inclusion_holds(p: E.ExponentSequence, q: E.ExponentSequence) -> Verdict:
    """Three-valued inclusion test ℓ_{p_n} ⊆ ℓ_{q_n}.

    By Thm 1.3 the inclusion holds exactly when the all-ones sequence lies in
    the complementary-exponent space, so that test's Yes and No both decide it.
    A No also follows when on some infinite index family p exceeds q by a
    margin while the restricted spaces are certified distinct (the
    pointwise-smaller space then sits strictly inside); that certificate is
    preferred where both exist.  Unknown otherwise.
    """
    return _inclusion_holds(PairAnalysis(p, q))


def _inclusion_holds(a: PairAnalysis) -> Verdict:
    v = _exists_alpha(E.RnOf(a.p.seq, a.q.seq), a.rn)  # one_in_lrn over the pair's rows
    if v.answer is Answer.YES:
        return Verdict(Answer.YES, v.certificate, INCLUSION_TEST)
    for g, nak in zip(a.branch_gaps, a.nakano):
        if g.kind is not SignKind.POSITIVE:
            continue
        ans, nak_cert = decide_branch(replace(nak, onset=g.onset), None)
        if ans is Answer.NO:
            cert = GapEvidence(
                f"on an infinite index family p_n >= q_n + {g.epsilon:g} from {at(g.onset)} "
                "and the restricted spaces are distinct",
                {"epsilon": g.epsilon, "onset": g.onset, "nakano": nak_cert},
            )
            return Verdict(Answer.NO, cert, NAKANO_LEMMA)
    if v.answer is Answer.NO:
        return Verdict(Answer.NO, v.certificate, INCLUSION_TEST)
    return Verdict(Answer.UNKNOWN, v.certificate, "")


def strictly_singular(p: E.ExponentSequence, q: E.ExponentSequence) -> Verdict:
    """Strict singularity of the inclusion, gated on the inclusion verdict."""
    a = PairAnalysis(p, q)
    return _strictly_singular(a, _inclusion_holds(a))


def _strictly_singular(a: PairAnalysis, inclusion: Verdict) -> Verdict:
    if inclusion.answer is not Answer.YES:
        return _na()

    prof_p = a.p.profile
    if prof_p.bounded_above is Answer.NO:
        ev = ProfileEvidence("limsup p_n = ∞: the source space contains a sup-norm copy", prof_p)
        return Verdict(Answer.NO, ev, SS_UNBOUNDED_SOURCE)
    if prof_p.bounded_above is Answer.UNKNOWN:
        return Verdict(Answer.UNKNOWN, ProfileEvidence("boundedness of p_n undecided", prof_p), "")

    gap = a.liminf_abs_gap
    if gap.kind is GapKind.POSITIVE:
        citation = SS_UNBOUNDED_TARGET if a.q.profile.bounded_above is Answer.NO else SS_BOUNDED
        ev = GapEvidence(f"limsup p_n < ∞ and |p_n − q_n| >= {gap.epsilon:g} for n >= {at(gap.onset)}", gap)
        return Verdict(Answer.YES, ev, citation)
    if gap.kind is GapKind.ZERO:
        ev = GapEvidence("liminf |p_n − q_n| = 0: exponents coincide along a subsequence", gap)
        return Verdict(Answer.NO, ev, SS_BOUNDED)
    return Verdict(Answer.UNKNOWN, GapEvidence("liminf |p_n − q_n| undecided", gap), "")


def weakly_compact(p: E.ExponentSequence, q: E.ExponentSequence) -> Verdict:
    """Weak compactness of the inclusion: 1 < liminf q_n <= limsup q_n < ∞."""
    a = PairAnalysis(p, q)
    return _weakly_compact(a, _inclusion_holds(a))


def _weakly_compact(a: PairAnalysis, inclusion: Verdict) -> Verdict:
    if inclusion.answer is not Answer.YES:
        return _na()
    prof_q = a.q.profile
    ev = ProfileEvidence(f"liminf q_n in {prof_q.liminf}, limsup q_n in {prof_q.limsup}", prof_q)
    answer = _reflexivity(prof_q)[0]
    return Verdict(answer, ev, "" if answer is Answer.UNKNOWN else WEAK_COMPACTNESS)


def compactness_suite(p: E.ExponentSequence, q: E.ExponentSequence) -> tuple[Verdict, Verdict, Verdict]:
    """(compact, L-weakly compact, M-weakly compact) — all three always fail:
    the canonical unit sequence is normalized in every space."""
    return _compactness_suite(inclusion_holds(p, q))


def _compactness_suite(inclusion: Verdict) -> tuple[Verdict, Verdict, Verdict]:
    if inclusion.answer is not Answer.YES:
        return _na(), _na(), _na()
    ev = Remark("the canonical unit sequence (e_n) is normalized in every space")
    v = Verdict(Answer.NO, ev, CANONICAL_BASIS_REMARK)
    return v, v, v


# --------------------------------------------------------------------------
# aggregated report
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class InclusionReport(Record):
    inclusion_holds: Verdict
    spaces_equal: Verdict
    strictly_singular: Verdict
    weakly_compact: Verdict
    compact: Verdict
    l_weakly_compact: Verdict
    m_weakly_compact: Verdict
    gap: GapResult
    witnesses: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()


def _check_invariants(report: InclusionReport, a: PairAnalysis) -> None:
    eq, ss = report.spaces_equal.answer, report.strictly_singular.answer
    if eq is Answer.YES and ss is Answer.YES:
        raise InternalInconsistency("spaces_equal = Yes together with strictly_singular = Yes")
    if report.weakly_compact.answer is Answer.YES:
        if _reflexivity(a.q.profile)[0] is not Answer.YES:
            raise InternalInconsistency("weakly_compact = Yes but the target space is not reflexive")
    # a bounded source with a certified gap and p_n > q_n on an infinite
    # family cannot coexist with a holding inclusion
    if (
        report.inclusion_holds.answer is Answer.YES
        and report.gap.kind is GapKind.POSITIVE
        and a.p.profile.bounded_above is Answer.YES
        and any(g.kind is SignKind.POSITIVE for g in a.branch_gaps)
    ):
        raise InternalInconsistency("inclusion holds despite a certified reverse exponent gap")


def full_report(p: E.ExponentSequence, q: E.ExponentSequence, witness_count: int = 5) -> InclusionReport:
    """All operator verdicts for ℓ_{p_n} ↪ ℓ_{q_n}, cross-checked, with
    witness subsequences attached where the verdicts promise them."""
    a = PairAnalysis(p, q)
    inclusion = _inclusion_holds(a)
    equal = _spaces_equal(a)
    ss = _strictly_singular(a, inclusion)
    wc = _weakly_compact(a, inclusion)
    compact, l_weak, m_weak = _compactness_suite(inclusion)
    gap = a.liminf_abs_gap

    witnesses: dict = {}
    notes: list[str] = []
    if witness_count > 0:
        if gap.kind is GapKind.ZERO:
            try:
                witnesses["equality"] = _equality_witness(a, witness_count)
            except HorizonExhausted as exc:
                notes.append(f"equality witness scan exhausted: {exc}")
        if ss.answer is Answer.NO and ss.citation == SS_UNBOUNDED_SOURCE:
            try:
                witnesses["linf_copy"] = _linf_witness(a.p, witness_count)
            except HorizonExhausted as exc:
                notes.append(f"sup-norm witness scan exhausted: {exc}")

    report = InclusionReport(inclusion, equal, ss, wc, compact, l_weak, m_weak, gap, witnesses, tuple(notes))
    _check_invariants(report, a)
    return report
