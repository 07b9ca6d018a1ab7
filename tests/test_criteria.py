"""Space and inclusion-operator classification with cited verdicts."""
import cProfile
import math
import pstats
import random
import warnings

import pytest

from nakanoseq import (
    Answer,
    BlockRepeat,
    CITATION_ANCHORS,
    Const,
    Evens,
    GapKind,
    Linear,
    Merge,
    NOT_APPLICABLE,
    Prefix,
    RationalDrift,
    Recip,
    Sum,
    compactness_suite,
    full_report,
    inclusion_holds,
    liminf_abs_gap,
    parse_expression,
    print_expression,
    space_profile,
    spaces_equal,
    strictly_singular,
    weakly_compact,
)

from _generators import gen_exponent, gen_pair

INF = math.inf

EX3_Q = Sum(Const(2), Recip(BlockRepeat()))  # 2 + 1/a_n


# -- space_profile ---------------------------------------------------------------


def test_space_profile_drift_to_one():
    sp = space_profile(RationalDrift(1, 1, 1))
    assert sp.separable.answer is Answer.YES
    assert sp.reflexive.answer is Answer.NO  # liminf = 1, threshold strict
    assert sp.contains_linf_copy.answer is Answer.NO


def test_space_profile_blocks():
    sp = space_profile(BlockRepeat())
    assert sp.separable.answer is Answer.NO
    assert sp.contains_linf_copy.answer is Answer.YES
    assert sp.linf_witness is not None
    assert sp.linf_witness.indices == (1, 2, 6, 33, 289)


def test_space_profile_keeps_why_the_witness_is_missing():
    sp = space_profile(BlockRepeat(), witness_count=12)
    assert sp.contains_linf_copy.answer is Answer.YES
    assert sp.linf_witness is None
    assert str(sp._linf_exhausted) == "no index with p_n >= 9 found for k=9 within 10000000 terms"
    assert sp.to_json() == space_profile(BlockRepeat(), witness_count=0).to_json()


@pytest.mark.parametrize(
    "p, q, found, note",
    [
        ("2", "2 + recip(blocks)", [], "equality witness scan exhausted: no index with |p_n - q_n| <= 1/9"),
        ("blocks", "blocks", ["equality"], "sup-norm witness scan exhausted: no index with p_n >= 9"),
    ],
)
def test_full_report_notes_an_exhausted_witness_scan(p, q, found, note):
    # block 9 starts at 17650829, past the 10^7 scan horizon
    r = full_report(parse_expression(p), parse_expression(q), witness_count=9)
    assert list(r.witnesses) == found
    assert r.notes == (f"{note} found for k=9 within 10000000 terms",)


def test_space_profile_l2():
    sp = space_profile(Const(2))
    assert sp.separable.answer is Answer.YES
    assert sp.reflexive.answer is Answer.YES
    assert sp.contains_linf_copy.answer is Answer.NO


def test_space_profile_invariants_hold():
    rng = random.Random(11)
    for _ in range(60):
        sp = space_profile(gen_exponent(rng), witness_count=0)
        if sp.contains_linf_copy.answer is Answer.YES:
            assert sp.separable.answer is Answer.NO
        if sp.reflexive.answer is Answer.YES:
            assert sp.separable.answer is Answer.YES


def test_space_profile_unknown_boundedness():
    sp = space_profile(parse_expression("absdiff(n, blocks)"))
    assert (str(sp.profile.liminf), sp.profile.bounded_above) == ("[0, inf]", Answer.UNKNOWN)
    assert [v.answer for v in (sp.separable, sp.reflexive, sp.contains_linf_copy)] == [Answer.UNKNOWN] * 3


def test_space_profile_reflexive_no_from_the_liminf_alone():
    # liminf p_n = 1 rules reflexivity out whether or not p_n is bounded
    sp = space_profile(parse_expression("merge(even: 1, 1 + absdiff(n, blocks))"))
    assert (str(sp.profile.liminf), sp.profile.bounded_above) == ("[1, 1]", Answer.UNKNOWN)
    assert (sp.reflexive.answer, sp.reflexive.citation) == (Answer.NO, "§1-remark")
    assert sp.separable.answer is Answer.UNKNOWN and sp.contains_linf_copy.answer is Answer.UNKNOWN


def test_space_profile_unknown_reflexivity_of_a_bounded_exponent():
    sp = space_profile(parse_expression("merge(even: 2, 1 + recip(1 + absdiff(n, blocks)))"))
    assert (str(sp.profile.liminf), str(sp.profile.limsup)) == ("[1, 2]", "[2, 2]")
    answers = [v.answer for v in (sp.separable, sp.reflexive, sp.contains_linf_copy)]
    assert answers == [Answer.YES, Answer.UNKNOWN, Answer.NO]
    assert sp.reflexive.citation == "" and sp.linf_witness is None


# -- spaces_equal -----------------------------------------------------------------


def test_spaces_equal_examples():
    assert spaces_equal(RationalDrift(1, 1, 1), Const(1)).answer is Answer.YES
    assert spaces_equal(Const(2), Const(2)).answer is Answer.YES
    assert spaces_equal(Const(2), EX3_Q).answer is Answer.NO
    assert spaces_equal(Linear(1, 0), Const(INF)).answer is Answer.YES
    assert spaces_equal(BlockRepeat(), Const(INF)).answer is Answer.NO


def test_spaces_equal_onset_under_a_limit_no_float_holds():
    # seed-88 pair 22: the Nakano exponent tends to 55/18, and it stays <= 55/18 + 1 from n = 1
    p, q = parse_expression("1 + recip(1.5 + 1/n^2) + 2"), parse_expression("1 + recip(1.5 + 1/n^2)")
    v = spaces_equal(p, q)
    assert (v.answer, v.certificate.onset) == (Answer.NO, 1)
    assert "on an infinite index family from 1;" in v.certificate.statement


def test_spaces_equal_citation():
    v = spaces_equal(Const(2), Const(3))
    assert v.answer is Answer.NO
    assert v.citation == "Prop 1.2 (Nakano's Lemma)"


def test_spaces_equal_symmetry_and_reflexivity():
    rng = random.Random(13)
    for _ in range(25):
        p, q = gen_exponent(rng), gen_exponent(rng)
        assert spaces_equal(p, q).answer is spaces_equal(q, p).answer
        assert spaces_equal(p, p).answer is Answer.YES


# -- inclusion_holds --------------------------------------------------------------


def test_inclusion_examples():
    assert inclusion_holds(RationalDrift(1, 1, 1), Linear(1, 0)).answer is Answer.YES
    assert inclusion_holds(Const(2), Const(2)).answer is Answer.YES
    assert inclusion_holds(Const(3), Const(2)).answer is Answer.NO
    assert inclusion_holds(Const(2), Const(3)).answer is Answer.YES  # pointwise p <= q


def test_inclusion_no_from_one_in_lrn():
    # 1 ∈ ℓ_{r_n} decides the inclusion both ways (Thm 1.3); its No certifies divergent block totals
    report = full_report(parse_expression("10 + recip(blocks)"), Const(10), witness_count=0)
    v = report.inclusion_holds
    assert (v.answer, v.citation, v.certificate.json_kind) == (Answer.NO, "Thm 1.3", "divergence_by_terms")
    assert v.certificate.per_block and "block totals eventually stay >= 1" in v.certificate.statement
    for gated in (report.strictly_singular, report.weakly_compact, report.compact):
        assert (gated.answer, gated.citation) == (Answer.UNKNOWN, NOT_APPLICABLE)


def test_inclusion_reverse_gap_needs_distinct_spaces():
    # p = n + 1 > q = n pointwise, but the spaces are equal (Nakano exponent
    # n(n+1) gives a convergent series), so inclusion still holds
    p, q = Linear(1, 1), Linear(1, 0)
    assert spaces_equal(p, q).answer is Answer.YES
    assert inclusion_holds(p, q).answer is Answer.YES


def test_inclusion_citations_in_anchor_set():
    for p, q in [(Const(3), Const(2)), (Const(2), Const(3)), (RationalDrift(1, 1, 1), Linear(1, 0))]:
        v = inclusion_holds(p, q)
        if v.answer is not Answer.UNKNOWN:
            assert v.citation in CITATION_ANCHORS


# -- strictly_singular --------------------------------------------------------------


def test_ss_example_one():
    v = strictly_singular(RationalDrift(1, 1, 1), Linear(1, 0))
    assert v.answer is Answer.YES
    assert v.citation == "Thm 2.2"  # unbounded target


def test_ss_example_two():
    v = strictly_singular(BlockRepeat(), Const(INF))
    assert v.answer is Answer.NO
    assert v.citation == "Thm 2.3"  # unbounded source


def test_ss_example_three():
    v = strictly_singular(Const(2), EX3_Q)
    assert v.answer is Answer.NO
    assert v.citation == "Thm 2.1"  # vanishing gap, bounded target


def test_ss_bounded_gap_positive():
    v = strictly_singular(Const(2), Const(3))
    assert v.answer is Answer.YES
    assert v.citation == "Thm 2.1"


def test_ss_gated_on_inclusion():
    v = strictly_singular(Const(3), Const(2))
    assert v.answer is Answer.UNKNOWN
    assert v.citation == NOT_APPLICABLE


# -- weakly_compact / compactness_suite ----------------------------------------------


def test_weakly_compact_examples():
    assert weakly_compact(Const(2), Const(2)).answer is Answer.YES
    assert weakly_compact(RationalDrift(1, 1, 1), Linear(1, 0)).answer is Answer.NO
    assert weakly_compact(Const(1), Const(1)).answer is Answer.NO  # liminf q = 1


def test_compactness_suite_always_no():
    for p, q in [(Const(2), Const(2)), (RationalDrift(1, 1, 1), Linear(1, 0)), (Const(2), EX3_Q)]:
        trio = compactness_suite(p, q)
        assert all(v.answer is Answer.NO for v in trio)
        assert all(v.citation == "§2-remark" for v in trio)


def test_compactness_suite_gated():
    trio = compactness_suite(Const(3), Const(2))
    assert all(v.answer is Answer.UNKNOWN and v.citation == NOT_APPLICABLE for v in trio)


# -- full_report ----------------------------------------------------------------------


def test_full_report_example_one():
    r = full_report(RationalDrift(1, 1, 1), Linear(1, 0))
    assert r.inclusion_holds.answer is Answer.YES
    assert r.spaces_equal.answer is Answer.NO
    assert r.strictly_singular.answer is Answer.YES
    assert r.weakly_compact.answer is Answer.NO
    assert r.compact.answer is Answer.NO


def test_full_report_identity_l2():
    r = full_report(Const(2), Const(2))
    assert r.spaces_equal.answer is Answer.YES
    assert r.strictly_singular.answer is Answer.NO
    assert r.weakly_compact.answer is Answer.YES
    assert r.compact.answer is Answer.NO


def test_full_report_example_three_with_witness():
    r = full_report(Const(2), EX3_Q)
    assert r.spaces_equal.answer is Answer.NO
    assert r.inclusion_holds.answer is Answer.YES
    assert r.strictly_singular.answer is Answer.NO
    assert r.gap.kind is GapKind.ZERO
    wit = r.witnesses["equality"]
    assert wit.indices == (1, 2, 6, 33, 289)


def test_full_report_json_shape():
    r = full_report(Const(2), Const(3))
    obj = r.to_json()
    for key in (
        "inclusion_holds",
        "spaces_equal",
        "strictly_singular",
        "weakly_compact",
        "compact",
        "l_weakly_compact",
        "m_weakly_compact",
        "gap",
        "witnesses",
    ):
        assert key in obj
    assert obj["spaces_equal"]["answer"] in ("yes", "no", "unknown")


def test_full_report_invariants_on_random_pairs():
    rng = random.Random(77)
    for _ in range(120):
        p, q = gen_pair(rng)
        r = full_report(p, q, witness_count=0)
        assert not (r.spaces_equal.answer is Answer.YES and r.strictly_singular.answer is Answer.YES)
        for v in (
            r.inclusion_holds,
            r.spaces_equal,
            r.strictly_singular,
            r.weakly_compact,
            r.compact,
            r.l_weakly_compact,
            r.m_weakly_compact,
        ):
            if v.answer is not Answer.UNKNOWN:
                assert v.citation in CITATION_ANCHORS, (str(p), str(q), v)
        if r.weakly_compact.answer is Answer.YES:
            assert space_profile(q, witness_count=0).reflexive.answer is Answer.YES


def test_full_report_probes_overflow_without_a_warning():
    # 1e308·n overflows to ∞ from n = 2 in the Unknown verdicts' partial sums, where α^∞ = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = full_report(parse_expression("prefix(1=1; 1e308*n)"), BlockRepeat())
    assert report.inclusion_holds.answer is Answer.UNKNOWN


def test_full_report_after_block_cache_growth():
    # the first pair grows the block cache past the float64 range; the
    # second, a probe over a_n, must still evaluate blocks afterwards
    p, q = parse_expression("10 + recip(blocks)"), parse_expression("10 + recip(blocks) + recip(3)")
    first = full_report(p, q, witness_count=0)
    assert first.inclusion_holds.answer is Answer.YES
    second = full_report(parse_expression("n"), parse_expression("blocks"), witness_count=0)
    assert second.inclusion_holds.answer is Answer.UNKNOWN


# -- one pair analysis per report ---------------------------------------------------


def _seed88_pairs(count):
    rng = random.Random(88)
    return [gen_pair(rng) for _ in range(count)]


def test_standalone_verdicts_match_full_report():
    # the first 100 seed-88 pairs hold six with an Unknown inclusion
    for p, q in _seed88_pairs(100):
        r = full_report(p, q, witness_count=0)
        assert inclusion_holds(p, q) == r.inclusion_holds
        assert spaces_equal(p, q) == r.spaces_equal
        assert strictly_singular(p, q) == r.strictly_singular
        assert weakly_compact(p, q) == r.weakly_compact
        assert compactness_suite(p, q) == (r.compact, r.l_weakly_compact, r.m_weakly_compact)
        assert liminf_abs_gap(p, q) == r.gap


CALL_LIMITS = {
    "normalize": 2,  # once for p, once for q
    "branch_gaps": 1,  # the one pass over each row's p − q, read by both gap verdicts
    "liminf_abs_gap": 1,
    "profile": 2,  # at most once per side
    "space_profile": 0,
}


def _calls_over(limits, fn, *args, **kwargs):
    """Primitive calls, per function name in ``limits``, that one ``fn(*args, **kwargs)`` makes beyond its limit."""
    prof = cProfile.Profile()
    prof.runcall(fn, *args, **kwargs)
    calls = dict.fromkeys(limits, 0)
    for (filename, _, name), (primitive, *_rest) in pstats.Stats(prof).stats.items():
        if name in calls and "nakanoseq" in filename:
            calls[name] += primitive
    return {n: c for n, c in calls.items() if c > limits[n]}


@pytest.mark.parametrize(
    "index, shape",
    [
        (4, "merge"),
        (12, "prefix"),
        (17, "zero gap"),
        (84, "unknown inclusion"),
        (14, "both witness scans"),
        (6, "sup-norm scan only"),
    ],
)
def test_full_report_computes_each_intermediate_once(index, shape):
    p, q = _seed88_pairs(index + 1)[index]
    r = full_report(p, q)
    assert {
        "merge": "merge(" in print_expression(p) + print_expression(q),
        "prefix": "prefix(" in print_expression(p) + print_expression(q),
        "zero gap": r.gap.kind is GapKind.ZERO,
        "unknown inclusion": r.inclusion_holds.answer is Answer.UNKNOWN,
        "both witness scans": sorted(r.witnesses) == ["equality", "linf_copy"],
        "sup-norm scan only": sorted(r.witnesses) == ["linf_copy"],
    }[shape]
    for witness_count in (0, 5):  # with witnesses, the scans check their preconditions on the report's analysis
        assert _calls_over(CALL_LIMITS, full_report, p, q, witness_count=witness_count) == {}, witness_count


def test_space_profile_normalizes_once():
    # blocks is unbounded, so the sup-norm scan runs, on the analysis behind the profile
    assert _calls_over({"normalize": 1, "profile": 1}, space_profile, BlockRepeat()) == {}
