"""End-to-end CLI behavior: rendering, JSON output, and the exit-code contract."""
import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

from nakanoseq import cli
from nakanoseq.dsl import MAX_DEPTH
from nakanoseq.errors import InternalInconsistency
from nakanoseq.verdicts import NOT_APPLICABLE, Answer, Verdict


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- happy paths ------------------------------------------------------------------


def test_norm_command(capsys):
    code, out, _ = run(capsys, "norm", "2", "[[1,1],[2,1]]")
    assert code == 0
    assert "1.414213562373" in out


def test_norm_golden_prefix(capsys):
    code, out, _ = run(capsys, "norm", "prefix(1=1; 2)", "[[1,1],[2,1]]")
    assert code == 0
    assert "1.618033988750" in out


def test_norm_zero_vector(capsys):
    code, out, _ = run(capsys, "norm", "2", "[]")
    assert code == 0
    assert "0.000000000000" in out


def test_norm_json(capsys):
    code, out, _ = run(capsys, "norm", "2", "[[1,1],[2,1]]", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["converged"] and abs(obj["value"] - 2**0.5) < 1e-10
    assert out.endswith("\n") and out.count("\n") == 1


def test_norm_vector_file(capsys, tmp_path):
    path = tmp_path / "vec.json"
    path.write_text('{"entries": [[1, 3.0], [2, 4.0]]}')
    code, out, _ = run(capsys, "norm", "2", f"@{path}")
    assert code == 0
    assert "5.000000000000" in out


def test_norm_prefix_inf_override(capsys):
    # the sup-norm floor |x_1| = 5 binds over the finite part's radius 2
    code, out, _ = run(capsys, "norm", "prefix(1=inf; 2)", "[[1,5],[2,2]]")
    assert code == 0
    assert "value      5.000000000000" in out


def test_norm_near_float_range(capsys):
    code, out, _ = run(capsys, "norm", "2", "[[1,1e308],[2,1e308]]", "--json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2**0.5 * 1e308, rel=1e-12)


def test_space_command(capsys):
    code, out, _ = run(capsys, "space", "blocks")
    assert code == 0
    assert "separable: No" in out
    assert "contains_linf_copy: Yes" in out
    assert "Prop 1.4" in out


def test_space_notes_an_exhausted_witness_scan(capsys):
    # |a_n - 4| >= 5 first holds in block 9, which starts at n = 17650829
    code, out, _ = run(capsys, "space", "absdiff(blocks, 4)")
    assert code == 0
    assert "contains_linf_copy: Yes" in out
    assert out.splitlines()[-1] == (
        "note: sup-norm witness scan exhausted: no index with p_n >= 5 found for k=5 within 10000000 terms"
    )
    code, out, _ = run(capsys, "space", "absdiff(blocks, 4)", "--json")
    assert code == 0
    assert json.loads(out)["linf_witness"] is None
    assert "exhausted" not in out


@pytest.mark.parametrize(
    "expr, lines",
    [
        ("nakexp(n + blocks, 2)", ["reflexive: Yes", "liminf p_n in [2, 2], limsup p_n in [2, 2]"]),
        ("1 + recip(recip(n + blocks))", ["contains_linf_copy: Yes", "liminf p_n in [inf, inf]", "linf witness"]),
        ("1 + recip(1e16)", ["reflexive: Yes", "liminf p_n in [1.0000000000000002, 1.0000000000000002]"]),
    ],
)
def test_space_reads_exact_limits(capsys, expr, lines):
    code, out, err = run(capsys, "space", expr)
    assert (code, err) == (0, "")
    for line in lines:
        assert line in out
    assert "[1, 1]" not in out


def test_space_reflexive_no_from_a_liminf_of_one(capsys):
    code, out, err = run(capsys, "space", "merge(even: 1, 1 + absdiff(n, blocks))")
    assert (code, err) == (0, "")
    assert "reflexive: No — §1-remark — liminf p_n in [1, 1], limsup p_n in [1, inf]" in out.splitlines()


def test_compare_prints_a_positive_geometric_base(capsys):
    code, out, _ = run(capsys, "compare", "1 + 1e-300/n", "1")
    assert code == 0
    assert "α = 0.5; exponent >= 1021·n from n = 1, so terms <= (4.45015e-308)^n" in out.splitlines()[0]
    assert "(0)^n" not in out


def test_compare_example_one(capsys):
    code, out, _ = run(capsys, "compare", "1 + 1/n", "n")
    assert code == 0
    assert "strictly_singular: Yes" in out
    assert "Thm 2.2" in out


def test_compare_example_two(capsys):
    code, out, _ = run(capsys, "compare", "blocks", "inf")
    assert code == 0
    assert "spaces_equal: No" in out
    assert "strictly_singular: No" in out
    assert "Thm 2.3" in out


def test_compare_json_schema(capsys):
    code, out, _ = run(capsys, "compare", "2", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["spaces_equal"]["answer"] == "yes"
    assert obj["spaces_equal"]["citation"] == "Prop 1.2 (Nakano's Lemma)"
    for key in ("inclusion_holds", "strictly_singular", "weakly_compact", "compact"):
        assert key in obj


def test_compare_unknown_rendered(capsys):
    code, out, _ = run(capsys, "compare", "3", "2")
    assert code == 0  # Unknown verdicts do not change the exit code
    assert "inclusion not established" in out


def test_compare_unknown_shows_probe_sums(capsys):
    code, out, _ = run(capsys, "compare", "blocks", "blocks + recip(3 + 1/n^2)")
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("spaces_equal:"))
    assert line.startswith("spaces_equal: Unknown — ")
    assert line.count(" — ") == 1
    assert "partial sums to 1000000: α=0.5: " in line


def test_verdict_line_marks_a_bare_unknown():
    # no report verdict is a bare Unknown today, so the corpora never print this tail
    assert cli._verdict_line("x", Verdict(Answer.UNKNOWN)) == "x: Unknown — undecided on this descriptor pair"
    assert cli._verdict_line("x", Verdict(Answer.UNKNOWN, None, NOT_APPLICABLE)) == "x: Unknown — inclusion not established"
    assert cli._verdict_line("x", Verdict(Answer.YES)) == "x: Yes"


def test_probe_flat_ratio_closed_form(capsys):
    # [DERIVED] the flat vector of N ones has norm N^(1/p), so the ratio is N^(1/4 - 1/2)
    code, out, _ = run(capsys, "probe", "2", "4", "--lengths", "4,64,1024,4096", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["length"] for row in rows] == [4, 64, 1024, 4096]
    for row in rows:
        assert abs(row["ratio"] - row["length"] ** -0.25) <= 1e-9


def test_witness_equality(capsys):
    code, out, _ = run(capsys, "witness", "2", "2 + recip(blocks)", "--count", "3")
    assert code == 0
    assert "n=6" in out


def test_witness_linf(capsys):
    code, out, _ = run(capsys, "witness", "blocks", "--linf", "--count", "4")
    assert code == 0
    assert "n=33" in out


def test_probe_command(capsys):
    code, out, _ = run(capsys, "probe", "2", "4", "--lengths", "16")
    assert code == 0
    assert "0.500000" in out


def test_probe_json(capsys):
    code, out, _ = run(capsys, "probe", "2", "2", "--lengths", "4,16", "--json")
    assert code == 0
    obj = json.loads(out)
    assert [row["ratio"] for row in obj["rows"]] == pytest.approx([1.0, 1.0], rel=1e-9)


# -- exit-code contract ---------------------------------------------------------------


def test_exit_2_on_dsl_parse_error(capsys):
    code, _, err = run(capsys, "norm", "2(((", "[[1,1]]")
    assert code == 2
    assert "column" in err


def test_exit_2_on_overflowing_literal(capsys):
    code, out, err = run(capsys, "space", "1e400")
    assert code == 2
    assert out == ""
    assert "out of range" in err


@pytest.mark.parametrize("argv", [("space", "1e308 + 1e308"), ("compare", "nakexp(1e308, 1.5e308)", "2")])
def test_exit_2_on_a_limit_beyond_the_float_range(capsys, argv):
    # the limits are 2e308 and 3e308: exact, but printed by no float
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: an exact value lies beyond the float range\n"


def test_exit_2_writes_no_numpy_warning_from_the_sample():
    """The non-certifying sample of a mixed branch overflows to ∞ without a RuntimeWarning,
    so the error line is all that reaches stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "nakanoseq.cli", "space", "absdiff(1e308, recip(n + blocks)) + 1e308"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: an exact value lies beyond the float range\n"


@pytest.mark.parametrize("expr", ["1e308*n", "1.5e308*n + 1.5e308"])
def test_space_witness_scan_past_the_float_range_writes_no_warning(expr):
    """The sup-norm witness scan reads values past the float range as ∞ without a
    RuntimeWarning, so stderr stays empty."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "nakanoseq.cli", "space", expr],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "linf witness (5 indices)" in proc.stdout


def test_exit_2_on_bad_vector(capsys):
    code, _, err = run(capsys, "norm", "2", "not json")
    assert code == 2


def test_exit_2_on_semantic_error(capsys):
    code, _, err = run(capsys, "compare", "0.5", "2")
    assert code == 2


def test_exit_3_on_iteration_cap(capsys):
    code, _, err = run(capsys, "norm", "2", "[[1,1],[2,1]]", "--tol", "1e-300")
    assert code == 3
    assert "iteration cap" in err


def test_exit_3_on_norm_beyond_float_range(capsys):
    code, out, err = run(capsys, "norm", "1", "[[1,1e308],[2,1e308]]")
    assert code == 3
    assert out == ""
    assert "float64 range" in err


def test_exit_2_on_exponent_below_one(capsys):
    code, _, err = run(capsys, "norm", "recip(2)", "[[1,1],[2,1]]")
    assert code == 2
    assert "exponents >= 1" in err


def test_exit_4_on_internal_inconsistency(capsys, monkeypatch):
    def boom(p, q):
        raise InternalInconsistency("synthetic fault for the exit-code contract")

    monkeypatch.setattr(cli.criteria, "full_report", boom)
    code, _, err = run(capsys, "compare", "2", "2")
    assert code == 4
    assert "internal inconsistency" in err


def test_exit_5_on_precondition(capsys):
    code, _, err = run(capsys, "witness", "2", "--linf")
    assert code == 5
    assert "precondition" in err


def test_exit_5_on_probe_without_inclusion(capsys):
    code, _, err = run(capsys, "probe", "3", "2", "--lengths", "4")
    assert code == 5


def test_exit_6_on_horizon_exhausted(capsys):
    code, _, err = run(capsys, "witness", "1 + 1/n^0.001", "1", "--count", "2")
    assert code == 6
    assert "horizon" in err


def test_argparse_errors_map_to_2(capsys):
    code, _, _ = run(capsys, "bogus-command")
    assert code == 2


# -- seeded fuzz over norm and space ----------------------------------------------

FUZZ_EXPRESSIONS = ["2", "prefix(1=1; 2)", "blocks", "1 + 1/n", "n", "2 + recip(blocks)", "4"]
FUZZ_WRAPPERS = [
    "recip({})",
    "rn({}, 2)",
    "rn(recip(inf), {})",
    "nakexp({}, 3)",
    "absdiff({}, n)",
    "merge(even: {}, 2)",
    "2 + recip({})",
]
FUZZ_VECTORS = [[[1, 1], [2, 1]], [[1, 0.5], [3, -2.0], [8, 1.5]]]
# JSON-expressible oddities, plus indices past float64's exact integers and range
FUZZ_ODD = ["x", True, None, 1.5, 2.0, 1e400, 10**400, 2**53 + 1, 0, -3, [1]]


def _fuzz_expression(rng):
    text = rng.choice(FUZZ_EXPRESSIONS)
    roll = rng.random()
    if roll < 0.4:
        # a few levels of nesting, or past the parser's depth cap
        for _ in range(rng.choice([1, 2, 3, MAX_DEPTH + 1, 3000])):
            text = rng.choice(FUZZ_WRAPPERS).format(text)
    elif roll < 0.6:
        text = text.replace(rng.choice("2n4"), rng.choice(["inf", "recip(inf)", "0.5", "1e400"]), 1)
    elif roll < 0.8:
        cut = rng.randrange(len(text) + 1)
        text = text[:cut] + rng.choice("()+,;:=x*^/ ") + text[cut:]
    return text


def _fuzz_vector(rng):
    entries = [list(e) for e in rng.choice(FUZZ_VECTORS)]
    for entry in entries:
        if rng.random() < 0.3:
            entry[rng.randrange(2)] = rng.choice(FUZZ_ODD)
    roll = rng.random()
    if roll < 0.1:
        obj = [v for e in entries for v in e]  # pairs flattened
    elif roll < 0.2:
        obj = {rng.choice(["entries", "enries"]): entries}
    elif roll < 0.3:
        obj = entries + [[4, 1, 1]]
    else:
        obj = entries
    text = json.dumps(obj)
    if rng.random() < 0.1:
        text = text[: rng.randrange(len(text))]
    return text


def test_fuzz_norm_and_space_exit_codes():
    # every input ends in a documented exit code, never in an exception
    rng = random.Random(2024)
    failures = []
    for _ in range(200):
        if rng.random() < 0.7:
            argv = ["norm", _fuzz_expression(rng), _fuzz_vector(rng)]
        else:
            argv = ["space", _fuzz_expression(rng)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 -- collected and reported below
                failures.append((argv, repr(exc)[:200]))
                continue
        if code not in (0, 2, 3, 5, 6):
            failures.append((argv, f"exit {code}"))
    assert not failures, failures[:5]


FUZZ_COUNTS = ["0", "-1", "1", "5", "8", "12", "40"]
FUZZ_LENGTHS = ["", "0", "4,3", "1e3", "8"]


def _fuzz_witness_or_probe(rng):
    p, q = _fuzz_expression(rng), _fuzz_expression(rng)
    if rng.random() < 0.5:
        if rng.random() < 0.5:
            q = f"{p} + recip({q})"  # a vanishing gap, as in the README's witness pair
        argv = ["witness", p] + ([q] if rng.random() < 0.8 else [])
        argv += ["--count", rng.choice(FUZZ_COUNTS)] + (["--linf"] if rng.random() < 0.5 else [])
    else:
        argv = ["probe", p, q, "--lengths", rng.choice(FUZZ_LENGTHS), "--set", rng.choice(["even", "odd"])]
        if rng.random() < 0.5:
            argv += ["--tol", rng.choice(["0", "nan", "inf"])]
    return argv


def test_fuzz_witness_and_probe_exit_codes():
    # every input ends in a documented exit code, never in an exception; a
    # scan that runs to the horizon exits 6
    rng = random.Random(2026)
    failures = []
    for _ in range(150):
        argv = _fuzz_witness_or_probe(rng)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 -- collected and reported below
                failures.append((argv, repr(exc)[:200]))
                continue
        if code not in (0, 2, 3, 5, 6):
            failures.append((argv, f"exit {code}"))
    assert not failures, failures[:5]


def _fuzz_compare(rng):
    p, q = _fuzz_expression(rng), _fuzz_expression(rng)
    roll = rng.random()
    if roll < 0.3:
        q = f"{p} + recip({q})"  # a vanishing gap
    elif roll < 0.45:
        q = p
    return ["compare", p, q] + (["--json"] if rng.random() < 0.5 else [])


def test_fuzz_compare_exit_codes():
    # every input ends in a documented exit code, never in an exception
    rng = random.Random(2027)
    failures = []
    for _ in range(120):
        argv = _fuzz_compare(rng)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 -- collected and reported below
                failures.append((argv, repr(exc)[:200]))
                continue
        if code not in (0, 2, 3, 5, 6):
            failures.append((argv, f"exit {code}"))
    assert not failures, failures[:5]


# -- expression nesting cap -------------------------------------------------------


def _nested_recip(depth):
    return "recip(" * (depth - 1) + "2" + ")" * (depth - 1)


@pytest.mark.parametrize("expr", [_nested_recip(MAX_DEPTH), " + ".join(["2"] * MAX_DEPTH)], ids=["recip", "sum"])
def test_space_and_compare_at_the_depth_cap(capsys, expr):
    assert run(capsys, "space", expr)[0] == 0
    assert run(capsys, "compare", expr, "2")[0] == 0


@pytest.mark.parametrize(
    "expr", [_nested_recip(MAX_DEPTH + 1), "recip(" * 3000 + "2" + ")" * 3000], ids=["one-over", "3000"]
)
def test_exit_2_past_the_depth_cap(capsys, expr):
    code, _, err = run(capsys, "space", expr)
    assert code == 2
    assert f"deeper than {MAX_DEPTH}" in err


def test_seed_flag_removed(capsys):
    assert run(capsys, "norm", "2", "[[1,1]]", "--seed", "3")[0] == 2


def test_closed_stdout_exits_1_without_a_traceback():
    """A reader that closes the pipe early (as `| head` does) ends the run with exit code 1
    and nothing on stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    read, write = os.pipe()
    os.close(read)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nakanoseq.cli", "compare", "1 + 1/n", "n"],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 1
    assert proc.stderr == ""
