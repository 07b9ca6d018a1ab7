"""Command-line front end.

Commands: norm, space, compare, witness, probe.  Exit codes:

* 0 — completed report (Unknown verdicts do not change the code)
* 1 — standard output closed before the output was written (broken pipe)
* 2 — DSL/vector parse error or invalid arguments
* 3 — numeric failure (the norm solver hit the iteration cap, or the norm
  exceeds the float64 range)
* 4 — internal inconsistency (a bug, never user error)
* 5 — precondition of the requested operation not met
* 6 — witness scan horizon exhausted
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import criteria, witness as witness_mod
from ._asymptotics import at
from .dsl import parse_expression
from .errors import (
    HorizonExhausted,
    InternalInconsistency,
    NormComputationError,
    ParseError,
    PreconditionError,
    SemanticError,
)
from .indexsets import All, Evens, Odds
from .vectors import DEFAULT_REL_TOL, SparseVector, luxemburg_norm
from .verdicts import Answer, Verdict

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4
EXIT_PRECONDITION = 5
EXIT_HORIZON = 6


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _verdict_line(name: str, v: Verdict) -> str:
    if v.answer is Answer.UNKNOWN and v.certificate is None and not v.citation:
        return f"{name}: {v} — undecided on this descriptor pair"
    return f"{name}: {v}"


def _print_verdicts(record) -> None:
    for name, v in vars(record).items():
        if isinstance(v, Verdict):
            print(_verdict_line(name, v))


def _load_vector(text: str) -> SparseVector:
    if text.startswith("@"):
        path = text[1:]
        if not os.path.exists(path):
            raise ParseError(f"vector file not found: {path}", text, 1)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid vector JSON: {exc.msg}", text, exc.pos) from exc
    return SparseVector.from_json(obj)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def _cmd_norm(args) -> int:
    p = parse_expression(args.p)
    x = _load_vector(args.vector)
    result = luxemburg_norm(p, x, args.tol)
    if args.json:
        _emit_json(result.to_json())
    else:
        print(f"value      {result.value:.12f}")
        print(f"bracket    [{result.bracket[0]:.12g}, {result.bracket[1]:.12g}]")
        print(f"residual   {result.residual:.3g}")
        print(f"iterations {result.iterations}")
    if not result.converged:
        print("norm solver hit the iteration cap before reaching the tolerance", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_space(args) -> int:
    p = parse_expression(args.p)
    prof = criteria.space_profile(p)
    if args.json:
        _emit_json(prof.to_json())
    else:
        _print_verdicts(prof)
        if prof.linf_witness is not None:
            print(prof.linf_witness.to_text())
        if prof._linf_exhausted is not None:
            print(f"note: sup-norm witness scan exhausted: {prof._linf_exhausted}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    p = parse_expression(args.p)
    q = parse_expression(args.q)
    report = criteria.full_report(p, q)
    if args.json:
        _emit_json(report.to_json())
        return EXIT_OK
    _print_verdicts(report)
    gap = report.gap
    eps = f" (epsilon >= {gap.epsilon:g} from n = {at(gap.onset)})" if gap.epsilon is not None else ""
    print(f"gap liminf |p_n - q_n|: {gap.kind.value}{eps}")
    for name, wit in report.witnesses.items():
        print(wit.to_text())
    for note in report.notes:
        print(f"note: {note}")
    return EXIT_OK


def _cmd_witness(args) -> int:
    p = parse_expression(args.p)
    if args.linf:
        wit = witness_mod.linf_witness(p, args.count)
    else:
        if args.q is None:
            raise PreconditionError("equality witness needs a second exponent expression (or use --linf)")
        q = parse_expression(args.q)
        wit = witness_mod.equality_witness(p, q, args.count)
    if args.json:
        _emit_json(wit.to_json())
    else:
        print(wit.to_text())
    return EXIT_OK


def _cmd_probe(args) -> int:
    p = parse_expression(args.p)
    q = parse_expression(args.q)
    try:
        lengths = [int(s) for s in args.lengths.split(",") if s]
    except ValueError:
        raise ParseError("lengths must be a comma-separated list of integers", args.lengths, 0)
    index_set = {"all": All(), "even": Evens(), "odd": Odds()}[args.set]
    prof = witness_mod.ratio_decay_profile(p, q, index_set, lengths, rel_tol=args.tol)
    if args.json:
        _emit_json(prof.to_json())
    else:
        print(prof.to_text())
    return EXIT_OK


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a single JSON document")
    common.add_argument("--tol", type=float, default=DEFAULT_REL_TOL, help="relative norm tolerance")

    parser = argparse.ArgumentParser(prog="nakanoseq", description="Nakano sequence space toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("norm", parents=[common], help="Luxemburg norm of a finite-support vector")
    norm.add_argument("p", help="exponent DSL expression")
    norm.add_argument("vector", help="JSON entries [[i, v], ...] or @file")
    norm.set_defaults(func=_cmd_norm)

    space = sub.add_parser("space", parents=[common], help="classify a single space")
    space.add_argument("p", help="exponent DSL expression")
    space.set_defaults(func=_cmd_space)

    compare = sub.add_parser("compare", parents=[common], help="full inclusion report for a pair")
    compare.add_argument("p", help="source exponent DSL expression")
    compare.add_argument("q", help="target exponent DSL expression")
    compare.set_defaults(func=_cmd_compare)

    wit = sub.add_parser("witness", parents=[common], help="materialize a witness subsequence")
    wit.add_argument("p", help="exponent DSL expression")
    wit.add_argument("q", nargs="?", default=None, help="second expression (equality witness)")
    wit.add_argument("--linf", action="store_true", help="sup-norm-copy witness for a single sequence")
    wit.add_argument("--count", type=int, default=5, help="number of witness indices")
    wit.set_defaults(func=_cmd_witness)

    probe = sub.add_parser("probe", parents=[common], help="flat-vector norm-ratio profile")
    probe.add_argument("p", help="source exponent DSL expression")
    probe.add_argument("q", help="target exponent DSL expression")
    probe.add_argument("--lengths", default="4,64,1024", help="comma-separated vector lengths")
    probe.add_argument("--set", choices=["all", "even", "odd"], default="all", help="index set to probe")
    probe.set_defaults(func=_cmd_probe)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's own exit (bad arguments or --help)
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, SemanticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NormComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except PreconditionError as exc:
        print(f"precondition not met: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except HorizonExhausted as exc:
        print(f"scan horizon exhausted: {exc}", file=sys.stderr)
        return EXIT_HORIZON


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()  # so that a closed stdout fails here
    except BrokenPipeError:  # stdout closed early, as by `| head`: the `signal` docs' "Note on SIGPIPE"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the flush at exit writes nowhere
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
