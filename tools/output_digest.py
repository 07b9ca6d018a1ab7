"""SHA-256 digests of nakanoseq's outputs on fixed corpora.

    python3 tools/output_digest.py <src-dir> [--dump DIR]

Imports the package from ``<src-dir>`` (e.g. ``src``, or the ``src`` of a
second checkout) and prints one ``<corpus> <sha256>`` line per corpus.
Two checkouts whose lines agree print the same bytes on every corpus; with
``--dump`` each corpus is also written to ``DIR/<corpus>.txt``, so a
mismatch can be located with ``cmp``.  JSON is written strictly: a record
that would write a non-standard ``Infinity`` or ``NaN`` fails the run.

Corpora:

* ``reports`` — ``full_report(witness_count=0).to_json()`` on the 1000
  seed-88 ``gen_pair`` draws;
* ``compare`` — ``full_report(p, q).to_json()`` on the same pairs, at the
  default ``witness_count``, so with the witness scans ``compare`` runs;
* ``descriptors`` — ``to_json()`` and ``print_expression`` of those pairs'
  descriptors and of 300 depth-3 ``gen_dsl_ast`` trees (seed 3);
* ``witness`` — witness JSON on the seed-2 perfbench witness pool (416 calls);
* ``norm`` — ``luxemburg_norm(...).to_json()`` on the seed-2 perfbench norm
  pool (40 calls), and ``to_json()`` of its vectors;
* ``space`` — ``space_profile(p).to_json()`` for the first 200 seed-88 sources;
* ``cli`` — stdout and exit code of the README's commands (each with and
  without ``--json``) and of the Unknown ``compare``, run as subprocesses;
* ``text`` — ``cli._verdict_line`` for the seven verdicts of each of the 1000
  seed-88 reports and the three verdicts of each of the 200 space profiles;
* ``verdicts`` — the JSON of each criteria and gap function called on its own
  (``inclusion_holds`` … ``signed_liminf_gap``, and ``profile`` of p and of q)
  for the first 100 seed-88 pairs;
* ``decimals`` — ``full_report(witness_count=0).to_json()`` on the 36 sums
  ``a + b`` against ``round(a + b, 10)``, a ≤ b from ``SUMMANDS``, and on 200
  seed-88 ``gen_decimal_pair`` draws;
* ``mixed`` — ``profile(s).to_json()`` and ``space_profile(s,
  witness_count=0).to_json()`` on branches that mix n and a_n: the
  ``MIXED`` descriptors, and each combinator over ``n + recip(blocks)``
  and ``blocks + recip(n)``, nested two levels deep (``_mixed_nests``).
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

UNKNOWN_COMPARE = ["compare", "blocks", "blocks + recip(3 + 1/n^2)"]
REPORT_VERDICTS = (
    "inclusion_holds",
    "spaces_equal",
    "strictly_singular",
    "weakly_compact",
    "compact",
    "l_weakly_compact",
    "m_weakly_compact",
)
MIXED = (
    "recip(n + recip(blocks))",
    "absdiff(n, blocks)",
    "rn(3, 2 + recip(n + blocks))",
    "rn(recip(n + blocks), 2)",
    "nakexp(n + blocks, 2)",
    "nakexp(blocks + recip(n), n)",
    "recip(recip(n + blocks))",
)
SPACE_VERDICTS = ("separable", "reflexive", "contains_linf_copy")
PAIR_FUNCTIONS = (
    "inclusion_holds",
    "spaces_equal",
    "strictly_singular",
    "weakly_compact",
    "compactness_suite",
    "liminf_abs_gap",
    "signed_liminf_gap",
)


def _dumps(obj) -> str:
    """``obj`` as JSON, raising ValueError where it holds a float ∞ or nan."""
    return json.dumps(obj, allow_nan=False)


def _reports(N, gens):
    rng = random.Random(88)
    pairs = [gens.gen_pair(rng) for _ in range(1000)]
    reports = [N.full_report(p, q, witness_count=0) for p, q in pairs]
    return [_dumps(r.to_json()) for r in reports], pairs, reports


def _descriptors(N, gens, pairs):
    rng = random.Random(3)
    trees = [gens.gen_dsl_ast(rng, depth=3) for _ in range(300)]
    seqs = [s for pair in pairs for s in pair] + trees
    return [f"{_dumps(s.to_json())}\t{N.print_expression(s)}" for s in seqs]


def _witness(N, gen):
    lines = []
    for op in gen.witness_pool(2, 26):
        p = N.parse_expression(op["p"])
        if op["kind"] == "equality":
            w = N.equality_witness(p, N.parse_expression(op["q"]), op["count"])
        else:
            w = N.linf_witness(p, op["count"])
        lines.append(_dumps(w.to_json()))
    return lines


def _norm(N, gen):
    ops, vectors = gen.norm_pool(2, 2)
    vecs = {key: N.SparseVector.from_pairs(v) for key, v in vectors.items()}
    lines = [_dumps(N.luxemburg_norm(N.parse_expression(op["p"]), vecs[op["vector"]]).to_json()) for op in ops]
    return lines + [_dumps(vecs[key].to_json()) for key in sorted(vecs)]


def _text(reports, profiles):
    from nakanoseq.cli import _verdict_line

    lines = [_verdict_line(name, getattr(r, name)) for r in reports for name in REPORT_VERDICTS]
    return lines + [_verdict_line(name, getattr(s, name)) for s in profiles for name in SPACE_VERDICTS]


def _verdicts(N, pairs):
    lines = []
    for p, q in pairs[:100]:
        for name in PAIR_FUNCTIONS:
            result = getattr(N, name)(p, q)
            js = [v.to_json() for v in result] if isinstance(result, tuple) else result.to_json()
            lines.append(f"{name}\t{_dumps(js)}")
        lines += [f"profile\t{_dumps(N.profile(s).to_json())}" for s in (p, q)]
    return lines


def _decimals(N, gens):
    sums = [(f"{a!r} + {b!r}", repr(round(a + b, 10))) for a, b in itertools.combinations_with_replacement(gens.SUMMANDS, 2)]
    pairs = [tuple(map(N.parse_expression, pq)) for pq in sums]
    rng = random.Random(88)
    pairs += [gens.gen_decimal_pair(rng) for _ in range(200)]
    return [_dumps(N.full_report(p, q, witness_count=0).to_json()) for p, q in pairs]


def _mixed_nests(N):
    """recip(m) and k(m, m') for each pair combinator k over m, m' in the two mixed operands; then
    recip(e) and k(e, m), k(m, e) for each of those e."""
    base = [N.parse_expression(t) for t in ("n + recip(blocks)", "blocks + recip(n)")]
    pairs = (N.Sum, N.AbsDiff, N.RnOf, N.NakanoExponent)
    one = [N.Recip(m) for m in base] + [k(a, b) for k in pairs for a in base for b in base]
    two = [N.Recip(e) for e in one]
    two += [k(*ab) for k in pairs for e in one for m in base for ab in ((e, m), (m, e))]
    return one + two


def _mixed(N):
    seqs = [N.parse_expression(t) for t in MIXED] + _mixed_nests(N)
    return [
        f"{N.print_expression(s)}\t{_dumps(N.profile(s).to_json())}\t"
        f"{_dumps(N.space_profile(s, witness_count=0).to_json())}"
        for s in seqs
    ]


def _cli(src, gen):
    _, vector = gen.cli_pool(2, 1)
    readme = [
        ["norm", "2", "[[1,1],[2,1]]"],
        ["norm", "prefix(1=1; 2)", gen.VECTOR_ARG],
        ["space", "blocks"],
        ["compare", "1 + 1/n", "n"],
        ["compare", "2", "2 + recip(blocks)"],
        ["witness", "2", "2 + recip(blocks)", "--count", "5"],
        ["witness", "blocks", "--linf"],
        ["probe", "2", "4", "--lengths", "4,64,1024,4096"],
    ]
    env = dict(os.environ, PYTHONPATH=src)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        vec_path = os.path.join(tmp, "vector.json")
        with open(vec_path, "w", encoding="utf-8") as fh:
            json.dump(vector, fh)
        for argv in readme + [UNKNOWN_COMPARE]:
            for extra in ([], ["--json"]):
                args = [f"@{vec_path}" if a == gen.VECTOR_ARG else a for a in argv] + extra
                proc = subprocess.run(
                    [sys.executable, "-m", "nakanoseq.cli", *args], env=env, capture_output=True, text=True
                )
                lines.append(f"$ {' '.join(argv + extra)}\nexit {proc.returncode}\n{proc.stdout}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="directory that holds the nakanoseq package")
    parser.add_argument("--dump", help="also write each corpus to DIR/<corpus>.txt")
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    sys.path[:0] = [src, os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")]
    import nakanoseq as N
    import _generators as gens
    import gen

    if not os.path.abspath(N.__file__).startswith(src + os.sep):
        sys.exit(f"nakanoseq imported from {N.__file__}, not from {src}")
    reports, pairs, report_objs = _reports(N, gens)
    profiles = [N.space_profile(p) for p, _ in pairs[:200]]
    corpora = {
        "reports": reports,
        "compare": [_dumps(N.full_report(p, q).to_json()) for p, q in pairs],
        "descriptors": _descriptors(N, gens, pairs),
        "witness": _witness(N, gen),
        "norm": _norm(N, gen),
        "space": [_dumps(s.to_json()) for s in profiles],
        "cli": _cli(src, gen),
        "text": _text(report_objs, profiles),
        "verdicts": _verdicts(N, pairs),
        "decimals": _decimals(N, gens),
        "mixed": _mixed(N),
    }
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
    for name, lines in corpora.items():
        text = "\n".join(lines) + "\n"
        if args.dump:
            with open(os.path.join(args.dump, f"{name}.txt"), "w", encoding="utf-8") as fh:
                fh.write(text)
        print(name, hashlib.sha256(text.encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
