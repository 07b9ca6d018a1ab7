"""The four workloads: how one operation runs, how its output is checked,
and how the traced run splits it into spans per layer.

Each workload object holds its seeded input pool.  ``run(op)`` is the
operation exactly as a user performs it, ending with the result consumed
(``json.dumps(x.to_json())`` in process, stdout for the CLI).  ``check``
compares the consumed output with references that do not come from the
code under test and returns a description of the first mismatch, or None.
``run_traced`` performs the same operation inside one span, with child
spans around direct calls into each layer's public functions on the same
inputs.  A pool is a whole number of rounds of ``round_len`` operations:
``rounds_per_s`` rounds per second of ``--seconds``, at least 100
operations.  BASELINE.md gives the wall time this takes per workload.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import gen

REPORT_FIELDS = (
    "inclusion_holds",
    "spaces_equal",
    "strictly_singular",
    "weakly_compact",
    "compact",
    "l_weakly_compact",
    "m_weakly_compact",
)
EVAL_RANGE_TERMS = 100_000
BLOCK_STARTS = [1, 2, 6, 33, 289]  # 1 + sum_{j<k} j^j, worked out by hand
WITNESS_SLACK = 1e-9  # relative slack on the 1/k and k thresholds
ORACLE_RTOL = 1e-9  # closed-form norm oracle for constant exponents
SANDWICH_RTOL = 1e-12
CLI_TIMEOUT_S = 120


def _nakanoseq():
    import nakanoseq

    return nakanoseq


def _pin_mismatch(verdicts: dict, pinned: dict):
    """First verdict that differs from the hand-pinned answer and citation."""
    for f, (answer, citation) in pinned.items():
        v = verdicts[f]
        if v["answer"] != answer or (citation is not None and v["citation"] != citation):
            return f"{f} = {v['answer']} / {v['citation']!r}, paper says {answer} / {citation!r}"
    return None


class Classify:
    """parse_expression -> full_report(witness_count=0) -> JSON."""

    name = "classify"
    round_len = gen.CLASSIFY_DRAWS_PER_ROUND + gen.CLASSIFY_HEAVY_PER_ROUND + 1
    rounds_per_s = 0.75

    def __init__(self, seed: int, root: str, rounds: int):
        self.N = _nakanoseq()
        self.pool = gen.classify_pool(seed, rounds)
        self.inputs = self.pool
        first = self.pool[: self.round_len]
        self.warmup = gen.paper_ops()
        heavy = [op for op in first if op["src"] == "heavy"]
        light = [op for op in first if op["src"] == "gen_pair"][:4]
        self.sample = self.warmup + heavy + light

    def run(self, op):
        N = self.N
        p = N.parse_expression(op["p"])
        q = N.parse_expression(op["q"])
        js = N.full_report(p, q, witness_count=0).to_json()
        json.dumps(js)
        return js

    def check(self, op, js):
        anchors = self.N.CITATION_ANCHORS
        for f in REPORT_FIELDS:
            v = js[f]
            if v["answer"] != "unknown" and v["citation"] not in anchors:
                return f"{f} cites {v['citation']!r}, not an anchor"
        pin = _pin_mismatch(js, op["pinned"])
        if pin:
            return pin
        if op["rel"] == "equal" and js["spaces_equal"]["answer"] == "no":
            return "spaces_equal = no for identical exponents"
        if op["rel"] in ("equal", "q_ge_p") and js["inclusion_holds"]["answer"] == "no":
            return "inclusion_holds = no although q >= p pointwise"
        return None

    @staticmethod
    def decided(js) -> tuple[int, int]:
        answers = [js[f]["answer"] for f in ("inclusion_holds", "spaces_equal")]
        return sum(a != "unknown" for a in answers), len(answers)

    def run_traced(self, op, tr, oid):
        N = self.N
        with tr.span("classify.op", oid, branches=gen.branch_count(op["p"], op["q"])):
            with tr.span("dsl.parse_expression", oid):
                p = N.parse_expression(op["p"])
            with tr.span("dsl.parse_expression", oid):
                q = N.parse_expression(op["q"])
            with tr.span("asymptotics.profile", oid):
                N.profile(p)
            with tr.span("asymptotics.profile", oid):
                N.profile(q)
            with tr.span("asymptotics.liminf_abs_gap", oid):
                N.liminf_abs_gap(p, q)
            with tr.span("asymptotics.signed_liminf_gap", oid):
                N.signed_liminf_gap(p, q)
            nak, rn = N.NakanoExponent(p, q), N.RnOf(p, q)
            with tr.span("series.exists_alpha", oid) as s:
                equal = N.exists_alpha(nak)
                s.attrs["decided"] = equal.answer is not N.Answer.UNKNOWN
            with tr.span("series.one_in_lrn", oid) as s:
                incl = N.one_in_lrn(p, q)
                s.attrs["decided"] = incl.answer is not N.Answer.UNKNOWN
            for exponent, verdict in ((nak, equal), (rn, incl)):
                probe = verdict.certificate
                if not isinstance(probe, N.NumericProbe):
                    continue
                with tr.span("series.probe", oid, terms=probe.horizon * len(probe.partial_sums)):
                    for alpha, _ in probe.partial_sums:
                        N.partial_sum(alpha, exponent, probe.horizon)
                with tr.span("exponents.eval_range", oid, terms=EVAL_RANGE_TERMS):
                    exponent.eval_range(1, EVAL_RANGE_TERMS + 1)
            with tr.span("criteria.inclusion_holds", oid):
                N.inclusion_holds(p, q)
            with tr.span("criteria.spaces_equal", oid):
                N.spaces_equal(p, q)
            with tr.span("criteria.full_report", oid):
                report = N.full_report(p, q, witness_count=0)
            js = report.to_json()
            json.dumps(js)
        return js


class Witness:
    """equality_witness(p, p + recip(r), k) and linf_witness(p + r, k)."""

    name = "witness"
    round_len = 16
    rounds_per_s = 1.3

    def __init__(self, seed: int, root: str, rounds: int):
        self.N = N = _nakanoseq()
        self.inputs = gen.witness_pool(seed, rounds)
        self.pool = []
        for spec in self.inputs:
            op = dict(spec, P=N.parse_expression(spec["p"]))
            if spec["kind"] == "equality":
                op["Q"] = N.parse_expression(spec["q"])
            self.pool.append(op)
        self.warmup = self.pool[:2]
        picked = {}
        for op in self.pool[:16]:
            picked.setdefault((op["kind"], gen.has_blocks(op["p"])), op)
        self.sample = list(picked.values())

    def _call(self, op):
        N = self.N
        if op["kind"] == "equality":
            return N.equality_witness(op["P"], op["Q"], op["count"])
        return N.linf_witness(op["P"], op["count"])

    def run(self, op):
        js = self._call(op).to_json()
        json.dumps(js)
        return js

    def check(self, op, js):
        idx = js["indices"]
        if len(idx) != op["count"]:
            return f"{len(idx)} indices, asked for {op['count']}"
        if any(b <= a for a, b in zip(idx, idx[1:])):
            return f"indices not strictly increasing: {idx}"
        P, inf = op["P"], math.inf
        for k, n in enumerate(idx, start=1):
            if op["kind"] == "equality":
                a, b = P.eval(n), op["Q"].eval(n)
                gap = 0.0 if a == inf and b == inf else abs(a - b)
                if gap > (1.0 / k) * (1.0 + WITNESS_SLACK):
                    return f"|p - q|({n}) = {gap} > 1/{k}"
            elif P.eval(n) < k * (1.0 - WITNESS_SLACK):
                return f"p({n}) = {P.eval(n)} < {k}"
        return None

    def run_traced(self, op, tr, oid):
        N = self.N
        kind = op["kind"]
        with tr.span("witness.op", oid):
            with tr.span(f"witness.{kind}_witness", oid) as s:
                w = self._call(op)
                s.attrs["reach"] = w.indices[-1]
            scanned = N.AbsDiff(op["P"], op["Q"]) if kind == "equality" else op["P"]
            with tr.span("exponents.eval_range", oid, terms=EVAL_RANGE_TERMS):
                scanned.eval_range(1, EVAL_RANGE_TERMS + 1)
            js = w.to_json()
            json.dumps(js)
        return js


class Norm:
    """luxemburg_norm on random and flat vectors of 10^3..10^5 entries."""

    name = "norm"
    round_len = len(gen.NORM_SIZES)
    rounds_per_s = 0.45

    def __init__(self, seed: int, root: str, rounds: int):
        self.N = N = _nakanoseq()
        specs, vectors = gen.norm_pool(seed, rounds)
        self.inputs = {"ops": specs, "vectors": vectors}
        self.vectors = {key: N.SparseVector.from_pairs(entries) for key, entries in vectors.items()}
        exps = {s["p"]: N.parse_expression(s["p"]) for s in specs}
        self.pool = [dict(s, P=exps[s["p"]]) for s in specs]
        self._abs = {}  # vector key -> (|x_i| list, max, sum), made when a check first needs it
        self._oracle = {}
        small = [op for op in self.pool if op["size"] == 1000]
        self.warmup = small[:2]
        self.sample = small[:4]

    def run(self, op):
        js = self.N.luxemburg_norm(op["P"], self.vectors[op["vector"]]).to_json()
        json.dumps(js)
        return js

    def abs_entries(self, key):
        if key not in self._abs:
            absx = [abs(v) for _, v in self.inputs["vectors"][key]]
            self._abs[key] = (absx, max(absx), math.fsum(absx))
        return self._abs[key]

    def oracle(self, op):
        """Closed form for a constant exponent c: (sum |x_i|^c)^(1/c)."""
        if not isinstance(op["P"], self.N.Const):
            return None
        key = (op["vector"], op["p"])
        if key not in self._oracle:
            c = op["P"].value
            absx = self.abs_entries(op["vector"])[0]
            self._oracle[key] = math.fsum(a**c for a in absx) ** (1.0 / c)
        return self._oracle[key]

    def check(self, op, js):
        _, top, total = self.abs_entries(op["vector"])
        value = js["value"]
        if not js["converged"]:
            return "not converged"
        if not (top * (1 - SANDWICH_RTOL) <= value <= total * (1 + SANDWICH_RTOL)):
            return f"value {value} outside [max|x|, sum|x|] = [{top}, {total}]"
        want = self.oracle(op)
        if want is not None and abs(value - want) > ORACLE_RTOL * want:
            return f"value {value}, closed form {want}"
        return None

    def run_traced(self, op, tr, oid):
        N = self.N
        x = self.vectors[op["vector"]]
        with tr.span("norm.op", oid):
            with tr.span("exponents.eval", oid, entries=len(x)):
                for i in x.support:
                    op["P"].eval(i)
            with tr.span("vectors.luxemburg_norm", oid, entries=len(x)) as s:
                result = N.luxemburg_norm(op["P"], x)
                s.attrs["iterations"] = result.iterations
            js = result.to_json()
            json.dumps(js)
        return js


_VERDICT_LINE = re.compile(r"^(\w+): (Yes|No|Unknown)(?: — (.*))?$")


def _text_verdicts(out: str) -> dict:
    found = {}
    for line in out.splitlines():
        m = _VERDICT_LINE.match(line)
        if m:
            citation = (m.group(3) or "").split(" — ")[0]
            found[m.group(1)] = {"answer": m.group(2).lower(), "citation": citation}
    return found


class Cli:
    """python -m nakanoseq.cli <argv> as a subprocess, stdout consumed."""

    name = "cli"
    round_len = 17
    rounds_per_s = 0.19

    def __init__(self, seed: int, root: str, rounds: int):
        self.root = root
        work = os.path.join(root, "perfbench", ".work")
        os.makedirs(work, exist_ok=True)
        self.vec_path = os.path.join(work, f"vec-{os.getpid()}.json")
        self.vec_arg = "@" + os.path.relpath(self.vec_path, root)
        self.pool, vector = gen.cli_pool(seed, rounds)
        with open(self.vec_path, "w", encoding="utf-8") as fh:
            json.dump(vector, fh)
        absx = [abs(v) for _, v in vector]
        self.vec_bounds = (max(absx), math.fsum(absx))
        self.inputs = {"ops": self.pool, "vector": vector}
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.pins = {(p, q): pin for p, q, pin in gen.PAPER_EXAMPLES}
        self.warmup = [{"argv": ["norm", "2", "[[1,1],[2,1]]"]}]
        light = [op for op in self.pool if op["argv"] != gen.HEAVY_COMPARE]
        self.sample = light[:2]

    def close(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.vec_path)

    def _python(self, args):
        return subprocess.run(
            [sys.executable, *args],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )

    def argv(self, op):
        return [self.vec_arg if a == gen.VECTOR_ARG else a for a in op["argv"]]

    def run(self, op):
        proc = self._python(["-m", "nakanoseq.cli", *self.argv(op)])
        return {"code": proc.returncode, "out": proc.stdout}

    def check(self, op, res):
        argv = op["argv"]
        if res["code"] != 0:
            return f"exit code {res['code']}"
        out = res["out"]
        js = json.loads(out) if "--json" in argv else None
        cmd = argv[0]
        if cmd == "norm":
            value = js["value"] if js else float(out.split()[1])
            if js is not None and not js["converged"]:
                return "norm not converged"
            if argv[1] == "2":
                if abs(value - math.sqrt(2.0)) > 1e-9:
                    return f"norm {value}, closed form sqrt(2)"
            else:
                top, total = self.vec_bounds
                if not (top * (1 - 1e-9) <= value <= total * (1 + 1e-9)):
                    return f"norm {value} outside [max|x|, sum|x|]"
        elif cmd == "space":
            got = js["contains_linf_copy"]["answer"] if js else _text_verdicts(out)["contains_linf_copy"]["answer"]
            if got != "yes":
                return f"contains_linf_copy = {got} for the unbounded blocks exponent"
        elif cmd == "compare":
            verdicts = js if js else _text_verdicts(out)
            missing = [f for f in REPORT_FIELDS if f not in verdicts]
            if missing:
                return f"verdicts missing: {missing}"
            pin = _pin_mismatch(verdicts, self.pins.get((argv[1], argv[2]), {}))
            if pin:
                return pin
        elif cmd == "witness":
            idx = js["indices"] if js else [int(n) for n in re.findall(r"\bn=(\d+)", out)]
            if idx != BLOCK_STARTS:
                return f"witness indices {idx}, block starts are {BLOCK_STARTS}"
        elif cmd == "probe":
            if js:
                rows = [(r["length"], r["ratio"]) for r in js["rows"]]
            else:
                rows = [(int(line.split()[0]), float(line.split()[3])) for line in out.splitlines()[1:]]
            if [n for n, _ in rows] != [4, 64, 1024, 4096]:
                return f"probe lengths {[n for n, _ in rows]}"
            for n, ratio in rows:  # ||1_N||_4 / ||1_N||_2 = N^(1/4 - 1/2)
                if abs(ratio - n ** -0.25) > 1e-6:
                    return f"ratio {ratio} at N = {n}, closed form {n ** -0.25}"
        return None

    def run_traced(self, op, tr, oid):
        import nakanoseq.cli as cli

        with tr.span("cli.op", oid):
            with tr.span("cli.command", oid):
                res = self.run(op)
            with tr.span("cli.interpreter", oid):
                self._python(["-c", "pass"])
            with tr.span("cli.import", oid) as s:
                proc = self._python(["-X", "importtime", "-c", "import nakanoseq.cli"])
                s.attrs.update(_import_times(proc.stderr))
            with tr.span("cli.main", oid):
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(self.argv(op))
            if code != res["code"]:
                raise RuntimeError(f"in-process cli.main exit {code}, subprocess exit {res['code']}")
        return res


def _import_times(stderr: str) -> dict:
    """Cumulative import time (ms) of numpy and of the package, from -X importtime."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("numpy", "nakanoseq"):
            out[parts[2].strip() + "_ms"] = int(parts[1]) / 1000.0
    return out


WORKLOADS = {w.name: w for w in (Classify, Witness, Norm, Cli)}
