"""Seeded benchmark for nakanoseq.

    python3 perfbench/run.py --workload classify --seed 2 --seconds 20 --trace 0

Run from the root of a checkout (the package is imported from ``src/``).
The default seed, 2, reaches the pair that breaks the block cache on
classify, so a plain run shows that defect.
Workloads: classify, witness, norm, cli (see perfbench/README.md).  Each
runs in its own worker process, one caller in a closed loop, through a
seeded pool of whole rounds of operations, at least 100 operations, sized
from ``--seconds`` (the count does not depend on the speed of the host);
every output is checked.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` a
separate traced run prints the per-layer metrics.  Human-readable lines come
first, and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``failed`` counts operations that raised or whose output failed a check;
``correct`` is false when any output was wrong.  Exits non-zero, with no
result line, when the package source is missing or a worker fails.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("classify", "witness", "norm", "cli")

MIN_OPS = 100  # so op_p90 has at least ten samples beyond it
SETUP_SAMPLES = 5  # worker start-ups per run; setup_s is their median
WORKER_TIMEOUT_S = 150.0
TRACE_SHARE = 0.4  # of the pool, run untraced and then traced in a traced run

E2E_UNITS = {"op_p50_ms": "ms", "op_p90_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


# --------------------------------------------------------------------------
# worker process: sets up one workload and measures it
# --------------------------------------------------------------------------


class Tally:
    """Outcome counts of every attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.raised: Counter = Counter()
        self.problems: list[str] = []
        self.decided = 0
        self.verdicts = 0

    @property
    def failed(self) -> int:
        return self.wrong + sum(self.raised.values())

    def _note(self, wl, op, text):
        if len(self.problems) < 5:
            shown = {k: v for k, v in op.items() if isinstance(v, (str, int, list))}
            self.problems.append(f"{wl.name} {json.dumps(shown)}: {text}")

    def run(self, wl, op, call) -> float:
        """Runs one operation; its duration in seconds, or inf if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call(op)
        except Exception as exc:  # a failed operation is counted, never fatal
            self.raised[type(exc).__name__] += 1
            self._note(wl, op, f"{type(exc).__name__}: {exc}")
            return math.inf
        dt = time.perf_counter() - t0
        try:
            problem = wl.check(op, out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problem = f"malformed output: {type(exc).__name__}: {exc}"
        if problem:
            self.wrong += 1
            self._note(wl, op, problem)
            return math.inf
        if hasattr(wl, "decided"):
            d, v = wl.decided(out)
            self.decided += d
            self.verdicts += v
        return dt


def closed_loop(wl, tally, call, ops):
    """The given operations back to back, in order; returns (durations, wall)."""
    start = time.perf_counter()
    durations = [tally.run(wl, op, call) for op in ops]
    return durations, time.perf_counter() - start


def percentile_ms(durations, q, wall):
    """Nearest-rank percentile; failures sort above every success, and a
    percentile that lands on one reads as the whole measured wall time."""
    ranked = sorted(durations)
    v = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
    return 1000.0 * (wall if v == math.inf else v)


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def make_workload(name, seed, seconds=None):
    """The workload with a pool of whole rounds, ``rounds_per_s`` of them per
    second of ``seconds`` and at least MIN_OPS operations, or a single round
    when ``seconds`` is None."""
    import work

    cls = work.WORKLOADS[name]
    rounds = 1
    if seconds is not None:
        rounds = max(math.ceil(seconds * cls.rounds_per_s), math.ceil(MIN_OPS / cls.round_len))
    return cls(seed, ROOT, rounds)


def _decided(span):
    return span.attrs.get("decided", False)


def per_layer(tr, overhead_ratio):
    """Per-layer metrics derived from the spans: {name: (value, unit, calls)}."""
    self_t = tr.self_times()

    def med(span_name, scale, unit, per=None, where=None):
        spans = [s for s in tr.named(span_name) if where is None or where(s)]
        vals = [self_t[s.sid] * scale / (s.attrs[per] if per else 1) for s in spans]
        return (statistics.median(vals) if vals else 0.0, unit, len(vals))

    def mean_attr(span_name, attr, unit):
        vals = [s.attrs[attr] for s in tr.named(span_name) if attr in s.attrs]
        return (statistics.fmean(vals) if vals else 0.0, unit, len(vals))

    def attr_median(span_name, attr, unit):
        vals = [s.attrs[attr] for s in tr.named(span_name) if attr in s.attrs]
        return (statistics.median(vals) if vals else 0.0, unit, len(vals))

    classify_ops = tr.named("classify.op")
    n_ops = max(1, len(classify_ops))
    probes = tr.named("series.probe")

    parts = ("criteria.inclusion_holds", "criteria.spaces_equal", "asymptotics.liminf_abs_gap", "asymptotics.profile")
    per_op = defaultdict(lambda: [0.0, 0.0])  # op id -> [full_report, sum of its parts]
    for s in tr.spans:
        if s.error:
            continue
        if s.name == "criteria.full_report":
            per_op[s.op][0] = s.duration
        elif s.name in parts:
            per_op[s.op][1] += s.duration
    pairs = [(f, p) for f, p in per_op.values() if f > 0 and p > 0]

    norm_spans = tr.named("vectors.luxemburg_norm")
    ns_entry_iter = [
        self_t[s.sid] * 1e9 / (s.attrs["entries"] * max(1, s.attrs["iterations"])) for s in norm_spans
    ]
    return {
        "dsl.parse_us": med("dsl.parse_expression", 1e6, "us"),
        "asymptotics.profile_us": med("asymptotics.profile", 1e6, "us"),
        "asymptotics.gap_us": med("asymptotics.liminf_abs_gap", 1e6, "us"),
        "asymptotics.signed_gaps_us": med("asymptotics.signed_liminf_gap", 1e6, "us"),
        "asymptotics.branches_per_pair": mean_attr("classify.op", "branches", "count"),
        "series.exists_alpha_us": med("series.exists_alpha", 1e6, "us", where=_decided),
        "series.one_in_lrn_us": med("series.one_in_lrn", 1e6, "us", where=_decided),
        "series.probe_s": med("series.probe", 1.0, "s"),
        "series.probes": (len(probes) / n_ops, "count/op", len(probes)),
        "series.probe_terms": (sum(s.attrs["terms"] for s in probes) / n_ops, "count/op", len(probes)),
        "criteria.full_report_us": med("criteria.full_report", 1e6, "us"),
        "criteria.self_us": (statistics.median([(f - p) * 1e6 for f, p in pairs]) if pairs else 0.0, "us", len(pairs)),
        "criteria.recompute_ratio": (statistics.median([f / p for f, p in pairs]) if pairs else 0.0, "ratio", len(pairs)),
        "witness.equality_us": med("witness.equality_witness", 1e6, "us"),
        "witness.linf_us": med("witness.linf_witness", 1e6, "us"),
        "witness.reach": mean_attr("witness.equality_witness", "reach", "index"),
        "exponents.eval_range_ns_per_term": med("exponents.eval_range", 1e9, "ns", per="terms"),
        "exponents.eval_us": med("exponents.eval", 1e6, "us", per="entries"),
        "vectors.norm_us": med("vectors.luxemburg_norm", 1e6, "us"),
        "vectors.iterations": mean_attr("vectors.luxemburg_norm", "iterations", "count"),
        "vectors.ns_per_entry_iter": (
            statistics.median(ns_entry_iter) if ns_entry_iter else 0.0,
            "ns",
            len(ns_entry_iter),
        ),
        "cli.interpreter_ms": med("cli.interpreter", 1e3, "ms"),
        "cli.numpy_import_ms": attr_median("cli.import", "numpy_ms", "ms"),
        "cli.import_ms": attr_median("cli.import", "nakanoseq_ms", "ms"),
        "cli.main_ms": med("cli.main", 1e3, "ms"),
        "trace.overhead_ratio": overhead_ratio,
    }


def worker(args):
    sys.path.insert(0, SRC)
    if args.workload != "cli" or args.worker == "trace":
        import nakanoseq

        if not os.path.abspath(nakanoseq.__file__).startswith(SRC + os.sep):
            sys.exit(f"nakanoseq imported from {nakanoseq.__file__}, not from {SRC}")
    import gen

    wl = make_workload(args.workload, args.seed, args.seconds)
    for op in wl.warmup:
        try:
            wl.run(op)
        except Exception:  # the timed loop meets and counts the same input
            pass
    ready = time.monotonic()
    out = {"ready": ready}
    try:
        if args.worker == "timed":
            out.update(timed(wl, args))
        elif args.worker == "trace":
            out.update(traced(wl, args))
        if args.worker != "setup":
            out["digest"] = gen.digest(wl.inputs)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    print(json.dumps(out))


def timed(wl, args):
    tally = Tally()
    durations, wall = closed_loop(wl, tally, wl.run, wl.pool)
    ok = sum(d != math.inf for d in durations)
    metrics = {
        "op_p50_ms": percentile_ms(durations, 0.5, wall),
        "op_p90_ms": percentile_ms(durations, 0.9, wall),
        "ops_per_s": ok / wall,
        "peak_rss_mb": peak_rss_mb(args.workload),
    }
    info = {"ops": len(durations), "wall_s": wall}
    if tally.verdicts:
        info["decided_ratio"] = tally.decided / tally.verdicts
    return _tally_json(tally) | {"metrics": metrics, "info": info}


def traced(wl, args):
    import spans

    tally = Tally()
    ops = wl.pool[: math.ceil(TRACE_SHARE * len(wl.pool))]
    untraced, _ = closed_loop(wl, tally, wl.run, ops)
    tr = spans.Tracer()
    oid = itertools.count()

    def traced_call(w):
        return lambda op: w.run_traced(op, tr, next(oid))

    closed_loop(wl, tally, traced_call(wl), ops)
    op_spans = [s.duration if not s.error else math.inf for s in tr.spans if s.name == f"{wl.name}.op"]
    overhead = (statistics.median(op_spans) / statistics.median(untraced), "ratio", len(op_spans))
    # the other workloads' layers, from a few traced operations each
    for name in WORKLOADS:
        if name == wl.name:
            continue
        other = make_workload(name, args.seed)
        try:
            for op in other.sample:
                tally.run(other, op, traced_call(other))
        finally:
            if hasattr(other, "close"):
                other.close()
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    tr.dump(os.path.join(HERE, ".work", f"trace-{wl.name}-{args.seed}.jsonl"))
    layers = per_layer(tr, overhead)
    return _tally_json(tally) | {"layers": layers}


def _tally_json(t):
    return {
        "attempted": t.attempted,
        "failed": t.failed,
        "wrong": t.wrong,
        "raised": dict(t.raised),
        "problems": t.problems,
    }


# --------------------------------------------------------------------------
# parent process: spawns the workers, prints the result
# --------------------------------------------------------------------------


def spawn(mode, args):
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--worker",
        mode,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
    ]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"{mode} worker timed out after {WORKER_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        sys.exit(f"{mode} worker exited with code {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - started
    return res


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", choices=("setup", "timed", "trace"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return worker(args)

    if not os.path.isfile(os.path.join(SRC, "nakanoseq", "__init__.py")):
        sys.exit(f"package source not found under {SRC}; run from the root of a checkout")

    if args.trace:
        res = spawn("trace", args)
        metrics = {k: (v, unit) for k, (v, unit, _) in res["layers"].items()}
        counts = {k: calls for k, (_, _, calls) in res["layers"].items()}
    else:
        setups = [spawn("setup", args)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        res = spawn("timed", args)
        setups.append(res["setup_s"])
        metrics = {k: (v, E2E_UNITS[k]) for k, v in res["metrics"].items()}
        metrics["setup_s"] = (statistics.median(setups), "s")
        counts = {}

    info = res.get("info", {})
    print(f"workload {args.workload}  seed {args.seed}  inputs sha256:{res['digest']}  trace {args.trace}")
    if info:
        print(f"  operations {info['ops']} in {info['wall_s']:.2f} s")
    for name, (value, unit) in metrics.items():
        calls = f"  calls={counts[name]}" if name in counts else ""
        print(f"  {name:<34} {value:>14.6g} {unit}{calls}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"  {'failed_ratio':<34} {failed / attempted:>14.6g} ratio  ({failed}/{attempted}; raised {res['raised']}, wrong {res['wrong']})")
    if "decided_ratio" in info:
        print(f"  {'decided_ratio':<34} {info['decided_ratio']:>14.6g} ratio")
    for p in res["problems"]:
        print(f"  failure: {p}")
    result = {
        "correct": res["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
