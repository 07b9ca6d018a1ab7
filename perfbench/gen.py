"""Seeded input generators for the benchmark workloads.

Everything here is plain data (DSL text, index/value lists, CLI argv lists)
built from ``random.Random(seed)``; nothing imports the package under test,
so the inputs cannot depend on the code they measure.  ``digest`` hashes a
workload's whole input pool so two runs can be shown to use identical
inputs.

The classify pairs follow the shape of the test suite's ``gen_pair`` fuzz
generator (same choice tables, same draw order), printed as canonical DSL
text.
"""
from __future__ import annotations

import hashlib
import json
import random
import re

INF = float("inf")

_CONSTS = [1.0, 1.5, 2.0, 3.0, 10.0]
_LIMITS = [1.0, 1.5, 2.0, 3.0]
_COEFFS = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]
_DECAYS = [0.5, 1.0, 2.0]


def _fmt(x: float) -> str:
    if x == INF:
        return "inf"
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _drift(limit: float, coeff: float, decay: float) -> str:
    sign = "+" if coeff >= 0 else "-"
    tail = "" if decay == 1.0 else f"^{_fmt(decay)}"
    return f"{_fmt(limit)} {sign} {_fmt(abs(coeff))}/n{tail}"


def _linear(slope: float, intercept: float) -> str:
    head = "n" if slope == 1.0 else f"{_fmt(slope)}*n"
    return head if intercept == 0.0 else f"{head} + {_fmt(intercept)}"


def gen_base(rng: random.Random, allow_inf: bool = True, allow_sum: bool = True) -> str:
    roll = rng.random()
    if roll < 0.30 or (roll >= 0.90 and not allow_sum):
        return _fmt(rng.choice(_CONSTS + ([INF] if allow_inf else [])))
    if roll < 0.55:
        return _drift(rng.choice(_LIMITS), rng.choice(_COEFFS), rng.choice(_DECAYS))
    if roll < 0.75:
        slope = rng.choice([1.0, 2.0])
        return _linear(slope, rng.choice([0.0, 1.0, 3.0]))
    if roll < 0.90:
        return "blocks"
    return f"{_fmt(rng.choice(_CONSTS))} + recip({gen_base(rng, allow_inf=False)})"


def gen_exponent(rng: random.Random, depth: int = 1) -> str:
    if depth <= 0 or rng.random() < 0.55:
        return gen_base(rng)
    roll = rng.random()
    if roll < 0.55:
        parity = rng.choice(["even", "odd"])
        return f"merge({parity}: {gen_exponent(rng, depth - 1)}, {gen_exponent(rng, depth - 1)})"
    if roll < 0.85:
        count = rng.randint(1, 2)
        idx = sorted(rng.sample(range(1, 6), count))
        pairs = ", ".join(f"{i}={_fmt(rng.choice(_CONSTS))}" for i in idx)
        return f"prefix({pairs}; {gen_exponent(rng, depth - 1)})"
    return f"{_fmt(rng.choice(_CONSTS))} + recip({gen_base(rng, allow_inf=False)})"


def gen_pair(rng: random.Random) -> tuple[str, str, str]:
    """(p, q, relation); relation is what the construction guarantees:
    "equal" (p = q), "q_ge_p" (q >= p pointwise) or "" (nothing)."""
    p = gen_exponent(rng)
    roll = rng.random()
    if roll < 0.20:
        return p, p, "equal"
    if roll < 0.40:
        return p, f"{p} + recip({gen_base(rng, allow_inf=False)})", "q_ge_p"
    if roll < 0.55:
        return p, f"{p} + {_fmt(rng.choice([1.0, 2.0]))}", "q_ge_p"
    if roll < 0.70:
        return f"{p} + {_fmt(rng.choice([1.0, 2.0]))}", p, ""
    return p, gen_exponent(rng), ""


_N_VAR = re.compile(r"\bn\b")


def has_blocks(text: str) -> bool:
    return "blocks" in text


def has_n(text: str) -> bool:
    return _N_VAR.search(text) is not None


def branch_count(p: str, q: str) -> int:
    """Index-set branches of a pair: the DSL only splits by parity, so any
    merge gives two branches and everything else one."""
    return 2 if "merge(" in p or "merge(" in q else 1


# --------------------------------------------------------------------------
# classify: gen_pair pairs, the paper's three examples, probe-heavy pairs
# --------------------------------------------------------------------------

# (p, q, {verdict field: (answer, citation or None)}) from the paper's
# Examples 1-3, pinned by hand.
PAPER_EXAMPLES = (
    ("1 + 1/n", "1", {"spaces_equal": ("yes", "Prop 1.2 (Nakano's Lemma)")}),
    ("n", "inf", {"spaces_equal": ("yes", "Prop 1.2 (Nakano's Lemma)")}),
    ("1 + 1/n", "n", {"strictly_singular": ("yes", "Thm 2.2")}),
    (
        "blocks",
        "inf",
        {"spaces_equal": ("no", "Prop 1.2 (Nakano's Lemma)"), "strictly_singular": ("no", "Thm 2.3")},
    ),
    (
        "2",
        "2 + recip(blocks)",
        {
            "spaces_equal": ("no", "Prop 1.2 (Nakano's Lemma)"),
            "inclusion_holds": ("yes", None),
            "strictly_singular": ("no", "Thm 2.1"),
        },
    ),
)


HEAVY_SHAPES = 3


def _heavy_pair(rng: random.Random, shape: int) -> tuple[str, str, str]:
    """A pair of one of the gen_pair shapes that mix the n and a_n variables
    on one branch: the shapes whose verdicts fall back to numeric probes."""
    if shape == 0:
        drift = _drift(rng.choice(_LIMITS), rng.choice(_COEFFS), rng.choice(_DECAYS))
        return "blocks", f"blocks + recip({drift})", "q_ge_p"
    if shape == 1:
        return _linear(rng.choice([1.0, 2.0]), rng.choice([0.0, 1.0, 3.0])), "blocks", ""
    const = _fmt(rng.choice(_CONSTS))
    drift = _drift(rng.choice(_LIMITS), rng.choice(_COEFFS), rng.choice(_DECAYS))
    return f"{const} + recip(blocks)", drift, ""


CLASSIFY_DRAWS_PER_ROUND = 10
CLASSIFY_HEAVY_PER_ROUND = 2


def paper_ops() -> list[dict]:
    return [{"src": "paper", "p": p, "q": q, "rel": "", "pinned": pin} for p, q, pin in PAPER_EXAMPLES]


def classify_pool(seed: int, rounds: int) -> list[dict]:
    """Rounds of 13 operations: ten consecutive gen_pair draws, in the order
    the stream gives them and none left out, plus one of the paper's example
    pairs (in turn) and two probe-heavy pairs (the three mixed shapes in
    turn), each put at a seeded place in the round.

    gen_pair draws a pair that ends in numeric probes about 8% of the time,
    so left alone op_p90 would sit on the edge between probe-heavy pairs and
    decided ones, and the number of such pairs in a run swings with the
    seed.  The added pairs lift the probe-heavy share to about 20%, so op_p90
    reads the middle of that class, and they are a fixed share of the work.
    """
    stream = random.Random(seed)  # the same pair stream as gen_pair(random.Random(seed))
    rng = random.Random(f"{seed}:rounds")
    papers = paper_ops()
    pool = []
    for r in range(rounds):
        ops = []
        for _ in range(CLASSIFY_DRAWS_PER_ROUND):
            p, q, rel = gen_pair(stream)
            ops.append({"src": "gen_pair", "p": p, "q": q, "rel": rel, "pinned": {}})
        extras = [papers[r % len(papers)]]
        for h in range(CLASSIFY_HEAVY_PER_ROUND):
            p, q, rel = _heavy_pair(rng, (r * CLASSIFY_HEAVY_PER_ROUND + h) % HEAVY_SHAPES)
            extras.append({"src": "heavy", "p": p, "q": q, "rel": rel, "pinned": {}})
        for extra in extras:
            ops.insert(rng.randint(0, len(ops)), extra)
        pool += ops
    return pool


# --------------------------------------------------------------------------
# witness: equality_witness(p, p + recip(r)) and linf_witness(p + r)
# --------------------------------------------------------------------------

WITNESS_COUNTS = (5, 6, 7, 8)


def _unmixed_exponent(rng: random.Random, want_blocks: bool) -> str:
    while True:
        p = gen_exponent(rng)
        if has_blocks(p) == want_blocks and not (has_blocks(p) and has_n(p)):
            return p


def witness_pool(seed: int, rounds: int) -> list[dict]:
    """Rounds of 16 calls: {equality, linf} x {blocks p, blocks-free p} x
    counts 5-8.  r is unbounded and of p's own variable (blocks, or a
    linear n); mixing n with a_n would only get an Unknown-gap refusal."""
    rng = random.Random(seed)
    pool = []
    for _ in range(rounds):
        ops = []
        for kind in ("equality", "linf"):
            for want_blocks in (True, False):
                for count in WITNESS_COUNTS:
                    p = _unmixed_exponent(rng, want_blocks)
                    # slope 1 keeps "p + r" parseable when p ends in a linear term
                    r = "blocks" if want_blocks else _linear(1.0, rng.choice([0.0, 1.0, 3.0]))
                    if kind == "equality":
                        ops.append({"kind": kind, "p": p, "q": f"{p} + recip({r})", "count": count})
                    else:
                        ops.append({"kind": kind, "p": f"{p} + {r}", "count": count})
        rng.shuffle(ops)
        pool += ops
    return pool


# --------------------------------------------------------------------------
# norm: Luxemburg norms of random and flat vectors
# --------------------------------------------------------------------------

NORM_SIZES = (1000,) * 16 + (10_000,) * 3 + (100_000,)  # one round


def _norm_exponents(rng: random.Random) -> list[str]:
    c = rng.choice(_CONSTS)
    i, j = sorted(rng.sample(range(1, 50), 2))
    return [
        _fmt(c),
        "1 + 1/n",
        "blocks",
        "n",
        f"prefix({i}={_fmt(rng.choice(_CONSTS))}, {j}={_fmt(rng.choice(_CONSTS))}; merge(odd: inf, 2))",
        f"merge({rng.choice(['even', 'odd'])}: inf, {_fmt(rng.choice(_CONSTS))})",
    ]


def _random_vector(rng: random.Random, size: int) -> list[list]:
    support = sorted(rng.sample(range(1, 4 * size + 1), size))
    return [[i, rng.uniform(-10.0, 10.0)] for i in support]


def norm_pool(seed: int, rounds: int) -> tuple[list[dict], dict]:
    """Ops refer to vectors by key; each size has a flat vector (all ones on
    1..N) and a few random ones.  Exponent kind and vector rotate with the
    op's position so every run covers the same mix."""
    rng = random.Random(seed)
    vectors = {}
    per_size = {1000: 4, 10_000: 2, 100_000: 1}
    for size, count in per_size.items():
        vectors[f"flat{size}"] = [[i, 1.0] for i in range(1, size + 1)]
        for k in range(count):
            vectors[f"rand{size}_{k}"] = _random_vector(rng, size)
    pool = []
    for rnd in range(rounds):
        exps = _norm_exponents(rng)
        ops = []
        for pos, size in enumerate(NORM_SIZES):
            slot = rnd + pos
            count = per_size[size]
            key = f"flat{size}" if slot % (count + 1) == 0 else f"rand{size}_{slot % count}"
            ops.append({"p": exps[slot % len(exps)], "vector": key, "size": size})
        rng.shuffle(ops)
        pool += ops
    return pool, vectors


# --------------------------------------------------------------------------
# cli: the README's example commands plus one Unknown compare
# --------------------------------------------------------------------------

HEAVY_COMPARE = ["compare", "blocks", "blocks + recip(3 + 1/n^2)"]
VECTOR_ARG = "@vector.json"  # stands for the vector file the run writes


def cli_pool(seed: int, rounds: int) -> tuple[list[dict], list]:
    """Rounds of 17 commands in a seeded order: the README's eight example
    commands as written, twice, and the ROADMAP's Unknown compare in text
    mode (1 in 17 calls, clear of the 10% that op_p90 reads)."""
    rng = random.Random(seed)
    vector = _random_vector(rng, 8)
    readme = [
        ["norm", "2", "[[1,1],[2,1]]"],
        ["norm", "prefix(1=1; 2)", VECTOR_ARG],
        ["space", "blocks"],
        ["compare", "1 + 1/n", "n"],
        ["compare", "2", "2 + recip(blocks)", "--json"],
        ["witness", "2", "2 + recip(blocks)", "--count", "5"],
        ["witness", "blocks", "--linf"],
        ["probe", "2", "4", "--lengths", "4,64,1024,4096"],
    ]
    pool = []
    for _ in range(rounds):
        ops = [list(a) for a in readme + readme] + [list(HEAVY_COMPARE)]
        rng.shuffle(ops)
        pool += [{"argv": a} for a in ops]
    return pool, vector


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
