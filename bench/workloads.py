"""Seeded inputs, timed operations and output checks for the benchmark.

Every workload is a fixed list of operations (one *pass*) that the runner
repeats.  An operation has three parts: ``prepare`` builds its cold input
outside the clock (a fresh ``Graph``, or an emptied class cache), ``call``
is the timed call into the library, and ``check`` compares the output with
values frozen in ``frozen.json`` by ``freeze.py``.

Inputs come from this module's own generator, never from the package's
``random_cactus`` or ``Universe`` samplers, so changes to those samplers
cannot silently change the workload.  The library only ever receives the
generated ``Graph`` objects.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import szegedtools as st
from szegedtools import enumeration

FROZEN_PATH = Path(__file__).with_name("frozen.json")

# OEIS A000083 from offset 0: cacti with n vertices up to isomorphism.
A000083 = (1, 1, 1, 2, 4, 9, 23, 63)
EXHAUSTIVE_MAX_N = 7

INDEX_SIZES = (500, 1000, 2000)
INDEX_CALLS = ("edge_revised_szeged", "emit_graph6", "wiener", "szeged", "edge_partitions")

POOL_SEED = 0
POOL_SIZE = 300
POOL_MAX_N = 40
AUDITS = (
    "audit_pendant_edges",
    "audit_cycle_gaps",
    "audit_bundle_floor",
    "audit_inner_cut_edge_floor",
    "audit_off_quadrangle_floor",
    "audit_inner_cycle_floor",
)
# Audits reporting a structural hypothesis (``applicable``) and a claim
# domain (``in_domain``), keyed by the claim id they report under.
STRUCTURAL_CLAIMS = {
    "audit_inner_cut_edge_floor": "lemma4.1",
    "audit_off_quadrangle_floor": "lemma4.2",
    "audit_inner_cycle_floor": "lemma4.3",
}

# ---------------------------------------------------------------------------
# generator


def grow_cactus(rng: random.Random, n: int, k: int) -> list[tuple[int, int]]:
    """Edges of a random cactus with ``n`` vertices and ``k`` cycles.

    Leaf-block growth: starting from one vertex, each step either hangs a
    pendant vertex or attaches an L-cycle at a uniformly chosen existing
    vertex, in random step order; the result is then relabeled at random.
    Every cactus is the end point of some such sequence (peel its leaf
    blocks in reverse), so every isomorphism class, cycles joined by
    bridges included, has positive probability.
    """
    if not (n >= 1 and 0 <= k and n >= 2 * k + 1):
        raise ValueError(f"no cactus has n = {n} and k = {k}")
    spare = n - 1 - 2 * k
    lengths = []
    for _ in range(k):
        extra = rng.randint(0, spare)
        spare -= extra
        lengths.append(3 + extra)
    steps = lengths + [1] * spare
    rng.shuffle(steps)
    edges = []
    verts = 1
    for length in steps:
        at = rng.randrange(verts)
        if length == 1:
            edges.append((at, verts))
            verts += 1
            continue
        ring = [at, *range(verts, verts + length - 1)]
        verts += length - 1
        edges.extend((ring[i], ring[(i + 1) % length]) for i in range(length))
    return relabel(rng, n, edges)


def relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def stream_pairs(rng: random.Random, count: int, max_n: int):
    """(n, k) draws of the default ``verify --samples`` mix."""
    for _ in range(count):
        n = rng.randint(3, max_n)
        yield n, rng.randint(0, (n - 1) // 2)


def audit_pool() -> list[tuple[int, list[tuple[int, int]]]]:
    rng = random.Random(POOL_SEED)
    return [(n, grow_cactus(rng, n, k)) for n, k in stream_pairs(rng, POOL_SIZE, POOL_MAX_N)]


def index_structure(n: int) -> list[tuple[int, int]]:
    """The fixed shape of one index_large input; runs only relabel it."""
    return grow_cactus(random.Random(n), n, n // 5)


# ---------------------------------------------------------------------------
# independent helpers used by the checks


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def graph6(n: int, edges) -> str:
    """graph6 encoding, long form above n = 62, written from the spec."""
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~"] + [chr(((n >> s) & 63) + 63) for s in (12, 6, 0)]
    eset = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(u, v) in eset for v in range(1, n) for u in range(v)]
    bits += [False] * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        out.append(chr(sum(b << (5 - j) for j, b in enumerate(bits[i : i + 6])) + 63))
    return "".join(out)


def partition_digest(parts) -> str:
    """Relabeling-invariant digest of an edge-partition list."""
    return digest(sorted((min(p.m_u, p.m_v), max(p.m_u, p.m_v), p.m_0) for p in parts))


def load_frozen() -> dict:
    frozen = json.loads(FROZEN_PATH.read_text())
    if frozen["pool"] != {"seed": POOL_SEED, "size": POOL_SIZE, "max_n": POOL_MAX_N}:
        raise SystemExit("frozen.json was made for another audit pool; rerun freeze.py")
    if sorted(frozen["index_large"]) != sorted(str(n) for n in INDEX_SIZES):
        raise SystemExit("frozen.json was made for other index sizes; rerun freeze.py")
    totals = class_totals(frozen["exhaustive"])
    if totals != A000083[1:]:
        raise SystemExit(f"frozen class counts {totals} disagree with OEIS A000083")
    return frozen


def class_totals(rows: dict) -> tuple[int, ...]:
    """Classes per n = 1..EXHAUSTIVE_MAX_N, summed over k."""
    totals = [0] * EXHAUSTIVE_MAX_N
    for key, row in rows.items():
        totals[int(key.split(",")[0]) - 1] += row["classes"]
    return tuple(totals)


# ---------------------------------------------------------------------------
# operations

OK, KNOWN, WRONG = "ok", "known", "wrong"


@dataclass
class Op:
    """One timed call.  ``check`` maps the call's outcome (its return value,
    or the exception it raised) to OK, KNOWN (a known defect, counted as a
    failed op) or WRONG."""

    kind: str
    prepare: Callable[[], Any]
    call: Callable[[Any], Any]
    check: Callable[[Any], str]
    graphs: int = 0  # graphs the op hands to, or scores in, the library


def _clear_class_cache() -> None:
    # The per-(n, k) class cache would make every pass after the first free.
    cache = getattr(enumeration, "_class_cache", None)
    if cache is not None:
        cache.clear()


def exhaustive_ops(rng: random.Random, frozen: dict) -> list[Op]:
    ops = []
    for key, row in frozen["exhaustive"].items():
        n, k = map(int, key.split(","))

        def search(_, n=n, k=k):
            return st.search_extremal(n, k, workers=1).to_dict()

        def check_search(out, row=row):
            if isinstance(out, Exception):
                return KNOWN if type(out).__name__ == row["search_raises"] else WRONG
            if out["class_count"] != row["classes"] or out["minimum_agrees"] is False:
                return WRONG
            # A known defect that later gets fixed has no frozen digest yet.
            return OK if row["search"] in (None, digest(out)) else WRONG

        def labeled(_, n=n, k=k):
            return sum(1 for _ in st.enumerate_cacti(n, k, dedup=False, workers=1))

        def check_labeled(out, row=row):
            return OK if out == row["labeled"] else WRONG

        ops.append(Op("search", _clear_class_cache, search, check_search, row["classes"]))
        ops.append(Op("labeled", lambda: None, labeled, check_labeled))
    rng.shuffle(ops)
    return ops


def _value(check: Callable[[Any], str]) -> Callable[[Any], str]:
    return lambda out: WRONG if isinstance(out, Exception) else check(out)


def index_ops(rng: random.Random, frozen: dict) -> list[Op]:
    """The calls ``compute --edges`` makes, one op per call, on each graph.

    The shapes are fixed so their exact values can be frozen; the seed
    relabels them, which leaves every value and the multiset of edge
    partitions unchanged.
    """
    order = list(INDEX_SIZES)
    rng.shuffle(order)
    ops = []
    for n in order:
        edges = relabel(rng, n, index_structure(n))
        want = frozen["index_large"][str(n)]
        m = len(edges)
        current = {}

        def fresh(n=n, edges=edges, current=current):
            current["g"] = st.Graph(n, edges)
            return current["g"]

        def reuse(current=current):
            return current["g"]

        def check_g6(out, n=n, edges=edges):
            # The short form refuses n > 62 by design; a long-form encoder,
            # if one is added, must match the spec.
            if isinstance(out, st.FormatError):
                return OK
            return OK if out == graph6(n, edges) else WRONG

        def check_parts(out, want=want, m=m):
            if len(out) != m or any(p.m_u + p.m_v + p.m_0 != m for p in out):
                return WRONG
            # 4 Sz_e* = m^3 - sum over edges of (m_u - m_v)^2
            if want["ers_num"] != m**3 - sum((p.m_u - p.m_v) ** 2 for p in out):
                return WRONG
            return OK if partition_digest(out) == want["partitions"] else WRONG

        checks = {
            "edge_revised_szeged": _value(
                lambda out, want=want: OK if out.num == want["ers_num"] else WRONG
            ),
            "emit_graph6": check_g6,
            "wiener": _value(lambda out, want=want: OK if out == want["wiener"] else WRONG),
            "szeged": _value(lambda out, want=want: OK if out == want["szeged"] else WRONG),
            "edge_partitions": _value(check_parts),
        }
        for i, name in enumerate(INDEX_CALLS):
            ops.append(
                Op(
                    name,
                    fresh if i == 0 else reuse,
                    lambda g, name=name: getattr(st, name)(g),
                    checks[name],
                    graphs=int(i == 0),
                )
            )
    return ops


class AuditTally:
    """Counts, from the audits' own outputs, how often each structural
    hypothesis applied and how often the edge count fell in the claim's
    domain."""

    def __init__(self):
        self.audits = dict.fromkeys(STRUCTURAL_CLAIMS.values(), 0)
        self.applicable = dict.fromkeys(STRUCTURAL_CLAIMS.values(), 0)
        self.in_domain = dict.fromkeys(STRUCTURAL_CLAIMS.values(), 0)

    def add(self, name: str, audit) -> None:
        claim = STRUCTURAL_CLAIMS.get(name)
        if claim is None:
            return
        self.audits[claim] += 1
        if audit.applicable:
            self.applicable[claim] += 1
            self.in_domain[claim] += bool(audit.in_domain)


def audit_ops(rng: random.Random, frozen: dict, tally: AuditTally) -> list[Op]:
    ops = []
    for (n, edges), want in zip(audit_pool(), frozen["audit_stream"]):

        def fresh(n=n, edges=edges):
            return st.Graph(n, edges)

        def run_all(g):
            outcomes = []
            for name in AUDITS:
                try:
                    outcomes.append(getattr(st, name)(g))
                except Exception as exc:  # each audit's failure is counted alone
                    outcomes.append(exc)
            return outcomes

        def check(outcomes, want=want, n=n, edges=edges):
            worst = OK
            for name, out, expected in zip(AUDITS, outcomes, want):
                if isinstance(out, Exception):
                    status = KNOWN if expected == "!" + type(out).__name__ else WRONG
                else:
                    tally.add(name, out)
                    d = out.to_dict()
                    if expected.startswith("!"):
                        # A known defect that later gets fixed: no frozen
                        # digest exists yet, so check what can be checked.
                        status = OK if d["graph6"] == graph6(n, edges) else WRONG
                    else:
                        status = OK if digest(d) == expected else WRONG
                if status == WRONG or (status == KNOWN and worst == OK):
                    worst = status
            return worst

        ops.append(Op("audit", fresh, run_all, check, graphs=1))
    rng.shuffle(ops)
    return ops


def labeled_per_class(frozen: dict) -> float:
    """Labeled graphs the walk visits per isomorphism class, over n <= 7."""
    rows = frozen["exhaustive"].values()
    return sum(r["labeled"] for r in rows) / sum(r["classes"] for r in rows)

