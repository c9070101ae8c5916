#!/usr/bin/env python3
"""Regenerate ``bench/frozen.json``, the expected outputs the benchmark checks.

Run from the repository root:

    python3 bench/freeze.py

Nothing is frozen until the generator and the checks agree with the
independent brute-force oracles in ``tests/oracles.py`` at small n:

* every generated graph is a cactus with the requested cycle count, and the
  generator reaches every isomorphism class at each (n, k) with n <= 6;
* class counts match the oracle for n <= 6 and OEIS A000083 for n <= 7;
* each labeled count is the sum of n!/|Aut| over classes, with |Aut| from
  the oracle, and equals the length of the library's labeled walk;
* index values, edge partitions and the audits' values match the oracle on
  small generated cacti, and the graph6 encoder matches networkx.

Exceptions raised today by a known defect are frozen as ``"!<ExceptionName>"``
so the benchmark counts them as failures; any other exception stops the
freeze.  Takes about a minute.
"""

from __future__ import annotations

import functools
import json
import random
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import networkx  # noqa: E402
import oracles  # noqa: E402
import szegedtools as st  # noqa: E402
import workloads as wl  # noqa: E402

# (function, exception, message fragment) raised by defects known today.
KNOWN_DEFECTS = (
    ("search_extremal", AttributeError, "decode"),
    ("audit_off_quadrangle_floor", st.InfeasibleError, "negative pendant count"),
)
oracle_classes = functools.cache(oracles.cacti_classes)


def _known(fn: str, exc: Exception) -> str:
    for name, kind, fragment in KNOWN_DEFECTS:
        if fn == name and isinstance(exc, kind) and fragment in str(exc):
            return "!" + type(exc).__name__
    raise exc


def check_generator() -> None:
    rng = random.Random(1)
    for n in range(1, 7):
        for k in range((n - 1) // 2 + 1):
            want = oracle_classes(n, k)
            seen = set()
            for _ in range(60 * len(want)):
                edges = wl.grow_cactus(rng, n, k)
                assert oracles.is_cactus(n, edges), (n, k, edges)
                assert oracles.cycle_count(n, edges) == k, (n, k, edges)
                seen.add(oracles.canonical_key(n, edges))
            assert seen == want, f"generator misses classes at ({n}, {k})"
    for k in range(4):
        want = {g._cert for g in st.cactus_classes(7, k)}
        seen = {st.certificate(st.Graph(7, wl.grow_cactus(rng, 7, k))) for _ in range(3000)}
        assert seen == want, f"generator misses classes at (7, {k})"


def check_values_small() -> None:
    rng = random.Random(2)
    for n, k in wl.stream_pairs(rng, 40, 12):
        edges = wl.grow_cactus(rng, n, k)
        g = st.Graph(n, edges)
        ers = oracles.edge_revised_szeged(n, edges)
        assert Fraction(st.edge_revised_szeged(g).num, 4) == ers
        assert st.wiener(g) == oracles.wiener(n, edges)
        assert st.szeged(g) == oracles.szeged(n, edges)
        parts = st.edge_partitions(g)
        assert [(p.m_u, p.m_v, p.m_0) for p in parts] == [
            oracles.edge_partition(n, g.edges, e) for e in g.edges
        ]
        m = len(edges)
        assert 4 * ers == m**3 - sum((p.m_u - p.m_v) ** 2 for p in parts)
        assert st.audit_bundle_floor(g).value.as_fraction() == ers
        assert wl.graph6(n, edges) == st.emit_graph6(g)
    for n in (5, 63, 100, 300):
        edges = wl.grow_cactus(rng, n, n // 5)
        nx_g = networkx.Graph()
        nx_g.add_nodes_from(range(n))
        nx_g.add_edges_from(edges)
        want = networkx.to_graph6_bytes(nx_g, header=False)
        assert wl.graph6(n, edges).encode() + b"\n" == want, n


def freeze_exhaustive() -> dict:
    rows = {}
    for n in range(1, wl.EXHAUSTIVE_MAX_N + 1):
        for k in range((n - 1) // 2 + 1):
            classes = st.cactus_classes(n, k)
            if n <= 6:
                assert len(classes) == len(oracle_classes(n, k)), (n, k)
            labeled = sum(
                factorial(n) // oracles.automorphism_count(n, g.edges) for g in classes
            )
            walked = sum(1 for _ in st.enumerate_cacti(n, k, dedup=False))
            assert walked == labeled, (n, k, walked, labeled)
            row = {"classes": len(classes), "labeled": labeled,
                   "search": None, "search_raises": None}
            try:
                report = st.search_extremal(n, k).to_dict()
            except Exception as exc:
                row["search_raises"] = _known("search_extremal", exc)[1:]
            else:
                assert report["minimum_agrees"] is not False, (n, k)
                row["search"] = wl.digest(report)
            rows[f"{n},{k}"] = row
    assert wl.class_totals(rows) == wl.A000083[1:], wl.class_totals(rows)
    return rows


def freeze_index() -> dict:
    out = {}
    for n in wl.INDEX_SIZES:
        edges = wl.index_structure(n)
        g = st.Graph(n, edges)
        parts = st.edge_partitions(g)
        ers = st.edge_revised_szeged(g).num
        m = len(edges)
        assert m == n + n // 5 - 1
        assert ers == m**3 - sum((p.m_u - p.m_v) ** 2 for p in parts)
        out[str(n)] = {
            "wiener": st.wiener(g),
            "szeged": st.szeged(g),
            "ers_num": ers,
            "partitions": wl.partition_digest(parts),
        }
    return out


def freeze_audits() -> list[list[str]]:
    rows = []
    for n, edges in wl.audit_pool():
        g = st.Graph(n, edges)
        if n <= 10:
            assert oracles.is_cactus(n, edges)
            parts = [oracles.edge_partition(n, g.edges, e) for e in g.edges]
            records = st.audit_pendant_edges(g).records
            assert [r.gap_sq for r in records] == [(a - b) ** 2 for a, b, _ in parts]
        row = []
        for name in wl.AUDITS:
            try:
                row.append(wl.digest(getattr(st, name)(g).to_dict()))
            except Exception as exc:
                row.append(_known(name, exc))
        rows.append(row)
    return rows


def main() -> int:
    check_generator()
    check_values_small()
    frozen = {
        "pool": {"seed": wl.POOL_SEED, "size": wl.POOL_SIZE, "max_n": wl.POOL_MAX_N},
        "exhaustive": freeze_exhaustive(),
        "index_large": freeze_index(),
        "audit_stream": freeze_audits(),
    }
    text = json.dumps(frozen, sort_keys=True, separators=(",", ":"))
    wl.FROZEN_PATH.write_text(text + "\n")
    known = sum(d.startswith("!") for row in frozen["audit_stream"] for d in row)
    print(f"wrote {wl.FROZEN_PATH} ({len(text)} bytes, {known} known-defect audits)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
