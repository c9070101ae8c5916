"""Exact canonical forms for small graphs.

The certificate of a graph is the graph6 encoding of its canonical labeling:
vertices are placed in nondecreasing degree order and, within that constraint,
the adjacency bit string (upper triangle, column major, the graph6 bit order)
is minimized over all placements by branch and bound. Restricting to
degree-sorted placements keeps the search small and still yields a complete
invariant: two graphs share a certificate exactly when they are isomorphic.

Everything here is exhaustive, so sizes are capped; over the cap you get a
clean error rather than an open-ended search.
"""

from __future__ import annotations

from math import factorial

from .errors import CapError
from .formats import emit_graph6
from .graphs import Graph

CERT_CAP = 12

# Sentinel larger than any p-bit column value for p <= CERT_CAP.
_HUGE = 1 << (CERT_CAP + 1)


def _adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _canonical_search(g: Graph) -> tuple[list[int], int]:
    """Minimize the column bit string over degree-sorted placements.

    Column ``p`` packs position ``p``'s adjacency bits to positions
    ``0..p-1`` (earlier bit = more significant).  Returns ``(placement,
    ties)``: ``placement[i]`` is the original vertex at position ``i`` of a
    minimal placement, and ``ties`` counts the placements reproducing the
    minimal bit string.  Only strictly larger prefixes are pruned, so every
    such placement is reached as a leaf.  Any two of them differ by an
    automorphism of the canonical graph, and composing with one gives
    another, so ``ties`` is the order of the automorphism group.
    """
    n = g.n
    masks = _adjacency_masks(g)
    degs = [len(g.adj[v]) for v in range(n)]
    target = sorted(degs)

    best_cols = [_HUGE] * n
    best_perm: list[int] | None = None
    ties = 0
    perm = [0] * n
    used = [False] * n

    def place(pos: int) -> None:
        nonlocal best_perm, ties
        if pos == n:
            # best_perm is None exactly when this leaf beat the old minimum.
            # Ties need no copy: every minimal placement gives the same
            # canonical graph.
            if best_perm is None:
                best_perm = perm.copy()
                ties = 1
            else:
                ties += 1
            return
        want = target[pos]
        for w in range(n):
            if used[w] or degs[w] != want:
                continue
            col = 0
            mw = masks[w]
            for i in range(pos):
                col = (col << 1) | ((mw >> perm[i]) & 1)
            if col > best_cols[pos]:
                continue
            if col < best_cols[pos]:
                # Strictly better prefix: everything recorded deeper is stale.
                best_cols[pos] = col
                for j in range(pos + 1, n):
                    best_cols[j] = _HUGE
                best_perm = None
            perm[pos] = w
            used[w] = True
            place(pos + 1)
            used[w] = False

    place(0)
    assert best_perm is not None
    return best_perm, ties


def _require_small(g: Graph, what: str) -> None:
    if g.n > CERT_CAP:
        raise CapError(f"{what} capped at n <= {CERT_CAP}, got n={g.n}")


def canonical_pair(g: Graph) -> tuple[Graph, bytes]:
    """Canonical labeling of ``g`` together with its certificate bytes.

    Canonicalizing is idempotent (the canonical graph's own identity placement
    already realizes the minimal bit string), so the certificate is cached on
    both graphs.
    """
    _require_small(g, "canonical form")
    placement, _ = _canonical_search(g)
    newlabel = [0] * g.n
    for pos, orig in enumerate(placement):
        newlabel[orig] = pos
    canon = Graph(g.n, [(newlabel[u], newlabel[v]) for u, v in g.edges])
    cert = emit_graph6(canon).encode("ascii")
    object.__setattr__(g, "_cert", cert)
    object.__setattr__(canon, "_cert", cert)
    return canon, cert


def canonical_form(g: Graph) -> Graph:
    """Relabel ``g`` into its canonical labeling."""
    return canonical_pair(g)[0]


def certificate(g: Graph) -> bytes:
    """Complete isomorphism invariant: graph6 bytes of the canonical labeling."""
    cached = g._cert
    if cached is not None:
        return cached
    return canonical_pair(g)[1]


def are_isomorphic(a: Graph, b: Graph) -> bool:
    return a.n == b.n and a.m == b.m and certificate(a) == certificate(b)


def automorphism_count(g: Graph) -> int:
    """Order of the automorphism group."""
    _require_small(g, "automorphism count")
    return _canonical_search(g)[1]


def labeled_copy_count(g: Graph) -> int:
    """Number of distinct labeled copies of ``g`` on its own vertex set."""
    return factorial(g.n) // automorphism_count(g)
