"""Exact canonical forms for small graphs.

The certificate of a graph is the graph6 encoding of its canonical labeling:
vertices are placed in nondecreasing degree order and, within that constraint,
the adjacency bit string (upper triangle, column major, the graph6 bit order)
is minimized over all placements by branch and bound. Restricting to
degree-sorted placements keeps the search small and still yields a complete
invariant: two graphs share a certificate exactly when they are isomorphic.

Twins (vertices whose neighbourhoods agree apart from each other) are
interchangeable, so the search tries only one vertex per twin class at each
position. That covers pendant vertices at a common vertex and the symmetric
vertices of triangles and quadrangles at a cut vertex. At each position it
also branches only into the candidates with the least column: any other
candidate starts a strictly larger string. Other symmetries are still
searched leaf by leaf, so sizes are capped; over the cap you get a clean
error rather than an open-ended search.

Those leaves are not wasted. Two placements with the same string differ by
an automorphism, so the search joins the vertices each tie leaf maps onto
each other, starting from the twin classes, and ends with the orbits of the
whole automorphism group. The canonical graph keeps the least vertex of
each orbit (``_reps``), where leaf-block growth in
:mod:`szegedtools.enumeration` attaches its blocks.

A tie leaf that first leaves the best placement at position ``i`` fixes
``0..i-1`` and moves ``i``, so the same leaves give the orbits of the point
stabilizers (``_orbits``, also kept). They describe the least member of each
coset of the group, which is how labeled graphs are enumerated, and their
sizes multiply to the order of the group, which is how automorphisms are
counted: one search per graph yields its certificate and its symmetries.
"""

from __future__ import annotations

from math import factorial, prod

from .errors import CapError
from .formats import _graph6
from .graphs import Graph

CERT_CAP = 12

# Sentinel larger than any p-bit column value for p <= CERT_CAP.
_HUGE = 1 << (CERT_CAP + 1)

# One shared tuple per stabilizer orbit, keyed by its positions as a
# bitmask, so cached class lists stay small.
_ORBITS = {1 << i: (i,) for i in range(CERT_CAP)}


def _adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _twin_classes(masks: list[int]) -> list[int]:
    """``twin[v]``: the lowest member of ``v``'s twin class.

    ``u`` and ``v`` are twins when their neighbourhoods agree apart from each
    other, so the transposition ``(u v)`` is an automorphism fixing every
    other vertex.  Twin transpositions compose, so comparing ``v`` with each
    earlier class representative is enough.
    """
    twin = list(range(len(masks)))
    for v in range(len(masks)):
        for u in range(v):
            if twin[u] == u and masks[u] & ~(1 << v) == masks[v] & ~(1 << u):
                twin[v] = u
                break
    return twin


def _canonical_search(
    g: Graph,
) -> tuple[list[int], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Minimize the column bit string over degree-sorted placements.

    Column ``p`` packs position ``p``'s adjacency bits to positions
    ``0..p-1`` (earlier bit = more significant).  Returns a minimal
    placement (``placement[i]`` is the original vertex at position ``i``),
    the least position of each automorphism orbit, in increasing order, and
    the orbits of the point stabilizers (see :func:`canonical_pair`), all in
    positions of that placement.

    Every eligible vertex can head a complete placement, so a candidate
    whose column exceeds the least one at its position leads only to
    strictly larger strings.  At each position the search computes every
    candidate's column first, returns when the least one exceeds the best
    string's, and branches only into the candidates that reach it.

    Twins (see :func:`_twin_classes`) are pruned too.  While two twins are
    unplaced, their transposition fixes every placed vertex, so their
    subtrees are mirror images with the same column strings.  At each
    position only the first unplaced vertex of each twin class is tried.

    The orbits come from the search itself.  Two leaves with the same column
    string differ by the automorphism ``best[i] -> perm[i]``, and every
    minimal leaf is reached up to twin transpositions, so those
    automorphisms and the twin transpositions generate the group.  A
    union-find seeded with the twin classes and joined at each tie leaf
    ends as the partition into orbits.  Each automorphism fixing
    ``0..d-1`` and moving ``d`` is a tie leaf first leaving ``best`` at
    ``d``, up to a swap of unplaced twins.  So the orbit of ``d`` under those
    automorphisms is the twin classes of ``best[d]`` and of the vertices
    such leaves put at ``d``, from position ``d`` on.
    """
    n = g.n
    masks = _adjacency_masks(g)
    degs = [mask.bit_count() for mask in masks]
    target = sorted(degs)
    twin = _twin_classes(masks)
    # Each twin class's lowest member is its own root: a valid forest.
    root = twin.copy()

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    best_cols = [_HUGE] * n
    best_perm: list[int] | None = None
    # moved[d]: twin classes (a bitmask) put at d by tie leaves first
    # leaving best_perm there.
    moved = [0] * n
    perm = [0] * n
    used = [False] * n

    def place(pos: int) -> None:
        nonlocal best_perm, moved
        if pos == n:
            # best_perm is None exactly when this leaf beat the old minimum.
            # Otherwise the leaf ties it, and the two differ by an
            # automorphism; every minimal placement gives the same
            # canonical graph.
            if best_perm is None:
                best_perm = perm.copy()
                return
            d = 0
            while perm[d] == best_perm[d]:
                d += 1
            moved[d] |= 1 << twin[perm[d]]
            for a, b in zip(best_perm, perm):
                a, b = find(a), find(b)
                if a != b:
                    root[a] = b
            return
        want = target[pos]
        tried = 0
        least = _HUGE
        branch: list[int] = []
        for w in range(n):
            if used[w] or degs[w] != want:
                continue
            c = twin[w]
            if tried >> c & 1:
                continue
            tried |= 1 << c
            col = 0
            mw = masks[w]
            for i in range(pos):
                col = (col << 1) | ((mw >> perm[i]) & 1)
            if col < least:
                least = col
                branch = [w]
            elif col == least:
                branch.append(w)
        if least > best_cols[pos]:
            return
        if least < best_cols[pos]:
            # Strictly better prefix: everything recorded deeper is stale,
            # and so is every tie noted against the old best placement.
            best_cols[pos] = least
            for j in range(pos + 1, n):
                best_cols[j] = _HUGE
            best_perm = None
            moved = [0] * n
        for w in branch:
            perm[pos] = w
            used[w] = True
            place(pos + 1)
            used[w] = False

    place(0)
    assert best_perm is not None
    first: dict[int, int] = {}
    # where[c]: the positions of twin class c as a bitmask; being disjoint,
    # distinct classes join by adding.
    where = [0] * n
    for pos, v in enumerate(best_perm):
        first.setdefault(find(v), pos)
        where[twin[v]] |= 1 << pos
    orbits = []
    for d, v in enumerate(best_perm):
        mask = where[twin[v]]
        if moved[d]:
            mask |= sum(where[c] for c in range(n) if moved[d] >> c & 1)
        # Only positions from d on are unplaced there.
        mask = mask >> d << d
        orbit = _ORBITS.get(mask)
        if orbit is None:
            orbit = tuple(i for i in range(d, mask.bit_length()) if mask >> i & 1)
            _ORBITS[mask] = orbit
        orbits.append(orbit)
    return best_perm, tuple(first.values()), tuple(orbits)


def _require_small(g: Graph, what: str) -> None:
    if g.n > CERT_CAP:
        raise CapError(f"{what} capped at n <= {CERT_CAP}, got n={g.n}")


def canonical_pair(g: Graph) -> tuple[Graph, bytes]:
    """Canonical labeling of ``g`` together with its certificate bytes.

    Canonicalizing is idempotent (the canonical graph's own identity placement
    already realizes the minimal bit string), so the certificate is cached on
    both graphs.  The canonical graph also keeps what the search finds of
    its symmetries: ``_reps``, the least vertex of each automorphism orbit,
    and ``_orbits[i]``, the orbit of ``i`` under the automorphisms fixing
    ``0..i-1`` (``i`` and larger vertices), both in increasing order.  A
    permutation ``p`` is the least member of its coset ``p∘Aut`` exactly
    when ``p[i] < p[j]`` for every ``j != i`` in ``_orbits[i]``.  Only
    ``g.n`` and ``g.edges`` are read, so ``g`` may be an unfilled image.
    """
    _require_small(g, "canonical form")
    placement, reps, orbits = _canonical_search(g)
    newlabel = [0] * g.n
    for pos, orig in enumerate(placement):
        newlabel[orig] = pos
    canon = g._relabeled(newlabel)
    # Encoded here rather than through emit_graph6, whose read of the new
    # image's empty cache would fall through to ``_Unfilled.__getattr__``.
    text = _graph6(canon.n, canon.edges)
    object.__setattr__(canon, "_g6", text)
    cert = text.encode("ascii")
    object.__setattr__(g, "_cert", cert)
    object.__setattr__(canon, "_cert", cert)
    object.__setattr__(canon, "_reps", reps)
    object.__setattr__(canon, "_orbits", orbits)
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
    """Order of the automorphism group: the product of the stabilizer orbit
    sizes kept on the canonical form, which costs one canonical search when
    ``g`` is not one."""
    _require_small(g, "automorphism count")
    orbits = g._orbits or canonical_pair(g)[0]._orbits
    return prod(map(len, orbits))


def labeled_copy_count(g: Graph) -> int:
    """Number of distinct labeled copies of ``g`` on its own vertex set."""
    return factorial(g.n) // automorphism_count(g)
