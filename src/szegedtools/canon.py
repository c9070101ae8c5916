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
vertices of triangles and quadrangles at a cut vertex. The classes take one
pass: twins share their open neighbourhood or their closed one, and no
vertex has twins of both kinds. At each position the search also branches
only into the candidates with the least column: any other candidate starts
a strictly larger string. Each vertex's column against the placed vertices
is kept as it goes, so a position costs one comparison per candidate, not a
rebuilt column.

Pendant vertices are not branched on at all. They come first in degree
order and their columns are 0, so their places show only in their hubs'
columns, and an exchange argument fixes them: in every minimal placement
each hub's pendants take the highest pendant positions still free when the
hub is placed. The search places the other vertices only, and writes each
hub's pendants as it places the hub. That holds whenever no vertex is
isolated and no pendant hangs at another pendant, so for every connected
graph on three or more vertices. Other symmetries are still searched leaf
by leaf, so sizes are capped; over the cap you get a clean error rather
than an open-ended search.

Those leaves are not wasted. Two placements with the same string differ by
an automorphism, and a tie leaf that first leaves the best placement at
position ``i`` fixes ``0..i-1`` and moves ``i``. So the tie leaves give the
orbits of the point stabilizers (``_orbits``, kept on the canonical graph).
They describe the least member of each coset of the group, which is how
labeled graphs are enumerated, and their sizes multiply to the order of the
group, which is how automorphisms are counted. The positions in no earlier
stabilizer orbit include the least vertex of every orbit of the whole
group, and leaf-block growth in :mod:`szegedtools.enumeration` tries only
those. One search per graph yields its certificate and its symmetries.
"""

from __future__ import annotations

from math import factorial, prod

from .errors import CapError
from .formats import emit_graph6
from .graphs import Graph

CERT_CAP = 12

# Sentinel larger than any n-bit column value for n <= CERT_CAP.
_HUGE = 1 << (CERT_CAP + 1)

# One shared tuple per stabilizer orbit, keyed by its positions as a
# bitmask, so cached class lists stay small.
_ORBITS = {1 << i: (i,) for i in range(CERT_CAP)}


def _twin_classes(masks: list[int]) -> list[int]:
    """``twin[v]``: the lowest member of ``v``'s twin class.

    ``u`` and ``v`` are twins when their neighbourhoods agree apart from each
    other, so the transposition ``(u v)`` is an automorphism fixing every
    other vertex.  Non-adjacent twins share their open neighbourhood and
    adjacent ones their closed neighbourhood, so one dict keyed by each finds
    the classes in O(n).  No vertex has both kinds: if ``N(u) = N(v)`` and
    ``N[u] = N[w]``, then ``w`` lies in ``N(u) = N(v)``, so ``v`` lies in
    ``N[w] = N[u]`` and is adjacent to ``u`` after all.  So the two
    relations never chain, and each class is found whole by one of them.
    """
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    twin = []
    for v, mask in enumerate(masks):
        t = by_open.setdefault(mask, v)
        if t == v:
            t = by_closed.setdefault(mask | 1 << v, v)
        twin.append(t)
    return twin


def _canonical_search(g: Graph) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Minimize the column bit string over degree-sorted placements.

    Column ``p`` packs position ``p``'s adjacency bits to positions
    ``0..p-1`` (earlier bit = more significant).  Returns a minimal
    placement (``placement[i]`` is the original vertex at position ``i``)
    and the orbits of the point stabilizers (see :func:`canonical_pair`), in
    positions of that placement.

    Columns are kept, not rebuilt: ``acc[w]`` holds ``w``'s adjacency to
    the placed positions, position ``i`` as bit ``n - 1 - i``.  Placing a
    vertex at ``p`` adds ``1 << (n - 1 - p)`` to each neighbour's ``acc``
    and backtracking subtracts it again.  At position ``p`` only positions
    below ``p`` are placed, so ``acc[w]`` is ``w``'s column shifted left by
    ``n - p``, and candidates compare by it directly: a node costs
    O(candidates + degree), not O(n * p).

    Every eligible vertex can head a complete placement, so a candidate
    whose column exceeds the least one at its position leads only to
    strictly larger strings.  At each position the search computes every
    candidate's column first, returns when the least one exceeds the best
    string's, and branches only into the candidates that reach it.

    Twins (see :func:`_twin_classes`, found in O(n) through two dicts) are
    pruned too.  While two twins are unplaced, their transposition fixes
    every placed vertex, so their subtrees are mirror images with the same
    column strings.  At each position only the first unplaced vertex of
    each twin class is tried.

    Pendant vertices are not branched on at all.  Call a degree-1 vertex a
    pendant and its neighbour its hub.  When no vertex is isolated and no
    hub is itself a pendant (so for every connected graph with ``n >= 3``),
    the ``L`` pendants fill positions ``0..L-1`` and all their columns are
    0, since a pendant's one neighbour comes later.  Where they go shows
    only in the hubs' columns, whose pendant bits are their most
    significant ones.  Take a placement, and let ``h`` be the first hub
    placed whose pendants do not fill the highest pendant positions left
    free by the hubs placed before it.  One of those positions then holds
    a pendant of a later hub, and one of ``h``'s pendants lies below it.
    Swapping the two moves a 1 in ``h``'s column to a less significant
    bit, and leaves every earlier column as it was: the vertices placed
    before ``h`` are pendants, with column 0, or hubs and other vertices
    whose pendant bits did not move.  So the string falls.
    In every minimal placement, then, each hub's ``j`` pendants take the
    ``j`` highest pendant positions still free when it is placed, and
    their order among themselves is a swap of twins.  The search places
    only the other vertices, at positions ``L..n-1``.  A hub's candidate
    column includes its pendant bits, ``((1 << j) - 1) << (n - 1 - top)``
    with ``top`` the highest free pendant position, and placing the hub
    writes its pendants, in increasing order, at ``top - j + 1..top``.
    Otherwise ``L`` is 0 and every vertex is branched on.

    The orbits come from the search itself.  Two leaves with the same column
    string differ by the automorphism ``best[i] -> perm[i]``.  Each
    automorphism fixing ``0..d-1`` and moving ``d`` is a tie leaf first
    leaving ``best`` at ``d``, up to a swap of unplaced twins: the leaf
    that places the automorphism's hubs in its order writes the same
    pendants at ``0..d-1`` as ``best``.  So the orbit of ``d`` under those
    automorphisms is the twin classes of ``best[d]`` and of the vertices
    such leaves put at ``d``, from position ``d`` on.
    """
    n = g.n
    masks = [0] * n
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        nbrs[u].append(v)
        nbrs[v].append(u)
    degs = list(map(len, nbrs))
    target = sorted(degs)
    twin = _twin_classes(masks)
    by_degree: dict[int, list[int]] = {}
    for v, deg in enumerate(degs):
        by_degree.setdefault(deg, []).append(v)
    # The pendants, placed with their hubs; none where the rule does not
    # apply (a vertex of degree 0, or a K2 component).
    leaves = by_degree[1] if target[0] == 1 else []
    for v in leaves:
        if degs[nbrs[v][0]] == 1:
            # A K2's second end has a column of 1.
            leaves = []
            break
    # hang[h]: h's pendants, in increasing order; fill[h]: as many 1 bits.
    hang: list[tuple[int, ...]] = [()] * n
    fill = [0] * n
    for v in leaves:
        h = nbrs[v][0]
        hang[h] += (v,)
        fill[h] = fill[h] << 1 | 1
    acc = [0] * n
    best_cols = [_HUGE] * n
    best_perm: list[int] | None = None
    # moved[d]: twin classes (a bitmask) put at d by tie leaves first
    # leaving best_perm there.
    moved = [0] * n
    perm = [0] * n
    used = [False] * n

    def place(pos: int, top: int) -> None:
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
            return
        shift = n - 1 - top
        tried = 0
        least = _HUGE
        branch: list[int] = []
        for w in by_degree[target[pos]]:
            if used[w]:
                continue
            c = twin[w]
            if tried >> c & 1:
                continue
            tried |= 1 << c
            col = acc[w] + (fill[w] << shift)
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
        bit = 1 << (n - 1 - pos)
        for w in branch:
            perm[pos] = w
            used[w] = True
            for x in nbrs[w]:
                acc[x] += bit
            j = len(hang[w])
            if j:
                perm[top - j + 1 : top + 1] = hang[w]
            place(pos + 1, top - j)
            for x in nbrs[w]:
                acc[x] -= bit
            used[w] = False

    place(len(leaves), len(leaves) - 1)
    # place refers to itself; dropping it here frees the closure at once
    # rather than leaving a cycle to the garbage collector.
    del place
    assert best_perm is not None
    # where[c]: the positions of twin class c as a bitmask; being disjoint,
    # distinct classes join by adding.
    where = [0] * n
    for pos, v in enumerate(best_perm):
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
    return best_perm, tuple(orbits)


def _require_small(g: Graph, what: str) -> None:
    if g.n > CERT_CAP:
        raise CapError(f"{what} capped at n <= {CERT_CAP}, got n={g.n}")


def canonical_pair(g: Graph) -> tuple[Graph, bytes]:
    """Canonical labeling of ``g`` together with its certificate bytes.

    Canonicalizing is idempotent (the canonical graph's own identity placement
    already realizes the minimal bit string), so the certificate is cached on
    both graphs, and the canonical graph, an image, keeps it as its graph6
    string too.  It also keeps what the search finds of its symmetries:
    ``_orbits[i]``, the orbit of ``i`` under the automorphisms fixing
    ``0..i-1`` (``i`` and larger vertices), in increasing order.  A
    permutation ``p`` is the least member of its coset ``p∘Aut`` exactly
    when ``p[i] < p[j]`` for every ``j != i`` in ``_orbits[i]``.  Only
    ``g.n`` and ``g.edges`` are read, so an image's adjacency stays unbuilt.
    """
    _require_small(g, "canonical form")
    placement, orbits = _canonical_search(g)
    newlabel = [0] * g.n
    for pos, orig in enumerate(placement):
        newlabel[orig] = pos
    canon = g._relabeled(newlabel)
    cert = emit_graph6(canon).encode("ascii")
    object.__setattr__(g, "_cert", cert)
    object.__setattr__(canon, "_cert", cert)
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
