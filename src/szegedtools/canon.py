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

The orbits of the point stabilizers (the automorphisms fixing ``0..i-1``)
come from one search per candidate image, which the same twin classes
prune.  They describe the least member of each coset of the group, which is
how labeled graphs are enumerated, and their sizes multiply to the order of
the group, which is how automorphisms are counted.
"""

from __future__ import annotations

from math import factorial, prod

from .errors import CapError
from .formats import _graph6
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


def _canonical_search(g: Graph) -> tuple[list[int], tuple[int, ...]]:
    """Minimize the column bit string over degree-sorted placements.

    Column ``p`` packs position ``p``'s adjacency bits to positions
    ``0..p-1`` (earlier bit = more significant).  Returns a minimal
    placement (``placement[i]`` is the original vertex at position ``i``)
    and the least position of each automorphism orbit, in increasing order.

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
    ends as the partition into orbits.
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
    perm = [0] * n
    used = [False] * n

    def place(pos: int) -> None:
        nonlocal best_perm
        if pos == n:
            # best_perm is None exactly when this leaf beat the old minimum.
            # Otherwise the leaf ties it, and the two differ by an
            # automorphism; every minimal placement gives the same
            # canonical graph.
            if best_perm is None:
                best_perm = perm.copy()
            else:
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
            # Strictly better prefix: everything recorded deeper is stale.
            best_cols[pos] = least
            for j in range(pos + 1, n):
                best_cols[j] = _HUGE
            best_perm = None
        for w in branch:
            perm[pos] = w
            used[w] = True
            place(pos + 1)
            used[w] = False

    place(0)
    assert best_perm is not None
    first: dict[int, int] = {}
    for pos, v in enumerate(best_perm):
        first.setdefault(find(v), pos)
    return best_perm, tuple(first.values())


def _require_small(g: Graph, what: str) -> None:
    if g.n > CERT_CAP:
        raise CapError(f"{what} capped at n <= {CERT_CAP}, got n={g.n}")


def canonical_pair(g: Graph) -> tuple[Graph, bytes]:
    """Canonical labeling of ``g`` together with its certificate bytes.

    Canonicalizing is idempotent (the canonical graph's own identity placement
    already realizes the minimal bit string), so the certificate is cached on
    both graphs.  The canonical graph also keeps ``_reps``, the least vertex
    of each of its automorphism orbits in increasing order, which the search
    finds on the way.  Only ``g.n`` and ``g.edges`` are read, so ``g`` may be
    an image whose adjacency is not built.
    """
    _require_small(g, "canonical form")
    placement, reps = _canonical_search(g)
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
    """Order of the automorphism group: the product of the stabilizer orbit sizes."""
    _require_small(g, "automorphism count")
    return prod(len(orbit) for orbit in stabilizer_orbits(g))


def stabilizer_orbits(g: Graph) -> list[tuple[int, ...]]:
    """Orbits along the point-stabilizer chain of the automorphism group.

    ``orbits[i]`` is the orbit of ``i``, in increasing order, under the
    automorphisms of ``g`` that fix ``0..i-1`` pointwise.  It holds ``i``
    and larger vertices only, and the product of the orbit sizes is the
    order of the group.  A permutation ``p`` is the lexicographically least
    member of its coset ``{p∘a : a in Aut(g)}`` exactly when ``p[i] < p[j]``
    for every ``j != i`` in ``orbits[i]``.

    The orbits are found from ``i = n-1`` down.  An automorphism found for a
    later ``i`` also fixes ``0..i-1``, so the vertices it moves into each
    other are already known to share an orbit.  For each ``j > i`` not yet
    known to share ``i``'s orbit, one backtracking search looks for an
    automorphism fixing ``0..i-1`` and sending ``i`` to ``j``.  A hit joins
    the known orbits along its cycles; a miss rules out ``j``'s whole known
    orbit.  The search places the other vertices in breadth-first order
    from ``0..i``, so each image is a neighbour of an earlier image, and it
    skips an image that is a twin (see :func:`_twin_classes`) of one already
    tried at that step: the transposition of two unused twins fixes every
    placed image, so it turns any extension through the one into an
    extension through the other.
    """
    _require_small(g, "stabilizer orbits")
    n = g.n
    masks = _adjacency_masks(g)
    degs = [len(a) for a in g.adj]
    twin = _twin_classes(masks)
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    image = [0] * n
    orbits: list[tuple[int, ...]] = [()] * n
    for i in reversed(range(n)):
        # Breadth-first order of i+1..n-1 from the fixed vertices 0..i, then
        # of whatever they do not reach; back[x]: x's neighbours placed
        # before it.
        queue = list(range(i + 1))
        seen = (1 << (i + 1)) - 1
        head = 0
        for start in range(i, n):
            if not seen >> start & 1:
                seen |= 1 << start
                queue.append(start)
            while head < len(queue):
                for w in g.adj[queue[head]]:
                    if not seen >> w & 1:
                        seen |= 1 << w
                        queue.append(w)
                head += 1
        rank = [0] * n
        for r, v in enumerate(queue):
            rank[v] = r
        order = queue[i + 1 :]
        back = [[u for u in g.adj[x] if rank[u] < rank[x]] for x in range(n)]

        def extend(t: int, used: int) -> bool:
            if t == len(order):
                return True
            x = order[t]
            bx = back[x]
            want = degs[x]
            tried = 0
            for y in g.adj[image[bx[0]]] if bx else range(n):
                if used >> y & 1 or degs[y] != want:
                    continue
                c = twin[y]
                if tried >> c & 1:
                    continue
                tried |= 1 << c
                # Checking edges alone suffices: a bijection that maps every
                # edge onto an edge maps the edge set onto itself.
                my = masks[y]
                if any(not my >> image[z] & 1 for z in bx):
                    continue
                image[x] = y
                if extend(t + 1, used | 1 << y):
                    return True
            return False

        low = (1 << i) - 1
        for z in range(i):
            image[z] = z
        ruled_out = set()
        for j in range(i + 1, n):
            r = find(j)
            if r == find(i) or r in ruled_out:
                continue
            if degs[j] == degs[i] and masks[j] & low == masks[i] & low:
                image[i] = j
                if extend(0, low | 1 << j):
                    for x in range(n):
                        a, b = find(x), find(image[x])
                        if a != b:
                            root[a] = b
                    continue
            ruled_out.add(find(j))
        top = find(i)
        orbits[i] = tuple(v for v in range(i, n) if find(v) == top)
    return orbits


def labeled_copy_count(g: Graph) -> int:
    """Number of distinct labeled copies of ``g`` on its own vertex set."""
    return factorial(g.n) // automorphism_count(g)
