"""Independent brute-force reference implementations for the test suite.

Everything here works from first principles on (n, edge list) pairs with no
imports from the package under test: Floyd-Warshall distances, definitional
partition counting, Fraction arithmetic, delete-and-retest bridge detection,
simple-cycle enumeration, min-over-all-relabelings isomorphism,
automorphisms by exhaustive extension, the unpruned degree-sorted canonical
search, and labeled copies by walking all n! relabelings.  Slow on purpose;
sized for the small universes the tests use.  ``cactus_with_bridges`` is a
sampler, not an oracle: it draws cut edges at any cycle count, which the
package's ``random_cactus`` almost never does once k is more than a few.

Three exceptions use the package.  ``tailed_quadrangle_bundle_by_peeling``,
the earlier recognizer of the tailed family, is kept as the oracle for the
structural one.  It peels the tail's leaf into a new ``Graph`` and asks the
package's ``as_bundle``, which the tests check against certificates on its
own.  ``block_profile`` builds a cactus profile from the package's
``block_decomposition``, which the tests check against networkx's
biconnected components; it is the reference for the one-DFS profile.
``cacti_by_growth`` dedups its unpruned leaf-block growth by the package's
certificate, which the tests check against the unpruned canonical search
and the powerset oracle; it is the reference for the pruned growth.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

INF = float("inf")


def floyd_warshall(n: int, edges) -> list[list[float]]:
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = 1
        dist[v][u] = 1
    for via in range(n):
        dvia = dist[via]
        for i in range(n):
            div = dist[i][via]
            if div is INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = div + dvia[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def is_connected(n: int, edges) -> bool:
    if n == 0:
        return False
    dist = floyd_warshall(n, edges)
    return all(dist[0][j] is not INF and dist[0][j] < INF for j in range(n))


def vertex_partition(n: int, edges, edge) -> tuple[int, int, int]:
    u, v = edge
    dist = floyd_warshall(n, edges)
    n_u = sum(1 for w in range(n) if dist[w][u] < dist[w][v])
    n_v = sum(1 for w in range(n) if dist[w][v] < dist[w][u])
    return n_u, n_v, n - n_u - n_v


def edge_partition(n: int, edges, edge) -> tuple[int, int, int]:
    """Definitional edge split: edge-to-vertex distance is the smaller
    endpoint distance; the focal edge itself is always equidistant."""
    u, v = edge
    dist = floyd_warshall(n, edges)
    m_u = m_v = 0
    for a, b in edges:
        da_u = min(dist[a][u], dist[b][u])
        da_v = min(dist[a][v], dist[b][v])
        if da_u < da_v:
            m_u += 1
        elif da_v < da_u:
            m_v += 1
    return m_u, m_v, len(edges) - m_u - m_v


def wiener(n: int, edges) -> int:
    dist = floyd_warshall(n, edges)
    return sum(int(dist[i][j]) for i in range(n) for j in range(i + 1, n))


def szeged(n: int, edges) -> int:
    total = 0
    for e in edges:
        n_u, n_v, _ = vertex_partition(n, edges, e)
        total += n_u * n_v
    return total


def edge_revised_szeged(n: int, edges) -> Fraction:
    total = Fraction(0)
    for e in edges:
        m_u, m_v, m_0 = edge_partition(n, edges, e)
        total += (Fraction(m_u) + Fraction(m_0, 2)) * (Fraction(m_v) + Fraction(m_0, 2))
    return total


def diff_square_sum(n: int, edges) -> int:
    total = 0
    for e in edges:
        m_u, m_v, _ = edge_partition(n, edges, e)
        total += (m_u - m_v) ** 2
    return total


def bridges(n: int, edges) -> set[tuple[int, int]]:
    """An edge is a bridge iff deleting it disconnects its endpoints."""
    out = set()
    edges = list(edges)
    for i, (u, v) in enumerate(edges):
        rest = edges[:i] + edges[i + 1 :]
        dist = floyd_warshall(n, rest)
        if dist[u][v] is INF or dist[u][v] == INF:
            out.add((min(u, v), max(u, v)))
    return out


def simple_cycles(n: int, edges) -> list[frozenset]:
    """All simple cycles, each as a frozenset of normalized edges."""
    adj = [[] for _ in range(n)]
    eset = set()
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
        eset.add((min(u, v), max(u, v)))
    found = set()

    def walk(start, current, visited, path_edges):
        for nxt in adj[current]:
            e = (min(current, nxt), max(current, nxt))
            if nxt == start and len(path_edges) >= 2:
                found.add(frozenset(path_edges | {e}))
            elif nxt not in visited and nxt > start:
                walk(start, nxt, visited | {nxt}, path_edges | {e})

    for s in range(n):
        walk(s, s, {s}, frozenset())
    return sorted(found, key=lambda c: sorted(c))


def is_cactus(n: int, edges) -> bool:
    """Connected, and no edge lies on two simple cycles."""
    if not is_connected(n, edges):
        return False
    cycles = simple_cycles(n, edges)
    seen = set()
    for cyc in cycles:
        if seen & cyc:
            return False
        seen |= cyc
    return len(cycles) == len(edges) - n + 1


def cycle_count(n: int, edges) -> int:
    return len(simple_cycles(n, edges))


def orbit(n: int, edges) -> set[tuple]:
    """Sorted edge tuples of every relabeling of the graph by all n! maps."""
    base = [(min(u, v), max(u, v)) for u, v in edges]
    return {
        tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in base))
        for p in permutations(range(n))
    }


def canonical_key(n: int, edges) -> tuple:
    """Min-over-all-relabelings edge set; a complete isomorphism invariant."""
    return (n, min(orbit(n, edges)))


def automorphisms(n: int, edges) -> list[tuple[int, ...]]:
    """Every automorphism as an image tuple, in lexicographic order.

    Images are chosen for 0, 1, .. in turn, each checked against the
    adjacency to every earlier vertex, so only partial maps that are still
    isomorphisms on their domain are extended.
    """
    adj = [[False] * n for _ in range(n)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = True
    found = []
    image = []

    def extend():
        x = len(image)
        if x == n:
            found.append(tuple(image))
            return
        for y in range(n):
            if y in image:
                continue
            if all(adj[x][z] == adj[y][image[z]] for z in range(x)):
                image.append(y)
                extend()
                image.pop()

    extend()
    return found


def automorphism_count(n: int, edges) -> int:
    return len(automorphisms(n, edges))


def stabilizer_orbits(n: int, edges) -> list[tuple[int, ...]]:
    """Orbit of each i under the automorphisms fixing 0..i-1 pointwise."""
    auts = automorphisms(n, edges)
    return [
        tuple(sorted({a[i] for a in auts if a[:i] == tuple(range(i))}))
        for i in range(n)
    ]


def labeled_by_permutations(n: int, edges) -> list[tuple]:
    """Sorted edge tuples of the distinct relabelings of one graph, each at
    the first permutation of ``0..n-1``, in lexicographic order, that gives
    it; duplicates are caught by the adjacency matrix as one integer."""
    bit = [[1 << a * n + b | 1 << b * n + a for b in range(n)] for a in range(n)]
    seen = set()
    out = []
    for p in permutations(range(n)):
        key = 0
        for u, v in edges:
            key |= bit[p[u]][p[v]]
        if key not in seen:
            seen.add(key)
            out.append(
                tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
            )
    return out


def degree_sorted_canonical(n: int, edges) -> tuple[tuple, int]:
    """Canonical edges and tie count by the unpruned degree-sorted search.

    Places vertices in nondecreasing degree order and minimizes the column
    bit string (position p's adjacency to positions 0..p-1, earlier bit more
    significant) by branch and bound, pruning only strictly larger prefixes.
    Every placement that ties the minimum is reached as its own leaf, so the
    tie count is the order of the automorphism group.  Returns the sorted
    edge tuple of the first minimal placement and the tie count.
    """
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    degs = [bin(mask).count("1") for mask in masks]
    target = sorted(degs)
    huge = 1 << (n + 1)
    best_cols = [huge] * n
    best = {"perm": None, "ties": 0}
    perm = [0] * n
    used = [False] * n

    def place(pos):
        if pos == n:
            if best["perm"] is None:
                best["perm"] = perm.copy()
                best["ties"] = 1
            else:
                best["ties"] += 1
            return
        for w in range(n):
            if used[w] or degs[w] != target[pos]:
                continue
            col = 0
            for i in range(pos):
                col = (col << 1) | ((masks[w] >> perm[i]) & 1)
            if col > best_cols[pos]:
                continue
            if col < best_cols[pos]:
                best_cols[pos] = col
                for j in range(pos + 1, n):
                    best_cols[j] = huge
                best["perm"] = None
            perm[pos] = w
            used[w] = True
            place(pos + 1)
            used[w] = False

    place(0)
    newlabel = [0] * n
    for pos, orig in enumerate(best["perm"]):
        newlabel[orig] = pos
    canon = sorted(
        (min(newlabel[u], newlabel[v]), max(newlabel[u], newlabel[v]))
        for u, v in edges
    )
    return tuple(canon), best["ties"]


def cacti_classes(n: int, k: int) -> set[tuple]:
    """All isomorphism classes at (n, k) by filtering every m-subset of K_n."""
    if n == 1:
        return {canonical_key(1, [])} if k == 0 else set()
    m = n + k - 1
    all_edges = list(combinations(range(n), 2))
    if m > len(all_edges) or m < 0:
        return set()
    classes = set()
    # Subsets isomorphic to a class already found are skipped; the first
    # subset of each class marks its whole orbit.  Subsets come out of
    # ``combinations`` as sorted edge tuples, the same form ``orbit`` uses.
    marked = set()
    for subset in combinations(all_edges, m):
        if subset in marked:
            continue
        if is_cactus(n, subset) and cycle_count(n, subset) == k:
            relabelings = orbit(n, subset)
            marked |= relabelings
            classes.add((n, min(relabelings)))
    return classes


def cacti_by_growth(n: int, k: int) -> dict[bytes, tuple]:
    """Certificate -> sorted edge tuple of one graph of each (n, k) class,
    grown by hanging every leaf block at every vertex of one graph of each
    smaller class: no rank rule and no orbit pruning.

    A block on ``size`` new vertices is a pendant edge when ``size`` is 1
    and a ``(size + 1)``-cycle otherwise, so every cactus with n >= 2 is
    reached from itself less any one of its leaf blocks.  Candidates are deduped
    by the package's certificate; each smaller pair is grown once per call.
    """
    from szegedtools import certificate, graph_from_edges

    grown: dict[tuple[int, int], dict[bytes, tuple]] = {}

    def classes(n, k):
        if (n, k) in grown:
            return grown[(n, k)]
        found: dict[bytes, tuple] = {}
        if n == 1 and k == 0:
            found[certificate(graph_from_edges(1, []))] = ()
        for size in range(1, n):
            first = n - size
            for edges in classes(first, k - (size > 1)).values():
                for v in range(first):
                    ring = [v, *range(first, n)]
                    if size > 1:
                        ring.append(v)
                    block = list(zip(ring, ring[1:]))
                    g = graph_from_edges(n, list(edges) + block)
                    found.setdefault(certificate(g), g.edges)
        grown[(n, k)] = found
        return found

    return classes(n, k)


def tailed_quadrangle_bundle_by_peeling(g, k: int | None = None) -> bool:
    """Does peeling some leaf of ``g`` leave a quadrangle bundle in which the
    leaf's neighbor, of degree 2 before, is a hub pendant?"""
    from szegedtools import Graph, as_bundle

    if g.n < 3:
        return False
    for leaf in range(g.n):
        if g.degree(leaf) != 1:
            continue
        inner = g.adj[leaf][0]
        if g.degree(inner) != 2:
            continue
        keep = [v for v in range(g.n) if v != leaf]
        relabel = {v: i for i, v in enumerate(keep)}
        peeled = Graph(
            g.n - 1,
            [(relabel[u], relabel[v]) for u, v in g.edges if leaf not in (u, v)],
        )
        spec = as_bundle(peeled)
        if spec is None or any(length != 4 for length in spec.cycle_lengths):
            continue
        if spec.pendants == 0:
            continue
        if k is not None and spec.k != k:
            continue
        if peeled.degree(relabel[inner]) == 1:
            return True
    return False


def block_profile(g):
    """The ``CactusProfile`` of ``g`` from ``block_decomposition``: cycles in
    the order the blocks pop, and a cycle an end block when at most one of
    its vertices, read off its edges, has degree other than 2."""
    from szegedtools import CactusProfile, block_decomposition

    dec = block_decomposition(g)
    cycles = tuple(b for b, kind in zip(dec.blocks, dec.kinds) if kind == "cycle")
    flags = tuple(
        sum(1 for v in {v for e in c for v in e} if g.degree(v) != 2) <= 1
        for c in cycles
    )
    ok = all(kind in ("edge", "cycle") for kind in dec.kinds)
    return CactusProfile(ok, cycles, flags, dec.bridges)


def random_graph_edges(rng, n: int, extra: float = 0.3):
    """Connected random graph: a random spanning tree plus some extra edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[rng.randrange(i)]
        b = order[i]
        edges.add((min(a, b), max(a, b)))
    possible = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    rng.shuffle(possible)
    for e in possible[: int(extra * n)]:
        edges.add(e)
    return sorted(edges)


def cactus_with_bridges(rng, n: int, k: int) -> list[tuple[int, int]]:
    """Edges of a random cactus with ``n`` vertices and ``k`` cycles.

    Each step hangs a leaf block at a uniformly chosen vertex: a pendant
    edge or a ring, by a fair coin while both still fit.  A ring takes two
    new vertices plus up to its fair share, ``spare // rings left``, of the
    vertices no ring needs.  So cut edges, pendant or between rings, keep
    coming at any k, where ``random_cactus`` hands the spare vertices to
    the rings first.
    """
    spare = n - 1 - 2 * k  # vertices no ring needs: n - verts - 2 * rings
    edges = []
    verts, rings = 1, k
    while verts < n:
        at = rng.randrange(verts)
        if rings and (not spare or rng.random() < 0.5):
            size = 2 + rng.randint(0, spare // rings)
            spare -= size - 2
            rings -= 1
        else:
            size = 1
            spare -= 1
        path = [at, *range(verts, verts + size)]
        edges += zip(path, path[1:])
        if size > 1:
            edges.append((at, path[-1]))
        verts += size
    return edges
