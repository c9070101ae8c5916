"""Independent brute-force reference implementations for the test suite.

Everything here works from first principles on (n, edge list) pairs with no
imports from the package under test: Floyd-Warshall distances, definitional
partition counting, Fraction arithmetic, delete-and-retest bridge detection,
simple-cycle enumeration, and min-over-all-relabelings isomorphism.  Slow on
purpose; sized for the small universes the tests use.
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


def automorphism_count(n: int, edges) -> int:
    eset = {(min(u, v), max(u, v)) for u, v in edges}
    count = 0
    for perm in permutations(range(n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in eset for u, v in eset):
            count += 1
    return count


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
