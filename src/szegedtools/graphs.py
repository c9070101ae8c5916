"""Small immutable undirected graphs and the structural passes used everywhere.

Vertices are ``0 .. n-1``. Edges are stored as sorted ``(u, v)`` tuples with
``u < v``; the edge list itself is sorted, so two Graph objects compare equal
exactly when they are the same labeled graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedError, InvalidGraphError


class Graph:
    """Immutable simple undirected graph.

    Being immutable, it keeps four derived facts once computed: the
    certificate, the graph6 string, the cactus profile and the distance
    analysis (per-edge gaps m_u - m_v and m_0, the Szeged and the Wiener
    index).

    ``Graph(n, edges)`` validates its input and builds the adjacency tuples
    ``adj`` and the frozenset ``edge_set`` at once.  An image made by
    :meth:`_relabeled` (the labeled stream, canonical forms) builds them on
    their first read instead, since most images are only counted or printed.
    """

    __slots__ = (
        "n", "edges", "adj", "edge_set", "_cert", "_g6", "_profile", "_dist"
    )

    def __init__(self, n: int, edges):
        if n < 1:
            raise InvalidGraphError(f"need at least one vertex, got n={n}")
        seen = set()
        norm = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InvalidGraphError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise InvalidGraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            norm.append((u, v))
        norm.sort()
        self._fill(n, norm)
        self._fill_adjacency(seen)

    def _fill(self, n: int, norm: list[tuple[int, int]]) -> None:
        """Set ``n``, ``edges`` and the empty caches from ``norm``: sorted,
        distinct ``(u, v)``, ``u < v``.  ``adj`` and ``edge_set`` stay unset."""
        put = object.__setattr__
        put(self, "n", n)
        put(self, "edges", tuple(norm))
        put(self, "_cert", None)
        put(self, "_g6", None)
        put(self, "_profile", None)
        put(self, "_dist", None)

    def _fill_adjacency(self, edge_set) -> None:
        """Set ``adj`` from ``edges``; ``edge_set`` freezes a collection of
        the same edges."""
        # Walking the sorted edges appends each vertex's smaller neighbours,
        # in increasing order, before its larger ones: every list is sorted.
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "adj", tuple(map(tuple, adj)))
        object.__setattr__(self, "edge_set", frozenset(edge_set))

    def _relabeled(self, perm) -> Graph:
        """The image of this graph under the bijection ``v -> perm[v]``.

        Skips validation: the image of a valid graph under a bijection of
        ``0..n-1`` is valid.  ``perm`` must be such a bijection.  The image's
        ``adj`` and ``edge_set`` are built on their first read.
        """
        norm = []
        for u, v in self.edges:
            a = perm[u]
            b = perm[v]
            norm.append((a, b) if a < b else (b, a))
        norm.sort()
        image = object.__new__(_Unfilled)
        image._fill(self.n, norm)
        return image

    def __reduce__(self):
        # The default reduce restores slots through the blocked __setattr__;
        # rebuilding from n and edges also works on an image not yet filled.
        return Graph, (self.n, self.edges)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_set

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class _Unfilled(Graph):
    """An image made by :meth:`Graph._relabeled` whose ``adj`` and
    ``edge_set`` are not built yet.

    The first read of either builds both and turns the object into a plain
    Graph.  A ``__getattr__`` on Graph itself would slow every attribute read
    of every graph (about twofold on CPython 3.11), not only these.
    """

    __slots__ = ()

    def __getattr__(self, name):
        # Runs only when normal lookup fails: here, on the first read of an
        # unset ``adj`` or ``edge_set``.
        if name == "adj" or name == "edge_set":
            self._fill_adjacency(self.edges)
            object.__setattr__(self, "__class__", Graph)
            return object.__getattribute__(self, name)
        raise AttributeError(
            f"'Graph' object has no attribute {name!r}", name=name, obj=self
        )


def graph_from_edges(n: int, edges) -> Graph:
    """Build a validated Graph from an iterable of vertex pairs."""
    return Graph(n, edges)


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Distances from ``source`` to every vertex; unreachable vertices get -1."""
    if not (0 <= source < g.n):
        raise InvalidGraphError(f"source {source} out of range")
    dist = [-1] * g.n
    dist[source] = 0
    queue = [source]
    for u in queue:
        du = dist[u] + 1
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
    return dist


def all_bfs_distances(g: Graph) -> list[list[int]]:
    return [bfs_distances(g, s) for s in range(g.n)]


def is_connected(g: Graph) -> bool:
    if g.n == 1:
        return True
    return all(d >= 0 for d in bfs_distances(g, 0))


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedError("graph is not connected")


@dataclass(frozen=True)
class BlockDecomposition:
    """Biconnected components of a connected graph.

    ``blocks`` holds one frozenset of edges per block; ``kinds`` labels each
    block ``"edge"``, ``"cycle"`` or ``"other"``; ``bridges`` repeats the
    single-edge blocks for convenience.
    """

    blocks: tuple[frozenset[tuple[int, int]], ...]
    kinds: tuple[str, ...]
    bridges: frozenset[tuple[int, int]]


def _block_kind(block: frozenset[tuple[int, int]]) -> str:
    if len(block) == 1:
        return "edge"
    verts = cycle_vertices(block)
    # A block is a cycle exactly when it has as many vertices as edges and
    # every vertex meets exactly two block edges.
    if len(verts) != len(block):
        return "other"
    deg = dict.fromkeys(verts, 0)
    for u, v in block:
        deg[u] += 1
        deg[v] += 1
    return "cycle" if all(d == 2 for d in deg.values()) else "other"


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Split ``g`` into biconnected components.

    Iterative low-point search with an explicit edge stack; blocks pop when a
    child's low point reaches back no further than its parent.
    """
    require_connected(g)
    disc = [-1] * g.n
    low = [0] * g.n
    counter = 0
    edge_stack: list[tuple[int, int]] = []
    blocks: list[frozenset[tuple[int, int]]] = []

    disc[0] = low[0] = counter
    counter += 1
    work = [(0, -1, iter(g.adj[0]))]
    while work:
        v, parent, it = work[-1]
        advanced = False
        for w in it:
            if disc[w] < 0:
                edge_stack.append((v, w) if v < w else (w, v))
                disc[w] = low[w] = counter
                counter += 1
                work.append((w, v, iter(g.adj[w])))
                advanced = True
                break
            if w == parent:
                continue
            if disc[w] < disc[v]:
                # Back edge; simple graphs see each one exactly once here.
                edge_stack.append((v, w) if v < w else (w, v))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        if not advanced:
            work.pop()
            if parent >= 0:
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= disc[parent]:
                    block = []
                    tree_edge = (parent, v) if parent < v else (v, parent)
                    while edge_stack:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == tree_edge:
                            break
                    blocks.append(frozenset(block))
    kinds = tuple(_block_kind(b) for b in blocks)
    bridges = frozenset(
        next(iter(b)) for b, kind in zip(blocks, kinds) if kind == "edge"
    )
    return BlockDecomposition(tuple(blocks), kinds, bridges)


def cut_edges(g: Graph) -> frozenset[tuple[int, int]]:
    """All bridges of ``g``."""
    return cactus_profile(g).bridges


@dataclass(frozen=True)
class CactusProfile:
    """Block structure summary produced by :func:`cactus_profile`."""

    is_cactus: bool
    cycle_edge_sets: tuple[frozenset[tuple[int, int]], ...]
    end_block_flags: tuple[bool, ...]
    bridges: frozenset[tuple[int, int]]

    @property
    def k(self) -> int:
        return len(self.cycle_edge_sets)

    @property
    def cycle_lengths(self) -> tuple[int, ...]:
        return tuple(sorted(len(c) for c in self.cycle_edge_sets))


def cycle_vertices(block: frozenset[tuple[int, int]]) -> frozenset[int]:
    verts = set()
    for u, v in block:
        verts.add(u)
        verts.add(v)
    return frozenset(verts)


def cactus_profile(g: Graph) -> CactusProfile:
    """Classify ``g``'s blocks and flag which cycles are end blocks.

    A graph is a cactus when every block is a single edge or a cycle. A cycle
    is an end block when all but at most one of its vertices have degree 2 in
    the whole graph. The bridges come from the same block decomposition.
    Computed once per graph and kept on it, which is safe because a Graph
    never changes.
    """
    if g._profile is not None:
        return g._profile
    dec = block_decomposition(g)
    ok = all(kind in ("edge", "cycle") for kind in dec.kinds)
    cycles = tuple(b for b, kind in zip(dec.blocks, dec.kinds) if kind == "cycle")
    flags = tuple(
        sum(1 for v in cycle_vertices(c) if g.degree(v) != 2) <= 1 for c in cycles
    )
    profile = CactusProfile(ok, cycles, flags, dec.bridges)
    object.__setattr__(g, "_profile", profile)
    return profile


def is_cactus(g: Graph) -> bool:
    return cactus_profile(g).is_cactus
