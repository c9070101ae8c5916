"""Small immutable undirected graphs and the structural passes used everywhere.

Vertices are ``0 .. n-1``. Edges are stored as sorted ``(u, v)`` tuples with
``u < v``; the edge list itself is sorted, so two Graph objects compare equal
exactly when they are the same labeled graph.

On a cactus one iterative DFS, :func:`_cactus_distances`, finds every cycle
and every cut edge, and from the same walk every edge's distance partition,
in O(n + m) time and memory:

- Each back edge closes exactly one cycle: the tree path from its upper end
  down to its lower end, plus the back edge itself, in ring order. The walk
  records the ring when it leaves the ring's second vertex, which is when
  :func:`block_decomposition` pops the same block, so both list the cycles
  in the same order. The tree edges on no ring are the cut edges.
- Subtree vertex and edge counts, summed in post-order as the DFS pops each
  vertex, give each ring vertex its branch: the V_i vertices and E_i edges
  that hang off the ring there. The ring's top vertex takes the complement.
- A cut edge splits the graph into the two sides of the tree edge, so its
  counts are the subtree counts and m_0 = 1. They are final when the DFS
  pops the edge's lower end, so the pop splits it.
- Each edge's gap and m_0 go to a flat per-vertex slot: the tree edge from
  x up to its parent at slot x, a ring's back edge at slot n + its bottom
  vertex. That slot is unique: a second back edge from the same bottom
  would put the bottom's parent edge on a second ring. One ``itemgetter``
  over the slots of ``g.edges`` then gathers both rows in edge order, and
  the sum of the squared gaps is kept as the walk goes.
- On an edge of an L-cycle, a branch sides with the nearer endpoint. For
  even L the antipodal edge is the only other equidistant edge; for odd L
  the whole branch at the opposite vertex is equidistant, and no ring edge
  but the edge itself.
- So the u side of ring edge i is the window of half branches ending at
  ring[i], and one window sliding around the ring gives every edge's sides
  in O(L): the next edge's window gains ring[i + 1] and loses
  ring[i + 1 - half]. The v side is the rest of the graph, less the opposite
  branch for odd L.
- The Wiener index adds V * V' over cut edges and, per cycle, half the sum
  of V_i S(i), where S(i) sums V_j d(i, j) over the ring. S(0) is summed
  once; then S(i + 1) = S(i) + n_u - n_v for the edge from i to i + 1,
  since its step takes every vertex on the u side one farther and every
  vertex on the v side one nearer.
- A triangle (top, mid, bot), most rings of the paper's minimizers, skips
  the window: half = 1, so each edge's u side is its own end's branch, its
  v side the next end's, and the third branch is equidistant. With the
  branches V_0, V_1, V_2 and E_0, E_1, E_2 at top, mid and bot, the edges
  top-mid, mid-bot and bot-top have the gaps E_0 - E_1, E_1 - E_2 and
  E_2 - E_0 and the m_0 1 + E_2, 1 + E_0 and 1 + E_1. Every two branches
  are one step apart, so the ring's Wiener term equals its Szeged term,
  V_0 V_1 + V_1 V_2 + V_2 V_0.

The walk detects a disconnected graph. It gives up at the first tree edge
covered by two back edges, which happens exactly when the graph is no
cactus; such graphs take :func:`block_decomposition` for their profile and
the all-pairs BFS in :mod:`szegedtools.indices` for their distances.

A cactus runs the walk once, whichever of :func:`cactus_profile` or an index
function asks first, and keeps its result on the Graph: the rings, the gap
m_u - m_v and m_0 of every edge, the sum of the squared gaps, the Szeged and
the Wiener index. The profile's edge and vertex sets are built from the
rings on the first read of :func:`cactus_profile`, so a caller that only
wants indices never pays for them.

Each fact a Graph keeps is a class attribute that reads ``None`` until a
value is kept in the instance dict. A validated Graph builds its adjacency
at once, an image made without validation on first read.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .errors import DisconnectedError, InvalidGraphError


class _kept_on_read:
    """A non-data descriptor that builds a fact on its first read and keeps
    it with ``object.__setattr__``, which shadows the descriptor from then
    on.  ``functools.cached_property`` would keep it through
    ``instance.__dict__``, which turns CPython's inline attribute values
    into a dict that takes more memory and reads slower."""

    __slots__ = ("build", "name")

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.build(instance)
        object.__setattr__(instance, self.name, value)
        return value


class Graph:
    """Immutable simple undirected graph.

    Being immutable, it keeps five derived facts once computed: the
    certificate, the graph6 string, the cactus profile, the distance
    analysis (per-edge gaps m_u - m_v and m_0, the Szeged and the Wiener
    index) and, on a canonical form, the orbits of the point stabilizers.
    Each reads ``None`` until ``object.__setattr__`` keeps it in the
    instance dict.  A copy or a pickle keeps the certificate, the graph6
    string and those orbits, and rebuilds the rest when read.

    ``Graph(n, edges)`` validates its input and builds the adjacency tuples
    ``adj`` and the frozenset ``edge_set`` at once.  An image made by
    :meth:`_relabeled` or by the labeled stream sets only ``n`` and
    ``edges`` and builds each of the two on its first read, since most
    images are only counted or printed.
    """

    __slots__ = ("n", "edges", "__dict__")

    _cert = _g6 = _profile = _dist = _orbits = None

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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))
        # Through the setter rather than self.__dict__, which would turn
        # CPython's inline attribute values into a dict that reads slower.
        object.__setattr__(self, "adj", _adjacency(n, self.edges))
        object.__setattr__(self, "edge_set", frozenset(seen))

    @_kept_on_read
    def adj(self) -> tuple[tuple[int, ...], ...]:
        return _adjacency(self.n, self.edges)

    @_kept_on_read
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def _relabeled(self, perm) -> Graph:
        """The image of this graph under the bijection ``v -> perm[v]``.

        Skips validation: the image of a valid graph under a bijection of
        ``0..n-1`` is valid.  ``perm`` must be such a bijection.
        """
        norm = []
        for u, v in self.edges:
            a = perm[u]
            b = perm[v]
            norm.append((a, b) if a < b else (b, a))
        norm.sort()
        return _image(self.n, tuple(norm))

    def __reduce__(self):
        # The default reduce would set slots through the blocked __setattr__;
        # the state carries the facts named in _KEPT into the copy's dict.
        facts = vars(self)
        kept = {name: facts[name] for name in _KEPT if name in facts}
        return Graph, (self.n, self.edges), kept

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


# The kept facts a copy or a pickle keeps: the certificate, the graph6
# string and the stabilizer orbits a canonical form keeps from its search.
_KEPT = ("_cert", "_g6", "_orbits")


def _adjacency(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Neighbour tuples of the graph on ``0..n-1`` with the sorted ``edges``:
    each vertex meets its smaller neighbours, in order, before its larger."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(map(tuple, adj))


# The slot descriptors' own setters: about 0.2 us per image less than
# object.__setattr__, which the labeled stream pays once per image.
_new_image = object.__new__
_set_n = Graph.n.__set__
_set_edges = Graph.edges.__set__


def _image(n: int, edges: tuple[tuple[int, int], ...]) -> Graph:
    """A Graph on ``0..n-1`` with ``edges``: sorted, distinct ``(u, v)``
    with ``u < v``, not checked again.  Its ``adj`` and ``edge_set`` are
    built on first read."""
    image = _new_image(Graph)
    _set_n(image, n)
    _set_edges(image, edges)
    return image


def _leaf_block(at: int, first: int, size: int) -> tuple[tuple[int, int], ...]:
    """The edges of a leaf block hung at vertex ``at`` on the new vertices
    ``first..first + size - 1``: the pendant edge ``(at, first)`` when
    ``size`` is 1, else the cycle of length ``size + 1`` through ``at``.
    Every pair ``(u, v)`` has ``u < v`` when ``at < first``."""
    if size == 1:
        return ((at, first),)
    last = first + size - 1
    path = zip(range(first, last), range(first + 1, last + 1))
    return ((at, first), *path, (at, last))


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
    return all(d >= 0 for d in bfs_distances(g, 0))


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedError("graph is not connected")


class BlockDecomposition(NamedTuple):
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
    # A block of two or more edges is 2-connected, so each of its vertices
    # meets at least two block edges: it is a cycle exactly when it has as
    # many vertices as edges.
    return "cycle" if len(cycle_vertices(block)) == len(block) else "other"


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Split ``g`` into biconnected components.

    Iterative low-point search with an explicit edge stack; blocks pop when a
    child's low point reaches back no further than its parent.  A vertex the
    search from vertex 0 never reaches raises :class:`DisconnectedError`.
    """
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
    if counter < g.n:
        raise DisconnectedError("graph is not connected")
    kinds = tuple(_block_kind(b) for b in blocks)
    bridges = frozenset(
        next(iter(b)) for b, kind in zip(blocks, kinds) if kind == "edge"
    )
    return BlockDecomposition(tuple(blocks), kinds, bridges)


def cut_edges(g: Graph) -> frozenset[tuple[int, int]]:
    """All bridges of ``g``."""
    return cactus_profile(g).bridges


class _Distances(NamedTuple):
    """What one distance pass knows about a graph: the gap m_u - m_v and the
    m_0 of every edge in ``g.edges`` order, the sum of the squared gaps, the
    Szeged and Wiener index, and the rings in block order (each top vertex
    first, then ring order), or ``None`` when the graph is no cactus.

    On a cactus the two rows are gathered from the walk's per-vertex slots
    (see the module docstring); they are plain tuples either way."""

    gaps: tuple[int, ...]
    zeros: tuple[int, ...]
    gap_squares: int
    szeged: int
    wiener: int
    rings: tuple[tuple[int, ...], ...] | None


def _cactus_distances(g: Graph) -> _Distances | None:
    """Rings, edge gaps and m_0, Szeged and Wiener index of a cactus in one
    DFS (see the module docstring).

    The walk writes each edge's gap and m_0 to its slot, x for the tree
    edge up from x and n + x for the back edge from the ring bottom x, and
    the rows in ``g.edges`` order are gathered from those slots once it is
    done. A triangle's three edges are written in closed form; longer rings
    take the sliding window.

    Returns ``None`` when ``g`` is no cactus. Raises
    :class:`DisconnectedError` when ``g`` is a disconnected cactus forest.
    """
    n, m, adj = g.n, g.m, g.adj
    parent = [-1] * n
    depth = [-1] * n
    depth[0] = 0
    # on_cycle[x]: the tree edge x-parent[x] lies on a cycle.
    on_cycle = [False] * n
    # closes[x]: the ring whose second vertex is x.
    closes = [None] * n
    # Vertices and edges of each subtree; an edge belongs to its lower end.
    sub_v = [1] * n
    sub_e = [0] * n
    # The gap and m_0 of each edge (u, v), u < v, by slot: the tree edge
    # from x up to parent[x] at x, a ring's back edge at n + its bottom.
    # m_0 starts at 1, a cut edge's; the ring sweep writes its own.
    gap_at = [0] * (2 * n)
    zero_at = [1] * (2 * n)
    rings = []
    squares = cut_pairs = 0
    stack = [(0, iter(adj[0]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if depth[w] < 0:
                parent[w] = v
                depth[w] = depth[v] + 1
                stack.append((w, iter(adj[w])))
                break
            if depth[w] < depth[v] and w != parent[v]:
                # Back edge v-w: its cycle runs down the tree from w to v.
                ring = []
                x = v
                while x != w:
                    if on_cycle[x]:
                        return None
                    on_cycle[x] = True
                    ring.append(x)
                    x = parent[x]
                ring.append(w)
                ring.reverse()
                closes[ring[1]] = ring
                sub_e[v] += 1
        else:
            # Every subtree below v is done: add v's to its parent's, in
            # post-order, and split v's tree edge if it is a cut edge.
            stack.pop()
            p = parent[v]
            if p >= 0:
                below = sub_e[v] + 1
                sub_e[v] = below
                sub_e[p] += below
                sub_v[p] += sub_v[v]
                if not on_cycle[v]:
                    # m_u = below - 1 edges below v, m_v = m - below above.
                    gap = 2 * below - 1 - m
                    gap_at[v] = gap if v < p else -gap
                    squares += gap * gap
                    cut_pairs += sub_v[v] * (n - sub_v[v])
            if closes[v] is not None:
                rings.append(closes[v])
    if -1 in depth:
        raise DisconnectedError("graph is not connected")

    szeged_total = wiener_total = cut_pairs
    for ring in rings:
        size = len(ring)
        if size == 3:
            # A triangle, in closed form (see the module docstring). The
            # walk takes the top's smaller neighbour first, so mid < bot.
            top, mid, bot = ring
            v1 = sub_v[mid] - sub_v[bot]
            v2 = sub_v[bot]
            v0 = n - v1 - v2
            e0 = m - sub_e[mid]
            e1 = sub_e[mid] - sub_e[bot] - 1
            e2 = sub_e[bot] - 2
            gap0, gap1, gap2 = e0 - e1, e1 - e2, e2 - e0
            squares += gap0 * gap0 + gap1 * gap1 + gap2 * gap2
            gap_at[mid] = gap0 if top < mid else -gap0
            gap_at[bot] = gap1
            gap_at[n + bot] = gap2 if bot < top else -gap2
            zero_at[mid] = 1 + e2
            zero_at[bot] = 1 + e0
            zero_at[n + bot] = 1 + e1
            pairs = v0 * v1 + v1 * v2 + v2 * v0
            szeged_total += pairs
            wiener_total += pairs
            continue
        half = size // 2
        odd = size & 1
        # Branch weights at ring[0] (the top vertex), ring[1], ..., ring[-1],
        # and reach = S(0), the sum of V_j d(0, j) over the ring.
        verts = [n - sub_v[ring[1]]]
        edges = [m - sub_e[ring[1]]]
        reach = 0
        for i in range(1, size - 1):
            x, y = ring[i], ring[i + 1]
            v = sub_v[x] - sub_v[y]
            verts.append(v)
            edges.append(sub_e[x] - sub_e[y] - 1)
            reach += v * (i if i <= half else size - i)
        v = sub_v[ring[-1]]
        verts.append(v)
        edges.append(sub_e[ring[-1]] - 2)
        reach += v
        # Ring edge i joins ring[i] and ring[i + 1]. The branches at
        # ring[i - half + 1 .. i] side with ring[i], those at
        # ring[i + 1 .. i + half] with ring[i + 1], and for odd L the one at
        # ring[i - half], opposite the edge, with neither. Each side also
        # holds the same number of ring edges (half for odd L, half - 1 for
        # even L), so the gap is that of the m - L branch edges.
        # The u side starts as the window of edge -1 and slides by one
        # branch per edge: ring[i] joins it and ring[i - half] leaves, a
        # negative index counting back from the end of the ring.
        n_u = sum(verts[size - half:])
        e_u = sum(edges[size - half:])
        rest = m - size
        pairs = 0
        last = size - 1
        for i, a in enumerate(ring):
            v = verts[i]
            j = i - half
            v_out = verts[j]
            e_out = edges[j]
            n_u += v - v_out
            e_u += edges[i] - e_out
            if odd:
                n_v = n - n_u - v_out
                e_v = rest - e_u - e_out
                m_0 = 1 + e_out
            else:
                n_v = n - n_u
                e_v = rest - e_u
                m_0 = 2
            gap = e_u - e_v
            squares += gap * gap
            b = ring[i + 1 - size]
            # The tree edge down to b, or the back edge up from the bottom a.
            slot = b if i < last else n + a
            gap_at[slot] = gap if a < b else -gap
            zero_at[slot] = m_0
            szeged_total += n_u * n_v
            # Sum of V_i S(i). The step to ring[i + 1] takes the u side one
            # farther and the v side one nearer: S(i + 1) = S(i) + n_u - n_v.
            pairs += v * reach
            reach += n_u - n_v
        wiener_total += pairs // 2

    # Gather each row into g.edges order: an edge's slot is its lower end's,
    # offset by n for a back edge. itemgetter returns a bare item for one
    # key and refuses none; K1 and K2 are the connected graphs with m <= 1.
    if m > 1:
        take = itemgetter(
            *[
                v if parent[v] == u
                else u if parent[u] == v
                else n + (u if depth[u] > depth[v] else v)
                for u, v in g.edges
            ]
        )
        gaps, zeros = take(gap_at), take(zero_at)
    else:
        gaps, zeros = ((0,), (1,)) if m else ((), ())
    return _Distances(
        gaps,
        zeros,
        squares,
        szeged_total,
        wiener_total,
        # Built as tuples once the walk is done: keeping the lists the walk
        # grew raised the peak RSS of the index_large benchmark by 2 MB.
        tuple(map(tuple, rings)),
    )


class CactusProfile(NamedTuple):
    """Block structure summary produced by :func:`cactus_profile`.

    ``end_block_flags[i]`` says whether ``cycle_edge_sets[i]`` is an end
    block; ``bridges`` holds the cut edges.
    """

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


def _is_end_block(g: Graph, ring) -> bool:
    # All but at most one ring vertex have degree 2 in the whole graph.
    return sum(1 for v in ring if len(g.adj[v]) != 2) <= 1


def cactus_profile(g: Graph) -> CactusProfile:
    """Classify ``g``'s blocks and flag which cycles are end blocks.

    A graph is a cactus when every block is a single edge or a cycle. A cycle
    is an end block when all but at most one of its vertices have degree 2 in
    the whole graph.

    A cactus reads its cycles and bridges off the rings of the one DFS that
    also gives its distances (see the module docstring), running it if no
    index has yet; the cycles come in :func:`block_decomposition`'s order.
    Any other graph takes :func:`block_decomposition`, never an all-pairs
    BFS. Computed once per graph and kept on it, which is safe because a
    Graph never changes.
    """
    profile = g._profile
    if profile is not None:
        return profile
    found = g._dist
    if found is None:
        found = _cactus_distances(g)
        if found is not None:
            object.__setattr__(g, "_dist", found)
    if found is not None and found.rings is not None:
        cycles = []
        for ring in found.rings:
            # Consecutive ring vertices, and the back edge from the last one
            # to the top.
            last = ring[-1]
            cycle = []
            for v in ring:
                cycle.append((v, last) if v < last else (last, v))
                last = v
            cycles.append(frozenset(cycle))
        flags = tuple(_is_end_block(g, ring) for ring in found.rings)
        profile = CactusProfile(
            True, tuple(cycles), flags, g.edge_set.difference(*cycles)
        )
    else:
        dec = block_decomposition(g)
        ok = all(kind in ("edge", "cycle") for kind in dec.kinds)
        cycles = tuple(b for b, kind in zip(dec.blocks, dec.kinds) if kind == "cycle")
        flags = tuple(_is_end_block(g, cycle_vertices(c)) for c in cycles)
        profile = CactusProfile(ok, cycles, flags, dec.bridges)
    object.__setattr__(g, "_profile", profile)
    return profile


def is_cactus(g: Graph) -> bool:
    return cactus_profile(g).is_cactus
