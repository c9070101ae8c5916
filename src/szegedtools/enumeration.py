"""Exhaustive enumeration of connected cacti by vertex and cycle count.

The universe for a pair ``(n, k)`` is every connected graph on ``n`` vertices
whose blocks are single edges or cycles, with exactly ``k`` cycles.  Such a
graph always has ``n + k - 1`` edges, and the pair is feasible only when
``n >= 2k + 1`` (each cycle needs at least two private vertices).

Isomorphism classes are grown from smaller ones.  Every cactus with
``n >= 2`` has a leaf block: a pendant edge or a cycle sharing a single vertex
with the rest.  So the ``(n, k)`` classes are exactly those obtained by
hanging a pendant vertex at each vertex of each ``(n - 1, k)`` class, plus
those obtained by attaching an ``L``-cycle at each vertex of each
``(n - L + 1, k - 1)`` class.  Candidates are canonicalized and one graph is
kept per certificate (isomorph rejection in the sense of McKay 1998), and
class lists come out sorted by certificate.

Labeled graphs come from a separate walk over edge subsets of the complete
graph in lexicographic index order, adding one edge at a time.  An edge
inside the current component is admitted only when its endpoints are joined
by a path of bridge edges; that path plus the new edge becomes a cycle block
and its edges stop being bridges.  Every cycle is therefore closed exactly
once, by its largest edge index, so each valid edge set is produced exactly
once.  Three prunes keep the walk tight: the cycle budget, a ceiling on the
largest index that still leaves enough edges to finish, and the last incident
index of the smallest still-isolated vertex.  Summing ``n!/|Aut|`` over the
grown classes reproduces the walk's count, which cross-checks both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .bounds import BoundCase, minimum_bound, second_minimum_bound
from .canon import canonical_pair
from .errors import CapError, InfeasibleError
from .formats import emit_graph6
from .graphs import Graph
from .indices import QuarterInt, edge_revised_szeged

DEFAULT_CAP = 10
ABSOLUTE_CAP = 12

_EdgeTable = tuple[tuple[tuple[int, int], ...], tuple[int, ...]]


def is_feasible(n: int, k: int) -> bool:
    """True when at least one cactus with ``n`` vertices and ``k`` cycles exists."""
    return n >= 1 and k >= 0 and n >= 2 * k + 1


def _effective_cap(cap: int | None) -> int:
    if cap is None:
        return DEFAULT_CAP
    return min(cap, ABSOLUTE_CAP)


def _check_cap(n: int, cap: int | None) -> None:
    limit = _effective_cap(cap)
    if n > limit:
        raise CapError(
            f"exhaustive enumeration is capped at n = {limit}, got n = {n}"
        )


def _edge_table(n: int) -> _EdgeTable:
    """Lexicographic edge list of K_n plus each vertex's last incident index."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            edges.append((u, v))
    last = [0] * n
    for idx, (u, v) in enumerate(edges):
        last[u] = idx
        last[v] = idx
    return tuple(edges), tuple(last)


def _mask_edges(mask: int, edges: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    out = []
    while mask:
        low = mask & -mask
        out.append(edges[low.bit_length() - 1])
        mask &= mask - 1
    return out


def _mask_graph(n: int, k: int, mask: int, edges: tuple[tuple[int, int], ...]) -> Graph:
    pairs = _mask_edges(mask, edges)
    assert len(pairs) == n + k - 1
    return Graph(n, pairs)


def _walk_pattern(
    n: int,
    k: int,
    m: int,
    pattern: int,
    edges: tuple[tuple[int, int], ...],
    last: tuple[int, ...],
    emit: Callable[[int], None],
) -> None:
    """Emit every valid edge mask whose vertex-0 incidence equals ``pattern``.

    ``pattern`` is a bitmask over the first ``n - 1`` edge indices, all of
    which touch vertex 0.  Valid masks have ``m`` edges, one component, and
    exactly ``k`` cycles; the edge-count identity makes the last two
    equivalent once the cycle budget is enforced, so no final filter is
    needed.
    """
    big = len(edges)
    parent = list(range(n))
    size = [1] * n
    deg = [0] * n
    badj = [0] * n
    base_mask = 0
    chosen = 0
    pm = pattern
    idx = 0
    while pm:
        if pm & 1:
            v = edges[idx][1]
            parent[v] = 0
            size[0] += 1
            deg[0] += 1
            deg[v] += 1
            badj[0] |= 1 << v
            badj[v] |= 1
            base_mask |= 1 << idx
            chosen += 1
        pm >>= 1
        idx += 1
    need0 = m - chosen
    if need0 < 0 or (n > 1 and deg[0] == 0):
        return

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def bridge_path(src: int, dst: int) -> list[int] | None:
        # BFS over bridge edges only; used to decide whether a same-component
        # edge closes a new cycle or would pierce an existing one.
        prev = [-1] * n
        prev[src] = src
        frontier = [src]
        while frontier:
            nxt = []
            for a in frontier:
                mask = badj[a]
                while mask:
                    b = (mask & -mask).bit_length() - 1
                    mask &= mask - 1
                    if prev[b] < 0:
                        prev[b] = a
                        if b == dst:
                            path = [dst]
                            while path[-1] != src:
                                path.append(prev[path[-1]])
                            return path
                        nxt.append(b)
            frontier = nxt
        return None

    def walk(start: int, need: int, mask: int, z: int) -> None:
        if need == 0:
            emit(mask)
            return
        limit = big - need
        for v0 in range(n):
            if not deg[v0]:
                # last[] grows with the vertex index, so the first isolated
                # vertex has the tightest deadline.
                if last[v0] < limit:
                    limit = last[v0]
                break
        j = start
        while j <= limit:
            u, v = edges[j]
            ru = find(u)
            rv = find(v)
            if ru == rv:
                if z < k:
                    path = bridge_path(u, v)
                    if path is not None:
                        for i in range(len(path) - 1):
                            a, b = path[i], path[i + 1]
                            badj[a] &= ~(1 << b)
                            badj[b] &= ~(1 << a)
                        deg[u] += 1
                        deg[v] += 1
                        walk(j + 1, need - 1, mask | (1 << j), z + 1)
                        deg[u] -= 1
                        deg[v] -= 1
                        for i in range(len(path) - 1):
                            a, b = path[i], path[i + 1]
                            badj[a] |= 1 << b
                            badj[b] |= 1 << a
            else:
                if size[ru] < size[rv]:
                    ru, rv = rv, ru
                parent[rv] = ru
                size[ru] += size[rv]
                deg[u] += 1
                deg[v] += 1
                badj[u] |= 1 << v
                badj[v] |= 1 << u
                walk(j + 1, need - 1, mask | (1 << j), z)
                badj[u] &= ~(1 << v)
                badj[v] &= ~(1 << u)
                deg[u] -= 1
                deg[v] -= 1
                size[ru] -= size[rv]
                parent[rv] = rv
            j += 1

    walk(n - 1, need0, base_mask, 0)


def _patterns(n: int, m: int) -> list[int]:
    """All possible vertex-0 incidence masks, ascending."""
    if n == 1:
        return []
    return [p for p in range(1, 1 << (n - 1)) if p.bit_count() <= m]


_class_cache: dict[tuple[int, int], tuple[Graph, ...]] = {}


def cactus_classes(
    n: int, k: int, *, workers: int = 1, cap: int | None = None
) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class, certificate order.

    Infeasible pairs give an empty tuple.  Results are cached per ``(n, k)``,
    so repeated queries (counting, extremal search, claim verification) share
    one enumeration.  ``workers`` is accepted for compatibility and ignored:
    generation runs in one process.
    """
    _check_cap(n, cap)
    if not is_feasible(n, k):
        return ()
    cache_key = (n, k)
    hit = _class_cache.get(cache_key)
    if hit is not None:
        return hit
    found: dict[bytes, Graph] = {}

    def keep(edges: tuple[tuple[int, int], ...]) -> None:
        canon, cert = canonical_pair(Graph(n, edges))
        found.setdefault(cert, canon)

    if n == 1:
        keep(())
    # A leaf block is either a pendant edge ...
    for g in cactus_classes(n - 1, k, cap=cap):
        for v in range(n - 1):
            keep(g.edges + ((v, n - 1),))
    # ... or an end-block cycle sharing one vertex with the rest.
    for length in range(3, n + 1):
        base = n - length + 1
        for g in cactus_classes(base, k - 1, cap=cap):
            for v in range(base):
                ring = (v,) + tuple(range(base, n))
                keep(g.edges + tuple(zip(ring, ring[1:] + ring[:1])))
    result = tuple(found[cert] for cert in sorted(found))
    _class_cache[cache_key] = result
    return result


def enumerate_cacti(
    n: int,
    k: int,
    *,
    dedup: bool = True,
    workers: int = 1,
    cap: int | None = None,
) -> Iterator[Graph]:
    """Yield cacti with ``n`` vertices and ``k`` cycles.

    With ``dedup`` (the default) each isomorphism class appears once, as its
    canonical labeling, in certificate order.  Without it, every labeled
    graph on vertex set ``0..n-1`` is yielded, in a fixed search order.
    Infeasible pairs yield nothing; ``n`` over the cap raises ``CapError``.
    """
    _check_cap(n, cap)
    if dedup:
        yield from cactus_classes(n, k, workers=workers, cap=cap)
        return
    if not is_feasible(n, k):
        return
    if n == 1:
        yield Graph(1, ())
        return
    m = n + k - 1
    edges, last = _edge_table(n)
    for pattern in _patterns(n, m):
        batch: list[int] = []
        _walk_pattern(n, k, m, pattern, edges, last, batch.append)
        for mask in batch:
            yield _mask_graph(n, k, mask, edges)


def count_cacti(
    n: int, k: int, *, workers: int = 1, cap: int | None = None
) -> int:
    """Number of isomorphism classes of cacti with ``n`` vertices, ``k`` cycles."""
    return len(cactus_classes(n, k, workers=workers, cap=cap))


@dataclass(frozen=True)
class ExtremalWitness:
    """One isomorphism class attaining an extremal value."""

    certificate: str
    graph6: str
    value: QuarterInt

    def to_dict(self) -> dict:
        return {
            "certificate": self.certificate,
            "graph6": self.graph6,
            "value": self.value.to_dict(),
        }


@dataclass(frozen=True)
class ExtremalReport:
    """Exhaustive minimum and runner-up of the index over one class list."""

    n: int
    k: int
    m: int
    class_count: int
    min_value: QuarterInt
    min_witnesses: tuple[ExtremalWitness, ...]
    second_value: QuarterInt | None
    second_witnesses: tuple[ExtremalWitness, ...]
    min_tied: bool
    minimum_case: BoundCase | None = None
    minimum_agrees: bool | None = None
    second_case: BoundCase | None = None
    second_agrees: bool | None = None
    notes: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "class_count": self.class_count,
            "min_value": self.min_value.to_dict(),
            "min_witnesses": [w.to_dict() for w in self.min_witnesses],
            "second_value": (
                None if self.second_value is None else self.second_value.to_dict()
            ),
            "second_witnesses": [w.to_dict() for w in self.second_witnesses],
            "min_tied": self.min_tied,
            "minimum_case": (
                None if self.minimum_case is None else self.minimum_case.to_dict()
            ),
            "minimum_agrees": self.minimum_agrees,
            "second_case": (
                None if self.second_case is None else self.second_case.to_dict()
            ),
            "second_agrees": self.second_agrees,
            "notes": list(self.notes),
        }


def search_extremal(
    n: int, k: int, *, workers: int = 1, cap: int | None = None
) -> ExtremalReport:
    """Exhaustively minimize the index over all cacti with ``n`` vertices and
    ``k`` cycles, and compare against the closed-form predictions.

    The runner-up value is the smallest value over classes attaining strictly
    more than the minimum; it is ``None`` when every class ties.  An
    infeasible pair has no classes to search and raises ``InfeasibleError``.
    """
    classes = cactus_classes(n, k, workers=workers, cap=cap)
    if not classes:
        raise InfeasibleError(
            f"no cacti exist with n = {n} and k = {k}; nothing to search"
        )
    scored = [
        ExtremalWitness(
            certificate=g._cert.decode("ascii"),
            graph6=emit_graph6(g),
            value=edge_revised_szeged(g),
        )
        for g in classes
    ]
    min_value = min(w.value for w in scored)
    min_witnesses = tuple(w for w in scored if w.value == min_value)
    rest = [w for w in scored if w.value != min_value]
    second_value: QuarterInt | None = None
    second_witnesses: tuple[ExtremalWitness, ...] = ()
    if rest:
        second_value = min(w.value for w in rest)
        second_witnesses = tuple(w for w in rest if w.value == second_value)

    m = n + k - 1
    notes: list[str] = []
    min_case, min_bound = minimum_bound(m, k)
    minimum_agrees: bool | None = None
    if min_bound is not None:
        minimum_agrees = min_bound == min_value
        if not minimum_agrees:
            notes.append(
                "closed-form minimum disagrees with the exhaustive minimum"
            )
    sec_case, sec_bound = second_minimum_bound(m, k)
    second_agrees: bool | None = None
    if sec_bound is not None and second_value is not None:
        second_agrees = sec_bound == second_value
        if not second_agrees:
            notes.append(
                "closed-form runner-up disagrees with the exhaustive runner-up"
            )
    return ExtremalReport(
        n=n,
        k=k,
        m=m,
        class_count=len(classes),
        min_value=min_value,
        min_witnesses=min_witnesses,
        second_value=second_value,
        second_witnesses=second_witnesses,
        min_tied=len(min_witnesses) > 1,
        minimum_case=min_case,
        minimum_agrees=minimum_agrees,
        second_case=sec_case,
        second_agrees=second_agrees,
        notes=tuple(notes),
    )


def random_cactus(n: int, k: int, seed: int = 0) -> Graph:
    """Deterministic random cactus: ``k`` cycles of random length attached at
    random existing vertices, then random pendant growth up to ``n`` vertices.

    Cycle lengths are at least 3 and their total stays within the edge budget
    ``n + k - 1``.  The same seed always gives the same graph.
    """
    if not is_feasible(n, k):
        raise InfeasibleError(
            f"no cactus has n = {n} vertices and k = {k} cycles (need n >= 2k+1)"
        )
    rng = random.Random(seed)
    spare = n - 1 - 2 * k
    lengths = []
    for _ in range(k):
        extra = rng.randint(0, spare)
        spare -= extra
        lengths.append(3 + extra)
    rng.shuffle(lengths)
    edges: list[tuple[int, int]] = []
    verts = 1
    for length in lengths:
        attach = rng.randrange(verts)
        ring = [attach] + list(range(verts, verts + length - 1))
        verts += length - 1
        for i in range(length):
            edges.append((ring[i], ring[(i + 1) % length]))
    while verts < n:
        attach = rng.randrange(verts)
        edges.append((attach, verts))
        verts += 1
    return Graph(n, edges)
