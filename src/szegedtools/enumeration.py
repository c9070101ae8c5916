"""Exhaustive enumeration of connected cacti by vertex and cycle count.

The universe for a pair ``(n, k)`` is every connected graph on ``n`` vertices
whose blocks are single edges or cycles, with exactly ``k`` cycles.  Such a
graph always has ``n + k - 1`` edges, and the pair is feasible only when
``n >= 2k + 1`` (each cycle needs at least two private vertices).

Isomorphism classes are grown from smaller ones by one rule.  Every cactus
with ``n >= 2`` has a leaf block: a pendant edge or a cycle sharing a single
vertex with the rest.  A leaf block on ``size`` new vertices is a pendant
edge when ``size`` is 1 and a ``(size + 1)``-cycle otherwise, so the
``(n, k)`` classes are exactly those obtained by hanging one at some vertex
of an ``(n - size, k - [size > 1])`` class, for ``size`` from 1 to
``n - 1``.  A block is hung only where it ranks top among the leaf blocks
of the result, by a rule read off degrees (see :func:`cactus_classes`): a
cheap, coarser form of McKay 1998's test that a child's new part is the
one a canonical rule would remove.  It is hung only at the vertices in no
earlier stabilizer orbit of the smaller class (``_orbits``, see
:func:`~szegedtools.canon.canonical_pair`), which include the least vertex
of every automorphism orbit.  Candidates are canonicalized and one graph
is kept per certificate, and class lists come out sorted by certificate.

Labeled graphs are the relabelings of the class representatives, class by
class, and within a class in lexicographic order of the first permutation of
``0..n-1`` that gives each one.  Two permutations give the same labeled
graph exactly when they differ by an automorphism, so that first
permutation is the least member of its coset ``p∘Aut``.  The cosets'
least members are generated directly, in that order, from the orbits of
the point stabilizers, which the representative's canonical search found
too (``_orbits``, see :func:`~szegedtools.canon.canonical_pair`), so no
class is searched again for its symmetries.  Only the first ``d``
positions carry a constraint, ``d`` being one past the last vertex in a
nontrivial orbit, so a recursion over the values still free, in increasing
order, places those, and ``itertools.permutations`` of the values left
gives every ending of each prefix.  Each image is mapped once through a
table of edge tuples, without validating it again: ``n!/|Aut|``
relabelings per class, and no set of graphs already seen.  An image sets
only its vertex count and edges; its adjacency and caches wait until
something reads them.  The labeled count, the sum of ``n!/|Aut|`` over the
classes, cross-checks the automorphism count.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Iterator, NamedTuple

from .bounds import (
    BoundCase,
    cycle_diff_bound,
    minimum_bound,
    pendant_diff_bound,
    second_minimum_bound,
)
from .canon import CERT_CAP, canonical_pair
from .errors import CapError, InfeasibleError
from .formats import emit_graph6
from .graphs import Graph, _image, _leaf_block
from .indices import QuarterInt, edge_revised_szeged, record_dict

DEFAULT_CAP = 10
# Every candidate is canonicalized, so enumeration stops where canon does.
ABSOLUTE_CAP = CERT_CAP


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


_class_cache: dict[tuple[int, int], tuple[Graph, ...]] = {}


def cactus_classes(n: int, k: int, *, cap: int | None = None) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class, certificate order.

    Each class is grown from an ``(n - size, k - [size > 1])`` class ``g``
    by a leaf block on ``size`` new vertices (see the module docstring).  A
    pendant edge outranks any cycle, and of two pendant edges the one whose
    hub has the larger degree ranks higher.  The new block at vertex ``v``
    ranks top when it is a pendant edge and no leaf ``x != v`` of ``g`` has
    a hub of degree above ``deg(v) + 1``, or a cycle and ``g`` has no leaf
    but ``v``.  Every class is reached: a cactus less a top-ranked leaf
    block is a smaller cactus, and an isomorphism onto its representative,
    then an automorphism of that, takes the block's vertex to the least
    vertex of its orbit, where the block, its rank kept, makes a copy of
    the cactus.  Infeasible pairs give an empty tuple.  Results are cached
    per ``(n, k)``, so repeated queries (counting, extremal search, claim
    verification) share one enumeration.
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
        # A class plus a leaf block is a valid cactus: no validation needed.
        canon, cert = canonical_pair(_image(n, tuple(sorted(edges))))
        found.setdefault(cert, canon)

    if n == 1:
        keep(())
    for size in range(1, n):
        first = n - size
        for g in cactus_classes(first, k - (size > 1), cap=cap):
            deg = [0] * first
            for u, w in g.edges:
                deg[u] += 1
                deg[w] += 1
            # hub[x]: the degree, at least 1, of leaf x's neighbour.
            hub = {x: deg[y] for e in g.edges for x, y in (e, e[::-1]) if deg[x] == 1}
            for v, above in enumerate(_above(g._orbits)):
                # A cycle at v ranks top only if no other leaf is left:
                # no hub degree is at most 0.
                limit = deg[v] + 1 if size == 1 else 0
                if above < 0 and all(d <= limit for x, d in hub.items() if x != v):
                    keep(g.edges + _leaf_block(v, first, size))
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
    graph on vertex set ``0..n-1`` is yielded once: class by class in
    certificate order, and within a class in lexicographic order of the first
    permutation of the representative that gives it.  Infeasible pairs yield
    nothing; ``n`` over the cap raises ``CapError``.  ``workers`` is
    accepted for compatibility and ignored: generation runs in one process.
    """
    classes = cactus_classes(n, k, cap=cap)
    if dedup:
        yield from classes
        return
    pair = _edge_table(n)
    for g in classes:
        yield from _class_images(g, pair)


def _edge_table(n: int) -> list[list[tuple[int, int]]]:
    """``table[a][b]``: the edge of the vertices ``a`` and ``b`` as a sorted
    tuple, for every pair in ``0..n-1``."""
    return [[(a, b) if a < b else (b, a) for b in range(n)] for a in range(n)]


def _class_images(
    g: Graph, pair: list[list[tuple[int, int]]]
) -> Iterator[Graph]:
    """The images of ``g`` under the least members ``p`` of the cosets
    ``p∘Aut(g)``, in lexicographic order of ``p``.

    ``g`` is a canonical form from :func:`~szegedtools.canon.canonical_pair`,
    such as a class representative, and its stabilizer orbits are read from
    ``g._orbits``.  Only positions below ``d``, one past the largest vertex
    in any nontrivial stabilizer orbit, carry a constraint (see
    :func:`_coset_prefixes`).  So each least prefix ``p[:d]`` extends by
    every ordering of the values it leaves free, and
    ``itertools.permutations`` of those values in increasing order gives
    the orderings in lexicographic order.  Every edge of every image is
    mapped through ``pair``, the :func:`_edge_table` of ``g.n``, which one
    labeled stream builds once for all its classes.
    """
    n = g.n
    orbits = g._orbits
    d = max((orbit[-1] + 1 for orbit in orbits if len(orbit) > 1), default=0)
    edges = g.edges
    for prefix, free in _coset_prefixes(orbits, d):
        for suffix in permutations(free):
            p = prefix + suffix
            image = [pair[p[u]][p[v]] for u, v in edges]
            image.sort()
            yield _image(n, tuple(image))


def _above(orbits: tuple[tuple[int, ...], ...]) -> list[int]:
    """``above[j]``: the last ``i < j`` whose stabilizer orbit ``orbits[i]``
    holds ``j``, or -1 when no earlier orbit does."""
    above = [-1] * len(orbits)
    for i, orbit in enumerate(orbits):
        for j in orbit[1:]:
            above[j] = i
    return above


def _coset_prefixes(
    orbits: tuple[tuple[int, ...], ...], d: int
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """The prefixes ``p[:d]``, in lexicographic order, of the permutations
    ``p`` of ``0..n-1`` with ``p[i] < p[j]`` for every ``j`` in
    ``orbits[i]`` other than ``i``, each with the values it leaves free in
    increasing order; ``d`` is at least one past every vertex in a
    nontrivial orbit.

    With the stabilizer orbits of ``Aut(g)`` these permutations are the
    least members of the cosets ``p∘Aut(g)``, one per labeled copy of
    ``g``.  The orbits are laminar: ``orbits[j]`` lies inside ``orbits[i]``
    when ``j`` is in it and is disjoint from it otherwise.  So ``p[j]``
    needs only exceed the value at ``above[j]``, the last ``i < j`` whose
    orbit holds ``j``, and must leave ``len(orbits[j]) - 1`` larger values
    free for the rest of its orbit.  Each position tries the free values in
    increasing order.  No position from ``d`` on is in a nontrivial orbit,
    so none carries a constraint, and every ordering of the free values
    completes a prefix.
    """
    above = _above(orbits)

    def extend(prefix, free):
        pos = len(prefix)
        if pos == d:
            yield prefix, free
            return
        low = prefix[above[pos]] if above[pos] >= 0 else -1
        # free[i] leaves len(free) - 1 - i larger values free.
        for i in range(len(free) - len(orbits[pos]) + 1):
            if free[i] > low:
                yield from extend(prefix + (free[i],), free[:i] + free[i + 1:])

    return extend((), list(range(len(orbits))))


def count_cacti(n: int, k: int, *, cap: int | None = None) -> int:
    """Number of isomorphism classes of cacti with ``n`` vertices, ``k`` cycles."""
    return len(cactus_classes(n, k, cap=cap))


class ExtremalWitness(NamedTuple):
    """One isomorphism class attaining an extremal value."""

    certificate: str
    graph6: str
    value: QuarterInt

    to_dict = record_dict


class ExtremalReport(NamedTuple):
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
    notes: tuple[str, ...] = ()

    to_dict = record_dict


def search_extremal(
    n: int, k: int, *, workers: int = 1, cap: int | None = None
) -> ExtremalReport:
    """Exhaustively minimize the index over all cacti with ``n`` vertices and
    ``k`` cycles, and compare the minimum against its closed form.

    Each class is scored once.  The runner-up value is the smallest value
    over classes attaining strictly more than the minimum; it is ``None``
    when every class ties.  Witness records are built only for the classes
    at those two values.  An infeasible pair has no classes to search and
    raises ``InfeasibleError``.  ``workers`` is accepted for compatibility
    and ignored: the search runs in one process.

    The runner-up is not compared: Theorem 4.4's bound needs m > 15 and
    m > 4k, which first hold at n = 14, past the enumeration cap.
    ``second_case`` says why no bound applies, and ``second_agrees`` is
    ``None``.
    """
    classes = cactus_classes(n, k, cap=cap)
    if not classes:
        raise InfeasibleError(
            f"no cacti exist with n = {n} and k = {k}; nothing to search"
        )
    values = [edge_revised_szeged(g) for g in classes]
    min_value = min(values)
    second_value = min((v for v in values if v != min_value), default=None)

    def witnesses(value) -> tuple[ExtremalWitness, ...]:
        # A representative is a canonical form: its graph6 string is its
        # certificate.
        lines = [emit_graph6(g) for g, v in zip(classes, values) if v == value]
        return tuple(ExtremalWitness(line, line, value) for line in lines)

    m = n + k - 1
    # A feasible pair has m >= 3k, so the minimum always has a closed form.
    min_case, min_bound = minimum_bound(m, k)
    minimum_agrees = min_bound == min_value
    notes = ()
    if not minimum_agrees:
        notes = ("closed-form minimum disagrees with the exhaustive minimum",)
    min_witnesses = witnesses(min_value)
    return ExtremalReport(
        n=n,
        k=k,
        m=m,
        class_count=len(classes),
        min_value=min_value,
        min_witnesses=min_witnesses,
        second_value=second_value,
        second_witnesses=witnesses(second_value),
        min_tied=len(min_witnesses) > 1,
        minimum_case=min_case,
        minimum_agrees=minimum_agrees,
        second_case=second_minimum_bound(m, k)[0],
        notes=notes,
    )


def extremal_values(
    n: int, k: int
) -> tuple[list[tuple[QuarterInt, tuple[Graph, ...]]], int]:
    """The least two index values over the cacti with ``n`` vertices and
    ``k`` cycles, a feasible pair, each with the graphs that attain it (one
    value when every class ties), and how many block multisets were scored.

    By the block identity (``tests/test_block_identity.py``), the graphs of
    a multiset M of blocks are worth at least base(M) = m³ − Σ ceil, and
    only M's bundle is worth that.  Any other is worth at least base(M) plus
    the least deficiency of a block A with two blocks besides it, with b the
    fewest edges of another block: 4b(m − 1 − b) for a bridge, and
    b(m − L − b)(8 − 2[L odd]) for a ring of length L.  It is met exactly
    when a block of b edges hangs on A one step out from the hub.  Ring
    lengths go in nondecreasing order, and a branch that cannot reach the
    runner-up found so far is cut.
    """
    m = n + k - 1
    bridge = pendant_diff_bound(m)
    # base(M) is floor less gain[L] for each ring: what a ring of length L
    # adds to the ceilings of the L - 1 bridges it replaces.  A ring is
    # longest, n - 2k + 2, when every other one is a triangle.
    floor = m**3 - (n - 1) * bridge
    lengths = range(3, n - 2 * k + 3) if k else ()
    gain = {L: cycle_diff_bound(L, m) - (L - 1) * bridge for L in lengths}
    order = sorted(gain, key=lambda L: (-gain[L], L))
    kept: dict[int, list] = {}  # the least two values so far, and their shapes
    scored = 0

    def offer(value: int, blocks: tuple[int, ...], moved=None) -> None:
        if len(kept) < 2 or value <= max(kept):
            kept.setdefault(value, []).append((blocks, moved))
            if len(kept) > 2:
                del kept[max(kept)]

    def grow(rings: tuple[int, ...], spare: int, gained: int) -> None:
        nonlocal scored
        left = k - len(rings)
        if not left:
            # Blocks by edge count, least first: a bridge on each spare
            # vertex, then the rings.  A block of a edges is a bridge or a
            # ring of length a, and b is the fewest edges of another block.
            scored += 1
            blocks = (1,) * spare + rings
            offer(floor - gained, blocks)
            if len(blocks) < 3:
                return
            for a in sorted(set(blocks)):
                b = blocks[blocks[0] == a]
                scale = 4 if a == 1 else 8 - 2 * (a % 2)
                offer(floor - gained + b * (m - a - b) * scale, blocks, (a, b))
            return
        lo = rings[-1] if rings else 3
        # Every ring left is from lo to top long, and the next, the
        # shortest of them, at most spare // left + 1.
        top = spare - (left - 1) * (lo - 1) + 1
        best = max(gain[L] for L in range(lo, top + 1))
        for L in order:
            if lo <= L <= spare // left + 1:
                reach = floor - gained - gain[L] - (left - 1) * best
                if len(kept) == 2 and reach > max(kept):
                    return
                grow(rings + (L,), spare - L + 1, gained + gain[L])

    grow((), n - 1, 0)
    return [
        (QuarterInt(value), tuple(_moved_bundle(*shape) for shape in kept[value]))
        for value in sorted(kept)
    ], scored


def _moved_bundle(blocks: tuple[int, ...], moved: tuple[int, int] | None) -> Graph:
    """The bundle of ``blocks``, each given by its edge count (1 for a
    bridge), with ``moved = (a, b)``, if given, hanging one block of b
    edges one step out from the hub on one of a edges."""
    rest = list(blocks)
    for e in moved or ():
        rest.remove(e)
    edges: list[tuple[int, int]] = []
    nxt = 1
    for at, e in [*zip((0, 1), moved or ()), *((0, e) for e in rest)]:
        edges += _leaf_block(at, nxt, e - (e > 1))
        nxt += e - (e > 1)
    return Graph(nxt, edges)


def random_cactus(n: int, k: int, seed: int = 0) -> Graph:
    """Deterministic random cactus by leaf-block growth.

    Starting from one vertex, each step hangs a leaf block (see
    :func:`cactus_classes`) at a uniformly chosen existing vertex: a cycle on
    ``2 + extra`` new vertices or a pendant edge on one, in shuffled step
    order.  Every cactus is the end point of some such sequence (peel its
    leaf blocks in reverse), so every isomorphism class, cycles joined by
    bridges included, has positive probability.  Cycle lengths are at least
    3 and their total stays within the edge budget ``n + k - 1``.  The same
    seed always gives the same graph.
    """
    if not is_feasible(n, k):
        raise InfeasibleError(
            f"no cactus has n = {n} vertices and k = {k} cycles (need n >= 2k+1)"
        )
    rng = random.Random(seed)
    spare = n - 1 - 2 * k
    sizes = []
    for _ in range(k):
        extra = rng.randint(0, spare)
        spare -= extra
        sizes.append(2 + extra)
    # What is left of ``spare`` is the pendant count.
    sizes += [1] * spare
    rng.shuffle(sizes)
    edges: list[tuple[int, int]] = []
    verts = 1
    for size in sizes:
        edges += _leaf_block(rng.randrange(verts), verts, size)
        verts += size
    return Graph(n, edges)
