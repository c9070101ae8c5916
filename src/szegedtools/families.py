"""Constructors and recognizers for the named cactus families.

A *bundle* is a cactus whose cycles all pass through one shared hub vertex
and whose cut edges are all pendant edges at that hub. The two uniform
bundles (all triangles, all quadrangles) and the quadrangle bundle with one
pendant edge subdivided (the "tailed" variant) are the extremal graphs the
bounds module predicts, so they get dedicated constructors and exact
recognizers here.

Canonical vertex numbering for constructors: hub is 0, cycle vertices follow
in construction order, pendant vertices come last.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InfeasibleError
from .graphs import Graph, _leaf_block, cactus_profile


class _BundleFields(NamedTuple):
    cycle_lengths: tuple[int, ...]
    pendants: int = 0


class BundleSpec(_BundleFields):
    """Cycle lengths plus pendant count of a bundle."""

    __slots__ = ()

    def __new__(cls, cycle_lengths, pendants: int = 0):
        cycle_lengths = tuple(cycle_lengths)
        for length in cycle_lengths:
            if length < 3:
                raise InfeasibleError(f"cycle length {length} < 3")
        if pendants < 0:
            raise InfeasibleError(f"negative pendant count {pendants}")
        return super().__new__(cls, cycle_lengths, pendants)

    @property
    def k(self) -> int:
        return len(self.cycle_lengths)

    @property
    def n(self) -> int:
        return 1 + sum(length - 1 for length in self.cycle_lengths) + self.pendants

    @property
    def m(self) -> int:
        return sum(self.cycle_lengths) + self.pendants


def bundle(spec: BundleSpec) -> Graph:
    """Build the bundle described by ``spec``: its cycles, then its
    pendants, hung at hub 0 in turn as leaf blocks, each on the next free
    vertices."""
    edges = []
    nxt = 1
    for size in [length - 1 for length in spec.cycle_lengths] + [1] * spec.pendants:
        edges += _leaf_block(0, nxt, size)
        nxt += size
    return Graph(nxt, edges)


def triangle_bundle(n: int, k: int) -> Graph:
    """k triangles at a hub plus n - 2k - 1 hub pendants."""
    if k < 0 or n < 2 * k + 1:
        raise InfeasibleError(f"triangle bundle needs n >= 2k+1, got n={n}, k={k}")
    return bundle(BundleSpec((3,) * k, n - 2 * k - 1))


def quadrangle_bundle(n: int, k: int) -> Graph:
    """k quadrangles at a hub plus n - 3k - 1 hub pendants."""
    if k < 0 or n < 3 * k + 1:
        raise InfeasibleError(f"quadrangle bundle needs n >= 3k+1, got n={n}, k={k}")
    return bundle(BundleSpec((4,) * k, n - 3 * k - 1))


def tailed_quadrangle_bundle(n: int, k: int) -> Graph:
    """Quadrangle bundle on n-1 vertices with one pendant extended to a tail.

    Needs n >= 3k + 3: the bundle on n - 1 vertices has n - 3k - 2 pendants
    and must keep at least one to extend. The result has exactly one cut edge
    that is not pendant, and deleting that edge leaves a single-edge
    component.
    """
    if k < 0 or n < 3 * k + 3:
        raise InfeasibleError(
            f"tailed quadrangle bundle needs n >= 3k+3, got n={n}, k={k}"
        )
    base = quadrangle_bundle(n - 1, k)
    first_pendant = 1 + 3 * k  # lowest-numbered pendant vertex of the base
    return Graph(n, list(base.edges) + [(first_pendant, n - 1)])


def cycle(length: int) -> Graph:
    if length < 3:
        raise InfeasibleError(f"cycle needs length >= 3, got {length}")
    return Graph(length, [(i, (i + 1) % length) for i in range(length)])


def path(n: int) -> Graph:
    if n < 1:
        raise InfeasibleError(f"path needs n >= 1, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Graph:
    if n < 1:
        raise InfeasibleError(f"star needs n >= 1, got {n}")
    return Graph(n, [(0, i) for i in range(1, n)])


def as_bundle(g: Graph) -> BundleSpec | None:
    """Recognize bundles exactly; returns a BundleSpec (lengths sorted) or None.

    A connected cactus with k cycles and b cut edges is a bundle exactly
    when its largest degree is 2k + b. Each edge at a vertex v is a cut edge
    or lies on one cycle, and each cycle through v takes two of them, so
    deg(v) <= 2k + b, with equality exactly when v lies on every cycle and
    meets every cut edge. Such a v is a hub. Another vertex on a cycle has degree 2: a
    second cycle through it would share it and v with the first, and an
    edge from it to v off the cycle would close such a cycle too. Any other
    vertex meets only cut edges, which all end at v, so it is a leaf at v.
    Conversely, a bundle's hub has degree 2k + b, and it has the largest
    degree: every other vertex has degree at most 2, and where the hub has
    degree 2 or less (K1, K2, P3, a lone cycle) every vertex of largest
    degree is a hub.

    Works at any size: nothing here is a certificate comparison, so it is
    not subject to the canonical-form cap. Raises :class:`DisconnectedError`
    on disconnected input.
    """
    profile = cactus_profile(g)
    if not profile.is_cactus:
        return None
    pendants = max(map(len, g.adj)) - 2 * profile.k
    if pendants != len(profile.bridges):
        return None
    return BundleSpec(profile.cycle_lengths, pendants)


def is_quadrangle_bundle(g: Graph, k: int | None = None) -> bool:
    spec = as_bundle(g)
    if spec is None or spec.cycle_lengths != (4,) * spec.k:
        return False
    return k is None or spec.k == k


def is_tailed_quadrangle_bundle(g: Graph, k: int | None = None) -> bool:
    """Exact recognizer for :func:`tailed_quadrangle_bundle` results.

    A connected cactus with k cycles, all quadrangles, and b cut edges is a
    tailed bundle exactly when one vertex v has degree 2k + b - 1 and every
    other vertex degree at most 2. deg(v) is 2·(cycles through v) + (cut
    edges at v), at most 2k + b, so v lies on every cycle and meets every
    cut edge but one, xy. The other cycle vertices have degree 2, so x and
    y, which have xy as well, lie on no cycle, and their other edges end at
    v. xv and yv cannot both be edges (they would close a triangle with xy)
    nor both be missing (g is connected), so one is a pendant at v and the
    other a leaf: the tail. Every other vertex is a leaf at v. Conversely, a
    tailed bundle's hub has degree 2k + b - 1 and the rest degree at most
    2; the hub has degree 2 or less only on P3 and P4. Raises
    :class:`DisconnectedError` on disconnected input, as :func:`as_bundle`
    does.
    """
    profile = cactus_profile(g)
    if not profile.is_cactus or k not in (None, profile.k):
        return False
    if profile.cycle_lengths != (4,) * profile.k:
        return False
    hub = 2 * profile.k + len(profile.bridges) - 1
    degrees = [len(a) for a in g.adj]
    big = [d for d in degrees if d > 2]
    return hub in degrees and big == ([hub] if hub > 2 else [])
