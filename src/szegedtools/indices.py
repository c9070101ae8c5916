"""Distance-based graph invariants in exact arithmetic.

The edge revised Szeged index sums, over every edge e = uv, the product
(m_u + m_0/2)(m_v + m_0/2), where m_u counts the edges strictly closer to u
than to v, m_v the edges strictly closer to v, and m_0 the rest (the edge e
itself always lands in m_0). Every value is therefore an integer number of
quarters, and :class:`QuarterInt` keeps it that way; no floating point enters
any computation here.

On a cactus every one of these counts follows from block weights, so the
one DFS that also finds the cactus's cycles and cut edges,
:func:`szegedtools.graphs._cactus_distances`, gives them all in O(n + m)
time. Any other graph takes the general path: all-pairs BFS plus a sweep
over all edges for each edge, O(n m + m^2) time. That path is also the
reference the cactus pass is tested against.

Either way the analysis runs once per graph and is kept on it (a Graph never
changes): the gap m_u - m_v and m_0 of every edge, the sum of the squared
gaps, the Szeged index and the Wiener index, and on a cactus its rings.
:func:`edge_partitions`, :func:`edge_gaps`, :func:`diff_square_sum`,
:func:`edge_revised_szeged`, :func:`szeged` and :func:`wiener` all read it,
and so does :func:`szegedtools.graphs.cactus_profile`, whichever asks first;
m_u and m_v follow from m, m_0 and the gap.
"""

from __future__ import annotations

import sys
from itertools import repeat
from operator import add, floordiv, sub
from typing import NamedTuple

from .errors import DisconnectedError, InvalidGraphError
from .graphs import (
    Graph,
    _cactus_distances,
    _Distances,
    all_bfs_distances,
    bfs_distances,
    require_connected,
)


# hash(Fraction(num, 4)) is num times the inverse of 4 modulo this prime,
# with the sign of num; see "Hashing of numeric types" in the Python docs.
_HASH_MODULUS = sys.hash_info.modulus
_HASH_INV4 = pow(4, -1, _HASH_MODULUS)


def _quarters(value) -> int | None:
    """``value`` in quarters: a QuarterInt's numerator, four times an int,
    and None for any other type."""
    if isinstance(value, QuarterInt):
        return value.num
    if isinstance(value, int):
        return 4 * value
    return None


class QuarterInt:
    """Exact multiple of 1/4, stored as the integer numerator over 4."""

    __slots__ = ("num",)

    def __init__(self, num: int):
        if not isinstance(num, int):
            raise TypeError(f"QuarterInt numerator must be int, got {type(num)!r}")
        object.__setattr__(self, "num", num)

    def __setattr__(self, name, value):
        raise AttributeError("QuarterInt is immutable")

    @classmethod
    def from_int(cls, value: int) -> "QuarterInt":
        return cls(4 * value)

    def __add__(self, other):
        q = _quarters(other)
        return NotImplemented if q is None else QuarterInt(self.num + q)

    __radd__ = __add__

    def __sub__(self, other):
        q = _quarters(other)
        return NotImplemented if q is None else QuarterInt(self.num - q)

    def __rsub__(self, other):
        q = _quarters(other)
        return NotImplemented if q is None else QuarterInt(q - self.num)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuarterInt(self.num * other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return QuarterInt(-self.num)

    def __eq__(self, other):
        q = _quarters(other)
        return NotImplemented if q is None else self.num == q

    def __lt__(self, other):
        q = _quarters(other)
        return NotImplemented if q is None else self.num < q

    def __le__(self, other):
        q = _quarters(other)
        return NotImplemented if q is None else self.num <= q

    def __gt__(self, other):
        q = _quarters(other)
        return NotImplemented if q is None else self.num > q

    def __ge__(self, other):
        q = _quarters(other)
        return NotImplemented if q is None else self.num >= q

    def __hash__(self):
        # Equal to hash(Fraction(self.num, 4)), and so to hash(int) on whole
        # values, without importing fractions.
        h = abs(self.num) * _HASH_INV4 % _HASH_MODULUS
        return hash(h if self.num >= 0 else -h)

    @property
    def is_integer(self) -> bool:
        return self.num % 4 == 0

    def as_fraction(self):
        """The value as a ``fractions.Fraction``."""
        from fractions import Fraction

        return Fraction(self.num, 4)

    def as_decimal(self) -> str:
        """Exact decimal rendering; quarters terminate after two places."""
        whole, rem = divmod(abs(self.num), 4)
        sign = "-" if self.num < 0 else ""
        frac = {0: "", 1: ".25", 2: ".5", 3: ".75"}[rem]
        return f"{sign}{whole}{frac}"

    def to_dict(self) -> dict:
        return {"num": self.num, "den": 4}

    def __str__(self):
        return f"{self.num}/4"

    def __repr__(self):
        return f"QuarterInt({self.num})"


# The field types whose JSON form is the value itself, matched exactly.
_SCALARS = frozenset((int, str, bool, type(None)))


def plain(value):
    """The JSON form of one result field.

    Scalars and ``None`` stay as they are, a :class:`QuarterInt` becomes
    ``{num, den}``, tuples and lists become lists, dicts are mapped value by
    value, and anything else (a result record) gives its own ``to_dict()``.
    Dispatch is on exact types, so a record (a NamedTuple) is never taken
    for a plain tuple.
    """
    cls = type(value)
    if cls in _SCALARS:
        return value
    if cls is QuarterInt:
        return value.to_dict()
    if cls is tuple or cls is list:
        return [plain(v) for v in value]
    if cls is dict:
        return {key: plain(v) for key, v in value.items()}
    return value.to_dict()


def record_dict(record, extra: tuple[str, ...] = ()) -> dict:
    """The JSON form of a result record: each field in order, then each
    property named in ``extra``, all through :func:`plain`. A scalar field
    is copied without the call."""
    out = {}
    for name, value in zip(record._fields, record):
        out[name] = value if type(value) in _SCALARS else plain(value)
    for name in extra:
        out[name] = plain(getattr(record, name))
    return out


class VertexPartition(NamedTuple):
    """Vertex counts (closer to u, closer to v, equidistant) for an edge uv."""

    n_u: int
    n_v: int
    n_0: int


class EdgePartition(NamedTuple):
    """Edge counts (closer to u, closer to v, equidistant) for an edge uv.

    Edge-to-vertex distance is the smaller endpoint distance; the edge uv
    itself is equidistant by construction, so ``m_0 >= 1``.  A tuple, so it
    compares equal to the plain triple ``(m_u, m_v, m_0)``.
    """

    m_u: int
    m_v: int
    m_0: int


def _check_oriented_edge(g: Graph, e) -> tuple[int, int]:
    u, v = e
    if not g.has_edge(u, v):
        raise InvalidGraphError(f"({u}, {v}) is not an edge of the graph")
    return u, v


def vertex_partition(g: Graph, e) -> VertexPartition:
    """Classify every vertex by which endpoint of ``e`` it is closer to."""
    require_connected(g)
    u, v = _check_oriented_edge(g, e)
    du = bfs_distances(g, u)
    dv = bfs_distances(g, v)
    n_u = n_v = n_0 = 0
    for w in range(g.n):
        if du[w] < dv[w]:
            n_u += 1
        elif dv[w] < du[w]:
            n_v += 1
        else:
            n_0 += 1
    return VertexPartition(n_u, n_v, n_0)


def _edge_split(edges, du, dv) -> EdgePartition:
    m_u = m_v = m_0 = 0
    for x, y in edges:
        a, b = du[x], du[y]
        fu = a if a < b else b
        a, b = dv[x], dv[y]
        fv = a if a < b else b
        if fu < fv:
            m_u += 1
        elif fv < fu:
            m_v += 1
        else:
            m_0 += 1
    return EdgePartition(m_u, m_v, m_0)


def edge_partition(g: Graph, e) -> EdgePartition:
    """Classify every edge by which endpoint of ``e`` it is closer to."""
    require_connected(g)
    u, v = _check_oriented_edge(g, e)
    return _edge_split(g.edges, bfs_distances(g, u), bfs_distances(g, v))


def _bfs_analysis(g: Graph) -> tuple[list[EdgePartition], int, int]:
    """Edge partitions, Szeged and Wiener index of any connected graph.

    One all-pairs BFS; the general path, and the reference the cactus pass
    is tested against.
    """
    dist = all_bfs_distances(g)
    if -1 in dist[0]:
        raise DisconnectedError("graph is not connected")
    parts = []
    szeged_total = 0
    for u, v in g.edges:
        du, dv = dist[u], dist[v]
        parts.append(_edge_split(g.edges, du, dv))
        n_u = n_v = 0
        for a, b in zip(du, dv):
            if a < b:
                n_u += 1
            elif b < a:
                n_v += 1
        szeged_total += n_u * n_v
    return parts, szeged_total, sum(map(sum, dist)) // 2


def _analysis(g: Graph) -> _Distances:
    """The distance analysis of ``g``, run once and kept on it, here or by
    :func:`szegedtools.graphs.cactus_profile` on a cactus.

    Safe because a Graph never changes. Per edge only the gap and m_0 are
    kept: m_u and m_v follow from them, and full rows cost more memory on
    the many small graphs that enumeration caches. A kept profile that says
    ``g`` is no cactus spares the cactus DFS, which would only give up.
    """
    found = g._dist
    if found is None:
        profile = g._profile
        if profile is None or profile.is_cactus:
            found = _cactus_distances(g)
        if found is None:
            parts, szeged_total, wiener_total = _bfs_analysis(g)
            gaps = tuple(p.m_u - p.m_v for p in parts)
            found = _Distances(
                gaps,
                tuple(p.m_0 for p in parts),
                sum(gap * gap for gap in gaps),
                szeged_total,
                wiener_total,
                None,
            )
        object.__setattr__(g, "_dist", found)
    return found


def edge_partitions(g: Graph) -> list[EdgePartition]:
    """Edge partition for every edge of ``g``, in ``g.edges`` order.

    Rebuilt from the kept analysis: m_u = (m - m_0 + gap) / 2 and
    m_v = m_u - gap, in C-level maps with no Python call per edge; each
    record is made as ``EdgePartition._make`` makes it.
    """
    found = _analysis(g)
    gaps, zeros = found.gaps, found.zeros
    sides = map(sub, repeat(g.m), zeros)
    mus = list(map(floordiv, map(add, sides, gaps), repeat(2)))
    rows = zip(mus, map(sub, mus, gaps), zeros)
    return list(map(tuple.__new__, repeat(EdgePartition), rows))


def wiener(g: Graph) -> int:
    """Sum of distances over unordered vertex pairs."""
    return _analysis(g).wiener


def szeged(g: Graph) -> int:
    """Sum over edges of n_u * n_v (vertex-partition product)."""
    return _analysis(g).szeged


def edge_gaps(g: Graph) -> tuple[int, ...]:
    """The gap m_u - m_v of every edge uv of ``g``, in ``g.edges`` order.

    Read from the analysis kept on ``g``, as every index here is.
    """
    return _analysis(g).gaps


def edge_revised_szeged(g: Graph) -> QuarterInt:
    """Sum over edges of (m_u + m_0/2)(m_v + m_0/2), exactly.

    As m_u + m_v + m_0 = m, each edge gives m^2 - (m_u - m_v)^2 quarters.
    """
    return QuarterInt(g.m**3 - diff_square_sum(g))


def diff_square_sum(g: Graph) -> int:
    """Sum over edges of (m_u - m_v)^2, read from the kept analysis."""
    return _analysis(g).gap_squares
