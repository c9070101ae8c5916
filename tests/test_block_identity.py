"""The block identity: 4·Sz_e* = m³ − Σ ceil + Σ def over the blocks of a cactus.

The package computes 4·Sz_e* as m³ − Σ_e d_e², where d_e = m_u − m_v is the
gap of edge e = uv (``edge_gaps``).  Split the sum by blocks.

*Bridge.*  A bridge with s edges on one side and m − 1 − s on the other
has d² = (m − 1 − 2s)² = (m − 1)² − 4s(m − 1 − s).  So its ceiling is
(m − 1)², ``pendant_diff_bound(m)``, and its deficiency is
def = 4s(m − 1 − s).

*Ring.*  Take a ring of length L with vertices 0, …, L − 1 in order, and
let E_j be the number of edges in the branches at vertex j, so that
ΣE_j = T = m − L.  For a ring edge e = uv, a branch at j lies on u's side
when j is nearer u than v, on v's side when nearer v, and on neither when
j is the vertex opposite e in an odd ring.  The other ring edges cancel:
the reflection of the ring that swaps u and v takes those nearer u to
those nearer v.  So d_e = Σ_j σ_e(j)·E_j, with σ_e(j) = +1, −1 or 0, and
summing over the L ring edges gives a quadratic form that rotation leaves
unchanged, a circulant one:

    Σ_e d_e² = Σ_{a,b} E_a·E_b·C(b − a),   C(δ) = Σ_e σ_e(0)·σ_e(δ).

*C(0) = L − [L odd]*: σ_e(0)² is 1 except on the one edge opposite vertex
0 of an odd ring.  *C(δ) = L − 4·dist(δ) for δ ≠ 0*, with d = dist(δ) the
distance around the ring.  In an even ring, 0 and δ lie on opposite sides
of the d edges of the shorter path between them and of the d edges
opposite those, and on the same side of the other L − 2d.  In an odd ring,
each of them is opposite one edge, where its σ is 0; they lie on opposite
sides of the d edges of the shorter path and of the d − 1 edges between
the two opposite ones, and on the same side of the other L − 2d − 1, which
gives L − 4d again.  So, with ΣE_j² + 2Σ_{a<b}E_aE_b = T²,

    Σ_e d_e² = L·T² − [L odd]·ΣE_j² − 8·Σ_{a<b} E_a·E_b·dist(a, b),

which is (L − [L odd])·T², ``cycle_diff_bound(L, m)``, less

    def = Σ_{a<b} E_a·E_b·(8·dist(a, b) − 2·[L odd]).

*Deficiencies.*  Every def is at least 0: s and m − 1 − s are never
negative, and 8·dist − 2 > 0.  A bridge's def is 0 exactly when s is 0 or
m − 1, that is, when it is pendant; a ring's exactly when one vertex at
most carries branches, that is, when it is an end block.  So each edge's
gap is at most the pendant ceiling (Lemma 2.1), each ring's sum at most
its own (Lemmas 2.2 and 2.3), with equality exactly on end blocks, and
the index is at least m³ − Σ ceil, which depends only on the multiset of
blocks and is met exactly by its bundle (Lemma 3.1), at every size.

Each graph's ceilings and deficiencies are computed here, block by block,
from its cut edges and cycles, and the identity is checked against
``edge_revised_szeged``.
"""

import random

import pytest

import oracles
from szegedtools import (
    cactus_classes,
    cactus_profile,
    cycle_diff_bound,
    edge_revised_szeged,
    feasible_pairs,
    graph_from_edges,
    pendant_diff_bound,
    random_cactus,
)
from szegedtools.indices import QuarterInt


def _side(g, removed, start):
    """The number of edges reachable from ``start`` in ``g`` less the
    edges ``removed``."""
    seen = {start}
    stack = [start]
    ends = 0
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if (min(u, w), max(u, w)) in removed:
                continue
            ends += 1
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return ends // 2


def _ring_order(edge_set):
    """The vertices of a cycle, given by its edges, in order around it."""
    nbrs = {}
    for u, v in edge_set:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    start = min(nbrs)
    order = [start, nbrs[start][0]]
    while len(order) < len(nbrs):
        a, b = nbrs[order[-1]]
        order.append(a if a != order[-2] else b)
    return order


def blocks(g):
    """``(kind, ceil, def, end)`` for each block of cactus ``g``: bridges
    first, then cycles in ``cactus_profile`` order; ``end`` says whether
    the block is pendant (a bridge) or an end block (a cycle)."""
    m = len(g.edges)
    profile = cactus_profile(g)
    out = []
    for e in sorted(profile.bridges):
        s = _side(g, {e}, e[0])
        pendant = min(len(g.adj[e[0]]), len(g.adj[e[1]])) == 1
        out.append(("bridge", pendant_diff_bound(m), 4 * s * (m - 1 - s), pendant))
    for edge_set, end in zip(profile.cycle_edge_sets, profile.end_block_flags):
        order = _ring_order(edge_set)
        L = len(order)
        loads = [_side(g, edge_set, v) for v in order]
        deficit = 0
        for a in range(L):
            for b in range(a + 1, L):
                dist = min(b - a, L - (b - a))
                deficit += loads[a] * loads[b] * (8 * dist - 2 * (L % 2))
        out.append(("ring", cycle_diff_bound(L, m), deficit, end))
    return out


def block_identity(g):
    """m³ − Σ ceil + Σ def over the blocks of ``g``, in quarters."""
    parts = blocks(g)
    m = len(g.edges)
    return QuarterInt(m**3 - sum(p[1] for p in parts) + sum(p[2] for p in parts))


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _draws():
    # random_cactus, then a sampler that hangs a pendant edge or a ring by a
    # fair coin: random_cactus almost never draws a bridge at large k.
    rng = random.Random(12)
    sizes = [rng.randint(3, 200) for _ in range(24)] + [200, 200]
    for n in sizes:
        k = rng.randint(0, (n - 1) // 2)
        yield _relabeled(random_cactus(n, k, seed=rng.randrange(2**32)), rng)
    for n in sizes:
        k = rng.randint(0, (n - 1) // 2)
        g = graph_from_edges(n, oracles.cactus_with_bridges(rng, n, k))
        yield _relabeled(g, rng)


def test_identity_on_every_class_through_n10():
    count = 0
    for n, k in feasible_pairs(10):
        for g in cactus_classes(n, k):
            assert block_identity(g) == edge_revised_szeged(g), (n, k, g.edges)
            count += 1
    assert count == 2866


def test_identity_on_relabeled_draws_up_to_n200():
    draws = list(_draws())
    assert max(g.n for g in draws) == 200
    # Bridges at k = m - n + 1 >= n / 5, which random_cactus almost never draws.
    big_k = [g for g in draws if 5 * (g.m - g.n + 1) >= g.n]
    assert sum(bool(cactus_profile(g).bridges) for g in big_k) >= 5
    for g in draws:
        assert block_identity(g) == edge_revised_szeged(g), g.edges


def _sigma(L, i, j):
    """σ_e(j) for the ring edge e from vertex i to i + 1: +1 when vertex j
    is nearer i, −1 when nearer i + 1, 0 when equidistant."""

    def dist(a, b):
        return min((a - b) % L, (b - a) % L)

    near, far = dist(j, i), dist(j, (i + 1) % L)
    return (near < far) - (far < near)


@pytest.mark.parametrize("L", range(3, 61))
def test_circulant_coefficients(L):
    for delta in range(L):
        direct = sum(_sigma(L, e, 0) * _sigma(L, e, delta) for e in range(L))
        if delta == 0:
            assert direct == L - L % 2
        else:
            assert direct == L - 4 * min(delta, L - delta), delta


def test_deficiency_is_zero_exactly_on_end_blocks():
    graphs = [g for n, k in feasible_pairs(9) for g in cactus_classes(n, k)]
    kinds = set()
    for g in [*graphs, *_draws()]:
        for kind, _, deficit, end in blocks(g):
            assert deficit >= 0
            assert (deficit == 0) == end, (kind, g.edges)
            kinds.add((kind, end))
    assert kinds == {(kind, end) for kind in ("bridge", "ring") for end in (0, 1)}
