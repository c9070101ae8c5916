"""Exact quarter-integer arithmetic and the distance-based indices."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import samples
from spies import count_calls_on
from szegedtools import (
    DisconnectedError,
    Graph,
    QuarterInt,
    cactus_classes,
    cactus_profile,
    diff_square_sum,
    edge_partition,
    edge_partitions,
    edge_revised_szeged,
    graph_from_edges,
    random_cactus,
    szeged,
    vertex_partition,
    wiener,
)
from szegedtools import graphs, indices
from szegedtools.indices import edge_gaps


class TestQuarterInt:
    def test_construction_and_str(self):
        assert str(QuarterInt(53)) == "53/4"
        assert str(QuarterInt(-3)) == "-3/4"
        assert QuarterInt.from_int(7) == QuarterInt(28)

    def test_rejects_non_integer_numerator(self):
        with pytest.raises(TypeError):
            QuarterInt(1.5)

    def test_arithmetic(self):
        a = QuarterInt(5)
        b = QuarterInt(3)
        assert a + b == QuarterInt(8)
        assert a - b == QuarterInt(2)
        assert -a == QuarterInt(-5)
        assert a * 3 == QuarterInt(15)
        assert 3 * a == QuarterInt(15)
        # ints coerce on either side of + and -
        assert a + 1 == QuarterInt(9)
        assert 1 + a == QuarterInt(9)
        assert a - 1 == QuarterInt(1)
        assert 1 - QuarterInt(2) == QuarterInt(2)

    def test_other_operand_types_are_refused(self):
        with pytest.raises(TypeError):
            QuarterInt(4) * 1.5
        with pytest.raises(TypeError):
            QuarterInt(4) + 1.5
        with pytest.raises(TypeError):
            1.5 - QuarterInt(4)
        with pytest.raises(TypeError):
            QuarterInt(4) < "1"
        assert QuarterInt(4) != "1"

    def test_immutable_with_a_repr(self):
        q = QuarterInt(5)
        with pytest.raises(AttributeError, match="QuarterInt is immutable"):
            q.num = 6
        assert q.num == 5
        assert repr(q) == "QuarterInt(5)"

    def test_comparisons(self):
        assert QuarterInt(5) < QuarterInt(6)
        assert QuarterInt(8) <= QuarterInt(8)
        assert QuarterInt(9) > 2
        assert QuarterInt(8) == 2
        assert 2 == QuarterInt(8)
        assert QuarterInt(7) != 2
        assert sorted([QuarterInt(9), QuarterInt(1), QuarterInt(4)]) == [
            QuarterInt(1),
            QuarterInt(4),
            QuarterInt(9),
        ]

    def test_hash_consistent_with_fraction(self):
        assert hash(QuarterInt(8)) == hash(2)
        assert hash(QuarterInt(5)) == hash(Fraction(5, 4))
        assert len({QuarterInt(8), QuarterInt(8), 2}) == 1

    def test_hash_equals_fraction_hash(self):
        # Computed from sys.hash_info.modulus, without fractions; checked
        # on small values and around the 61-bit modulus and 2**64.
        nums = list(range(-1000, 1001))
        for big in (2**61, 2**64):
            nums += [s * (big + d) for s in (1, -1) for d in range(-8, 9)]
        for num in nums:
            assert hash(QuarterInt(num)) == hash(Fraction(num, 4)), num

    def test_is_integer(self):
        assert QuarterInt(8).is_integer
        assert QuarterInt(0).is_integer
        assert not QuarterInt(5).is_integer
        assert not QuarterInt(-2).is_integer

    def test_as_fraction(self):
        assert QuarterInt(5).as_fraction() == Fraction(5, 4)
        assert QuarterInt(-8).as_fraction() == Fraction(-2)

    def test_as_decimal_is_exact_string(self):
        assert QuarterInt(53).as_decimal() == "13.25"
        assert QuarterInt(8).as_decimal() == "2"
        assert QuarterInt(6).as_decimal() == "1.5"
        assert QuarterInt(7).as_decimal() == "1.75"
        assert QuarterInt(-5).as_decimal() == "-1.25"
        assert QuarterInt(0).as_decimal() == "0"
        # exact even far beyond float precision
        huge = 4 * 10**40 + 1
        assert QuarterInt(huge).as_decimal() == "1" + "0" * 40 + ".25"

    def test_to_dict(self):
        assert QuarterInt(53).to_dict() == {"num": 53, "den": 4}


GOLDEN = [
    # (factory, numerator of Sz*e in quarters, wiener, szeged)
    (samples.k3, 27, 3, 3),
    (samples.c4, 64, 8, 16),
    (samples.c5, 125, 15, 20),
    (samples.paw, 53, 8, 8),
    (samples.butterfly, 180, 14, 14),
    (lambda: graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), 28, 16, 16),
    (lambda: graph_from_edges(2, [(0, 1)]), 1, 1, 1),
]


class TestGoldenValues:
    @pytest.mark.parametrize("factory, quarters, w, sz", GOLDEN)
    def test_frozen_constants(self, factory, quarters, w, sz):
        g = factory()
        assert edge_revised_szeged(g) == QuarterInt(quarters)
        assert wiener(g) == w
        assert szeged(g) == sz

    @pytest.mark.parametrize("factory, quarters, w, sz", GOLDEN)
    def test_against_oracle(self, factory, quarters, w, sz):
        g = factory()
        assert edge_revised_szeged(g).as_fraction() == oracles.edge_revised_szeged(
            g.n, g.edges
        )
        assert wiener(g) == oracles.wiener(g.n, g.edges)
        assert szeged(g) == oracles.szeged(g.n, g.edges)


class TestPartitions:
    def test_paw_pendant_edge(self):
        g = samples.paw()
        part = edge_partition(g, (0, 3))
        assert (part.m_u, part.m_v, part.m_0) == (3, 0, 1)

    def test_focal_edge_counts_as_equidistant(self):
        g = samples.k3()
        for e in g.edges:
            part = edge_partition(g, e)
            assert part.m_0 >= 1
            assert part.m_u + part.m_v + part.m_0 == g.m

    def test_vertex_partition_c5(self):
        g = samples.c5()
        part = vertex_partition(g, (0, 1))
        assert (part.n_u, part.n_v, part.n_0) == (2, 2, 1)

    def test_edge_partitions_order_matches_edges(self):
        g = samples.butterfly()
        parts = edge_partitions(g)
        assert len(parts) == g.m
        for e, part in zip(g.edges, parts):
            assert part == edge_partition(g, e)

    def test_partitions_match_oracle_on_random_graphs(self):
        rng = random.Random(90125)
        for _ in range(25):
            n = rng.randint(2, 9)
            edges = oracles.random_graph_edges(rng, n)
            g = graph_from_edges(n, edges)
            for e in g.edges:
                vp = vertex_partition(g, e)
                assert (vp.n_u, vp.n_v, vp.n_0) == oracles.vertex_partition(
                    n, edges, e
                )
                ep = edge_partition(g, e)
                assert (ep.m_u, ep.m_v, ep.m_0) == oracles.edge_partition(
                    n, edges, e
                )

    def test_unknown_edge_rejected(self):
        g = samples.c4()
        with pytest.raises(Exception):
            edge_partition(g, (0, 2))


class TestIndicesOnRandomGraphs:
    def test_indices_match_oracle(self):
        rng = random.Random(5150)
        for _ in range(25):
            n = rng.randint(2, 9)
            edges = oracles.random_graph_edges(rng, n)
            g = graph_from_edges(n, edges)
            assert wiener(g) == oracles.wiener(n, edges)
            assert szeged(g) == oracles.szeged(n, edges)
            assert edge_revised_szeged(g).as_fraction() == (
                oracles.edge_revised_szeged(n, edges)
            )
            assert diff_square_sum(g) == oracles.diff_square_sum(n, edges)

    def test_cube_identity(self):
        # 4 * Sz*e == m^3 - sum of squared partition gaps, on any graph
        rng = random.Random(2112)
        for _ in range(25):
            n = rng.randint(2, 9)
            edges = oracles.random_graph_edges(rng, n)
            g = graph_from_edges(n, edges)
            lhs = edge_revised_szeged(g) * 4
            assert lhs == QuarterInt(4 * (g.m**3 - diff_square_sum(g)))


class TestDisconnectedInputs:
    def test_indices_raise(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        for fn in (edge_revised_szeged, wiener, szeged, diff_square_sum):
            with pytest.raises(DisconnectedError):
                fn(g)

    def test_partition_raises(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedError):
            vertex_partition(g, (0, 1))
        with pytest.raises(DisconnectedError):
            edge_partition(g, (0, 1))


def _relabel(g, perm):
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _assert_matches_bfs_path(g):
    # A fresh copy, so no analysis kept by earlier tests stands in for the pass.
    g = Graph(g.n, g.edges)
    want, want_szeged, want_wiener = indices._bfs_analysis(g)
    assert edge_partitions(g) == want
    assert edge_gaps(g) == tuple(p.m_u - p.m_v for p in want)
    assert diff_square_sum(g) == sum((p.m_u - p.m_v) ** 2 for p in want)
    assert szeged(g) == want_szeged
    assert wiener(g) == want_wiener


class TestCactusPass:
    """The one-DFS pass on cacti against the all-pairs BFS path."""

    def test_every_class_through_n9(self):
        count = 0
        for n in range(1, 10):
            for k in range((n - 1) // 2 + 1):
                for g in cactus_classes(n, k):
                    assert graphs._cactus_distances(g) is not None
                    _assert_matches_bfs_path(g)
                    count += 1
        assert count == 887

    def test_random_cacti_through_n200(self):
        rng = random.Random(7071)
        for _ in range(300):
            n = rng.randint(1, 200)
            g = random_cactus(n, rng.randint(0, (n - 1) // 2), seed=rng.randrange(2**63))
            perm = list(range(n))
            rng.shuffle(perm)
            _assert_matches_bfs_path(_relabel(g, perm))

    def test_long_cycles(self):
        # Even and odd rings: m_0 is 2, or 1 plus the opposite branch.
        for n in (4, 5, 10, 11):
            g = graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])
            h = n // 2
            want = (h - 1, h - 1, 2) if n % 2 == 0 else (h, h, 1)
            assert {(p.m_u, p.m_v, p.m_0) for p in edge_partitions(g)} == {want}
            _assert_matches_bfs_path(g)

    # The ring pass slides one window of branches around each ring; these
    # shapes make every slip of that window change some edge's counts.

    def test_branched_ring_of_every_length(self):
        # Both parities, windows that wrap past ring[0], and for odd L an
        # opposite branch with edges of its own (m_0 = 1 + E_opp > 1).
        rng = random.Random(4141)
        for size in range(3, 42):
            edges = [(i, (i + 1) % size) for i in range(size)]
            n = size
            for at in range(size):
                branch_n = rng.randint(1, 6)
                branch_k = rng.randint(0, (branch_n - 1) // 2)
                branch = random_cactus(branch_n, branch_k, seed=rng.randrange(2**32))
                # The branch's vertex 0 is the ring vertex; the rest are new.
                place = [at, *range(n, n + branch_n - 1)]
                edges += [(place[u], place[v]) for u, v in branch.edges]
                n += branch_n - 1
            perm = list(range(n))
            rng.shuffle(perm)
            _assert_matches_bfs_path(graph_from_edges(n, edges))
            _assert_matches_bfs_path(
                graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges])
            )

    @pytest.mark.parametrize("long_rings", [(242,), (64, 181)])
    def test_many_triangles_and_long_rings(self, long_rings):
        # The shape of the index benchmark's inputs at n = 400: k = n / 5
        # cycles, no cut edges, the spare budget in one or two long rings,
        # every cycle hung at a random vertex.
        rng = random.Random(sum(long_rings))
        sizes = [3] * (80 - len(long_rings)) + list(long_rings)
        rng.shuffle(sizes)
        edges = []
        n = 1
        for size in sizes:
            edges += graphs._leaf_block(rng.randrange(n), n, size - 1)
            n += size - 1
        assert (n, len(edges)) == (400, 479)
        perm = list(range(n))
        rng.shuffle(perm)
        g = graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges])
        assert not cactus_profile(g).bridges
        _assert_matches_bfs_path(g)

    @pytest.mark.parametrize("size", [3, 4, 7, 8, 9, 10])
    def test_ring_with_a_different_branch_at_every_vertex(self, size):
        # Ring vertex i carries a path of i vertices and, from i = 2 on, a
        # triangle at the path's end, so the vertex and edge counts of the
        # branches all differ and a window one place off moves every sum.
        edges = [(i, (i + 1) % size) for i in range(size)]
        n = size
        for at in range(size):
            last = at
            for _ in range(at):
                edges.append((last, n))
                last, n = n, n + 1
            if at >= 2:
                edges += [(last, n), (n, n + 1), (last, n + 1)]
                n += 2
        _assert_matches_bfs_path(graph_from_edges(n, edges))

    @pytest.mark.parametrize("factory", [samples.k4, samples.diamond])
    def test_non_cactus_takes_the_bfs_path(self, factory):
        g = factory()
        assert graphs._cactus_distances(g) is None
        assert [(p.m_u, p.m_v, p.m_0) for p in edge_partitions(g)] == [
            oracles.edge_partition(g.n, g.edges, e) for e in g.edges
        ]
        assert szeged(g) == oracles.szeged(g.n, g.edges)
        assert wiener(g) == oracles.wiener(g.n, g.edges)
        assert diff_square_sum(g) == oracles.diff_square_sum(g.n, g.edges)

    @pytest.mark.parametrize(
        "n, edges",
        [
            # a cactus forest: the pass itself finds the second component
            (5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
            # a non-cactus plus an isolated vertex: the BFS path finds it
            (5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        ],
    )
    def test_disconnected_input_raises(self, n, edges):
        for fn in (edge_partitions, edge_gaps, szeged, wiener, edge_revised_szeged):
            with pytest.raises(DisconnectedError):
                fn(graph_from_edges(n, edges))


INDEX_FUNCTIONS = (
    edge_partitions,
    edge_gaps,
    diff_square_sum,
    edge_revised_szeged,
    szeged,
    wiener,
)


def _call_all_repeatedly(g, first, seed):
    """Call ``first`` on ``g``, then every index function three times in a
    shuffled order; each call must give the value the first one gave."""
    order = list(INDEX_FUNCTIONS) * 3
    random.Random(seed).shuffle(order)
    seen = {}
    for fn in [first] + order:
        seen.setdefault(fn, fn(g))
        assert fn(g) == seen[fn]
    return seen


class TestOneAnalysisPerGraph:
    """Every index reads one distance analysis, kept on the Graph."""

    @pytest.mark.parametrize("first", INDEX_FUNCTIONS, ids=lambda fn: fn.__name__)
    def test_cactus_runs_the_pass_once(self, monkeypatch, first):
        # A triangle and a quadrangle joined by a path, with pendants.
        g = graph_from_edges(
            9,
            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
             (4, 7), (5, 8)],
        )
        passes = count_calls_on(monkeypatch, graphs._cactus_distances, g)
        bfs = count_calls_on(monkeypatch, graphs.all_bfs_distances, g)
        seen = _call_all_repeatedly(g, first, seed=INDEX_FUNCTIONS.index(first))
        assert (len(passes), len(bfs)) == (1, 0)
        assert seen[diff_square_sum] == oracles.diff_square_sum(g.n, g.edges)
        assert seen[szeged] == oracles.szeged(g.n, g.edges)
        assert seen[wiener] == oracles.wiener(g.n, g.edges)

    @pytest.mark.parametrize("factory", [samples.k4, samples.diamond])
    @pytest.mark.parametrize("first", INDEX_FUNCTIONS, ids=lambda fn: fn.__name__)
    def test_non_cactus_runs_one_all_pairs_bfs(self, monkeypatch, factory, first):
        g = factory()
        passes = count_calls_on(monkeypatch, graphs._cactus_distances, g)
        bfs = count_calls_on(monkeypatch, graphs.all_bfs_distances, g)
        seen = _call_all_repeatedly(g, first, seed=INDEX_FUNCTIONS.index(first))
        assert (len(passes), len(bfs)) == (1, 1)
        n, edges = g.n, g.edges
        assert [(p.m_u, p.m_v, p.m_0) for p in seen[edge_partitions]] == [
            oracles.edge_partition(n, edges, e) for e in edges
        ]
        assert seen[diff_square_sum] == oracles.diff_square_sum(n, edges)
        assert seen[edge_revised_szeged].as_fraction() == oracles.edge_revised_szeged(
            n, edges
        )
        assert (seen[szeged], seen[wiener]) == (
            oracles.szeged(n, edges),
            oracles.wiener(n, edges),
        )

    def test_edge_partitions_returns_a_fresh_list(self):
        g = samples.butterfly()
        parts = edge_partitions(g)
        parts.clear()
        assert len(edge_partitions(g)) == g.m
        assert edge_partitions(g) is not edge_partitions(g)


@st.composite
def relabeled_cactus(draw, max_n):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, (n - 1) // 2))
    g = random_cactus(n, k, seed=draw(st.integers(0, 2**32)))
    return g, draw(st.permutations(range(n)))


def _profile_shape(profile):
    return sorted(zip(map(len, profile.cycle_edge_sets), profile.end_block_flags))


class TestCactusPassProperties:
    @settings(max_examples=60, deadline=None)
    @given(relabeled_cactus(40))
    def test_relabeling_preserves_every_value(self, case):
        g, perm = case
        h = _relabel(g, perm)
        assert edge_revised_szeged(h) == edge_revised_szeged(g)
        assert (szeged(h), wiener(h)) == (szeged(g), wiener(g))
        # The profile read off the same pass: the multiset of (cycle length,
        # end-block flag) pairs and the bridge count.
        got, want = cactus_profile(h), cactus_profile(g)
        assert got.is_cactus and want.is_cactus
        assert _profile_shape(got) == _profile_shape(want)
        assert len(got.bridges) == len(want.bridges)
        parts_h = dict(zip(h.edges, edge_partitions(h)))
        for (u, v), p in zip(g.edges, edge_partitions(g)):
            a, b = perm[u], perm[v]
            q = parts_h[(a, b) if a < b else (b, a)]
            assert (q.m_u, q.m_v, q.m_0) == (
                (p.m_u, p.m_v, p.m_0) if a < b else (p.m_v, p.m_u, p.m_0)
            )

    @settings(max_examples=40, deadline=None)
    @given(relabeled_cactus(12))
    def test_cube_identity_against_oracle(self, case):
        g, perm = case
        g = _relabel(g, perm)
        gaps = [p.m_u - p.m_v for p in edge_partitions(g)]
        four_sz = 4 * oracles.edge_revised_szeged(g.n, g.edges)
        assert four_sz == g.m**3 - sum(d * d for d in gaps)
        assert edge_revised_szeged(g).as_fraction() == four_sz / 4
