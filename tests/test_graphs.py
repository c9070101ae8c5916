"""Graph construction, connectivity, blocks, bridges, and cactus structure."""

import copy
import pickle
import random
from collections import Counter

import networkx as nx
import pytest

import oracles
import samples
from spies import count_calls_on
from szegedtools import (
    DisconnectedError,
    Graph,
    InvalidGraphError,
    block_decomposition,
    cactus_classes,
    cactus_profile,
    cut_edges,
    cycle,
    edge_revised_szeged,
    emit_graph6,
    graph_from_edges,
    is_cactus,
    is_connected,
    path,
    random_cactus,
    star,
    szeged,
)
from szegedtools import graphs
from szegedtools.indices import edge_gaps


class TestConstruction:
    def test_accessors(self):
        g = samples.paw()
        assert g.n == 4
        assert g.m == 4
        assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2))
        assert g.edge_set == frozenset({(0, 1), (0, 2), (0, 3), (1, 2)})
        assert g.has_edge(0, 3) and g.has_edge(3, 0)
        assert not g.has_edge(1, 3)
        assert g.neighbors(0) == (1, 2, 3)
        assert g.degree(0) == 3 and g.degree(3) == 1

    def test_hash_and_repr(self):
        g = samples.paw()
        assert hash(g) == hash(samples.paw()._relabeled([0, 1, 2, 3]))
        assert len({g, samples.paw(), samples.paw()._relabeled([3, 2, 1, 0])}) == 2
        assert repr(g) == "Graph(n=4, m=4)"

    def test_single_vertex(self):
        g = graph_from_edges(1, [])
        assert (g.n, g.m) == (1, 0)
        assert is_connected(g)

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(InvalidGraphError):
            graph_from_edges(0, [])

    def test_rejects_loop(self):
        with pytest.raises(InvalidGraphError):
            graph_from_edges(3, [(0, 0)])

    def test_rejects_duplicate_edge_either_orientation(self):
        with pytest.raises(InvalidGraphError):
            graph_from_edges(3, [(0, 1), (0, 1)])
        with pytest.raises(InvalidGraphError):
            graph_from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(InvalidGraphError):
            graph_from_edges(3, [(0, 3)])

    def test_adjacency_is_sorted_whatever_the_edge_order(self):
        # Adjacency is built from the sorted edge list without sorting each
        # neighbour list; shuffled input in both endpoint orders must still
        # give sorted neighbours.
        rng = random.Random(2024)
        for _ in range(2000):
            n = rng.randint(1, 15)
            all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
            p = rng.random()
            edges = [e for e in all_edges if rng.random() < p]
            edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
            rng.shuffle(edges)
            g = graph_from_edges(n, edges)
            for v in range(n):
                want = sorted(b if a == v else a for a, b in edges if v in (a, b))
                assert g.adj[v] == tuple(want)

    def test_relabeled_equals_the_validated_build(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randint(1, 12)
            p = rng.random()
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            ]
            perm = list(range(n))
            rng.shuffle(perm)
            image = graph_from_edges(n, edges)._relabeled(perm)
            want = graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges])
            assert image.n == n
            assert image.edges == want.edges
            assert image.adj == want.adj
            assert image.edge_set == want.edge_set
            assert (image._cert, image._profile, image._dist) == (None, None, None)


def _is_set(g, name):
    """Whether ``name`` is kept on ``g``, checked without building it."""
    return name in vars(g)


# The facts a Graph keeps once computed.
FACTS = ("_cert", "_g6", "_profile", "_dist", "_orbits")


def _random_images(seed, count):
    """(validated build, unfilled image) pairs of random labeled graphs."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 10)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        perm = list(range(n))
        rng.shuffle(perm)
        want = graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges])
        yield want, graph_from_edges(n, edges)._relabeled(perm)


FIRST_READS = {
    "adj": lambda g: g.adj,
    "edge_set": lambda g: g.edge_set,
    "degree": lambda g: [g.degree(v) for v in range(g.n)],
    "neighbors": lambda g: [g.neighbors(v) for v in range(g.n)],
    "has_edge": lambda g: [g.has_edge(u, v) for u in range(g.n) for v in range(g.n)],
}


ROUND_TRIPS = [
    copy.copy,
    copy.deepcopy,
    lambda g: pickle.loads(pickle.dumps(g)),
]


class TestDeferredAdjacency:
    def test_validated_build_sets_adjacency_before_any_read(self):
        g = samples.paw()
        assert type(g) is Graph
        assert _is_set(g, "adj") and _is_set(g, "edge_set")

    def test_image_sets_adjacency_on_first_read(self):
        image = samples.paw()._relabeled([3, 2, 1, 0])
        assert not _is_set(image, "adj") and not _is_set(image, "edge_set")
        # n, m and edges leave the adjacency unbuilt.
        assert (image.n, image.m) == (4, 4)
        assert image.edges == ((0, 3), (1, 2), (1, 3), (2, 3))
        assert not _is_set(image, "adj")
        assert image.adj == ((3,), (2, 3), (1, 3), (0, 1, 2))
        assert _is_set(image, "adj") and not _is_set(image, "edge_set")
        assert image.adj is image.adj
        assert image.edge_set == frozenset(image.edges)
        assert _is_set(image, "edge_set")
        assert type(image) is Graph

    @pytest.mark.parametrize("first", sorted(FIRST_READS))
    def test_first_read_matches_the_validated_build(self, first):
        read = FIRST_READS[first]
        for want, image in _random_images(11, 200):
            assert read(image) == read(want)
            assert (image.adj, image.edge_set) == (want.adj, want.edge_set)

    def test_class_attribute_is_the_descriptor(self):
        assert Graph.adj is vars(Graph)["adj"]
        assert Graph.edge_set is vars(Graph)["edge_set"]

    def test_unknown_attribute_raises(self):
        image = samples.paw()._relabeled([1, 0, 2, 3])
        for g in (samples.paw(), image):
            with pytest.raises(AttributeError, match="no attribute 'colour'"):
                g.colour
            assert not hasattr(g, "colour")
        # Only adj and edge_set build the adjacency.
        assert not _is_set(image, "adj")

    def test_graph_is_still_immutable(self):
        for g in (samples.paw(), samples.paw()._relabeled([1, 0, 2, 3])):
            with pytest.raises(AttributeError):
                g.adj = ()
            with pytest.raises(AttributeError):
                g.colour = "red"

    @pytest.mark.parametrize("round_trip", ROUND_TRIPS)
    def test_copy_and_pickle_round_trip(self, round_trip):
        for want, image in _random_images(14, 50):
            for g in (want, image):
                back = round_trip(g)
                assert type(back) is Graph
                assert back == want
                assert _is_set(back, "adj") and _is_set(back, "edge_set")
                assert back.adj == want.adj and back.edge_set == want.edge_set
            # The image round-tripped without building its own adjacency.
            assert not _is_set(image, "adj")


class TestLeafBlock:
    @pytest.mark.parametrize("size", range(1, 7))
    @pytest.mark.parametrize("at, first", [(0, 1), (2, 5), (4, 9)])
    def test_pendant_edge_or_cycle_through_at(self, at, first, size):
        block = graphs._leaf_block(at, first, size)
        assert all(u < v for u, v in block)
        assert len(set(block)) == len(block)
        assert {x for e in block for x in e} == {at, *range(first, first + size)}
        shape = nx.path_graph(2) if size == 1 else nx.cycle_graph(size + 1)
        assert nx.is_isomorphic(nx.Graph(block), shape)


class TestDeferredCaches:
    """An image's kept facts: read as ``None`` until written, and kept when
    the adjacency is built later."""

    def test_cache_read_before_the_adjacency_builds_nothing(self):
        image = samples.paw()._relabeled([3, 2, 1, 0])
        for name in FACTS:
            assert getattr(image, name) is None
            assert not _is_set(image, name)
        assert vars(image) == {}

    @pytest.mark.parametrize("name", FACTS)
    def test_cache_set_before_the_switch_survives_it(self, name):
        image = samples.paw()._relabeled([3, 2, 1, 0])
        kept = object()
        object.__setattr__(image, name, kept)
        assert getattr(image, name) is kept
        assert image.edge_set == samples.paw()._relabeled([3, 2, 1, 0]).edge_set
        assert image.adj == samples.paw()._relabeled([3, 2, 1, 0]).adj
        assert getattr(image, name) is kept
        for other in FACTS:
            if other != name:
                assert not _is_set(image, other) and getattr(image, other) is None

    def test_graph6_kept_before_the_switch(self):
        for want, image in _random_images(12, 100):
            text = emit_graph6(image)
            assert not _is_set(image, "adj") and _is_set(image, "_g6")
            assert image.adj == want.adj
            assert image._g6 == text == emit_graph6(want)

    @pytest.mark.parametrize("round_trip", ROUND_TRIPS)
    def test_round_trip_of_an_image_with_a_cache_set(self, round_trip):
        for want, image in _random_images(15, 50):
            text = emit_graph6(image)
            back = round_trip(image)
            assert type(back) is Graph and back == want
            assert (back.adj, back.edge_set) == (want.adj, want.edge_set)
            assert emit_graph6(back) == text
            # The copy is rebuilt from n and edges; the image stays as it was.
            assert not _is_set(image, "adj") and image._g6 == text

    @pytest.mark.parametrize("round_trip", ROUND_TRIPS)
    def test_round_trip_keeps_only_the_small_facts(self, round_trip):
        # The certificate, graph6 and symmetries travel; the profile and
        # the distance analysis are rebuilt when read.
        g = cactus_classes(7, 2)[5]
        cactus_profile(g)
        edge_revised_szeged(g)
        back = round_trip(g)
        for name in graphs._KEPT:
            assert getattr(g, name) is not None
            assert getattr(back, name) == getattr(g, name)
        assert (back._profile, back._dist) == (None, None)
        assert cactus_profile(back) == cactus_profile(g)


class TestConnectivity:
    def test_known(self):
        assert is_connected(samples.butterfly())
        assert not is_connected(graph_from_edges(4, [(0, 1), (2, 3)]))
        assert not is_connected(graph_from_edges(3, [(0, 1)]))

    def test_bfs_source_out_of_range(self):
        g = samples.paw()
        with pytest.raises(InvalidGraphError, match="source 4 out of range"):
            graphs.bfs_distances(g, g.n)

    def test_matches_oracle_on_random_edge_subsets(self):
        rng = random.Random(1984)
        for _ in range(40):
            n = rng.randint(2, 8)
            all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [e for e in all_edges if rng.random() < 0.35]
            g = graph_from_edges(n, edges)
            assert is_connected(g) == oracles.is_connected(n, edges)


class TestBlocksAndBridges:
    def test_paw(self):
        bd = block_decomposition(samples.paw())
        got = {(kind, frozenset(block)) for kind, block in zip(bd.kinds, bd.blocks)}
        assert got == {
            ("cycle", frozenset({(0, 1), (0, 2), (1, 2)})),
            ("edge", frozenset({(0, 3)})),
        }
        assert bd.bridges == frozenset({(0, 3)})

    def test_two_triangles_bridge(self):
        bd = block_decomposition(samples.two_triangles_bridge())
        assert sorted(bd.kinds) == ["cycle", "cycle", "edge"]
        assert bd.bridges == frozenset({(0, 3)})

    def test_butterfly_has_no_bridges(self):
        assert cut_edges(samples.butterfly()) == frozenset()

    def test_cut_edges_match_oracle(self):
        rng = random.Random(777)
        for _ in range(25):
            n = rng.randint(2, 8)
            edges = oracles.random_graph_edges(rng, n)
            g = graph_from_edges(n, edges)
            assert cut_edges(g) == frozenset(oracles.bridges(n, edges))

    def test_bridges_match_networkx(self):
        rng = random.Random(4242)
        for _ in range(25):
            n = rng.randint(2, 9)
            edges = oracles.random_graph_edges(rng, n)
            g = graph_from_edges(n, edges)
            h = nx.Graph(edges)
            h.add_nodes_from(range(n))
            want = {(min(u, v), max(u, v)) for u, v in nx.bridges(h)}
            assert cut_edges(g) == frozenset(want)

    def test_blocks_match_networkx(self):
        rng = random.Random(31337)
        for _ in range(25):
            n = rng.randint(2, 9)
            edges = oracles.random_graph_edges(rng, n)
            g = graph_from_edges(n, edges)
            bd = block_decomposition(g)
            got = {frozenset(b) for b in bd.blocks}
            h = nx.Graph(edges)
            h.add_nodes_from(range(n))
            want = {
                frozenset((min(u, v), max(u, v)) for u, v in comp)
                for comp in nx.biconnected_component_edges(h)
            }
            assert got == want

    def test_kinds_match_the_degree_definition(self):
        # A block of two or more edges is a cycle exactly when every one of
        # its vertices meets two of its edges.
        rng = random.Random(2000)
        seen = set()
        for _ in range(300):
            n = rng.randint(2, 12)
            edges = oracles.random_graph_edges(rng, n, extra=rng.random())
            bd = block_decomposition(graph_from_edges(n, edges))
            for block, kind in zip(bd.blocks, bd.kinds):
                ends = Counter(v for e in block for v in e)
                want = (
                    "edge"
                    if len(block) == 1
                    else "cycle" if set(ends.values()) == {2} else "other"
                )
                assert kind == want, sorted(block)
                seen.add(kind)
        assert seen == {"edge", "cycle", "other"}

    def test_kind_is_cycle_only_for_cycle_blocks(self):
        # in K4 the single block has more edges than vertices, so it is
        # two-connected but not a cycle
        bd = block_decomposition(samples.k4())
        assert len(bd.blocks) == 1
        assert bd.kinds[0] not in ("cycle", "edge")

    def test_disconnected_rejected(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedError):
            block_decomposition(g)
        with pytest.raises(DisconnectedError):
            cut_edges(g)


class TestCactusRecognition:
    def test_known_positive(self):
        for factory in (
            samples.k3,
            samples.c4,
            samples.paw,
            samples.butterfly,
            samples.two_triangles_bridge,
            samples.c4_opposite,
            samples.triangle_quad_shared,
            lambda: path(6),
            lambda: star(6),
        ):
            assert is_cactus(factory())

    def test_known_negative(self):
        assert not is_cactus(samples.diamond())
        assert not is_cactus(samples.k4())

    def test_matches_oracle(self):
        rng = random.Random(60606)
        for _ in range(30):
            n = rng.randint(2, 8)
            edges = oracles.random_graph_edges(rng, n, extra=0.5)
            g = graph_from_edges(n, edges)
            assert is_cactus(g) == oracles.is_cactus(n, edges)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            is_cactus(graph_from_edges(4, [(0, 1), (2, 3)]))


class TestCactusProfile:
    def test_lone_cycle_is_end_block(self):
        prof = cactus_profile(cycle(4))
        assert prof.is_cactus
        assert [len(s) for s in prof.cycle_edge_sets] == [4]
        assert prof.end_block_flags == (True,)

    def test_tree_profile_is_empty(self):
        prof = cactus_profile(path(5))
        assert prof.is_cactus
        assert prof.cycle_edge_sets == ()
        assert prof.end_block_flags == ()

    def test_two_triangles_both_end_blocks(self):
        prof = cactus_profile(samples.two_triangles_bridge())
        assert prof.end_block_flags == (True, True)

    def test_shared_vertex_cycles_both_end_blocks(self):
        prof = cactus_profile(samples.triangle_quad_shared())
        assert sorted(len(s) for s in prof.cycle_edge_sets) == [3, 4]
        assert prof.end_block_flags == (True, True)

    def test_cycle_with_spread_attachments_is_not_end_block(self):
        prof = cactus_profile(samples.c4_opposite())
        assert prof.end_block_flags == (False,)

    def test_non_cactus_profile(self):
        prof = cactus_profile(samples.k4())
        assert not prof.is_cactus
        assert prof.cycle_edge_sets == ()

    def test_cycle_edge_sets_partition_cycle_edges(self):
        g = samples.butterfly()
        prof = cactus_profile(g)
        seen = set()
        for s in prof.cycle_edge_sets:
            assert not (seen & s)
            seen |= s
        assert seen == {e for e in g.edge_set if e not in cut_edges(g)}


def _relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _assert_matches_block_profile(g):
    # Fresh copies, so nothing kept by earlier calls stands in for the pass.
    got = cactus_profile(Graph(g.n, g.edges))
    assert got == oracles.block_profile(Graph(g.n, g.edges))


def _petersen():
    return Graph(10, nx.petersen_graph().edges)


class TestOnePassProfile:
    """A cactus's profile comes from the DFS that gives its distances; the
    block decomposition is the reference, cycle order included."""

    def test_every_class_through_n9_as_generated_and_relabeled(self):
        rng = random.Random(9009)
        count = 0
        for n in range(1, 10):
            for k in range((n - 1) // 2 + 1):
                for g in cactus_classes(n, k):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    _assert_matches_block_profile(g)
                    _assert_matches_block_profile(_relabel(g, perm))
                    count += 1
        assert count == 887

    def test_random_cacti_through_n200(self):
        rng = random.Random(2718)
        for _ in range(300):
            n = rng.randint(1, 200)
            g = random_cactus(n, rng.randint(0, (n - 1) // 2), seed=rng.randrange(2**63))
            perm = list(range(n))
            rng.shuffle(perm)
            _assert_matches_block_profile(_relabel(g, perm))

    @pytest.mark.parametrize("profile_first", [True, False])
    def test_either_order_runs_one_pass(self, monkeypatch, profile_first):
        # Two triangles and a quadrangle, a bridge between them, pendants.
        g = graph_from_edges(
            10,
            [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6),
             (6, 7), (7, 8), (5, 8), (8, 9)],
        )
        passes = count_calls_on(monkeypatch, graphs._cactus_distances, g)
        blocks = count_calls_on(monkeypatch, graphs.block_decomposition, g)
        bfs = count_calls_on(monkeypatch, graphs.all_bfs_distances, g)
        if profile_first:
            profile = cactus_profile(g)
            values = (edge_gaps(g), szeged(g), edge_revised_szeged(g))
        else:
            values = (edge_gaps(g), szeged(g), edge_revised_szeged(g))
            # An index alone builds no profile.
            assert g._profile is None
            profile = cactus_profile(g)
        assert cactus_profile(g) is profile
        assert (len(passes), len(blocks), len(bfs)) == (1, 0, 0)
        assert profile == oracles.block_profile(Graph(g.n, g.edges))
        # The cycles come as their blocks pop: the deepest first.
        assert [len(c) for c in profile.cycle_edge_sets] == [4, 3, 3]
        assert profile.end_block_flags == (False, False, True)
        assert profile.bridges == frozenset({(4, 5), (8, 9)})
        fresh = Graph(g.n, g.edges)
        assert values == (edge_gaps(fresh), szeged(fresh), edge_revised_szeged(fresh))

    @pytest.mark.parametrize(
        "factory",
        [samples.k4, samples.diamond, _petersen]
        + [
            lambda seed=seed: graph_from_edges(
                9, oracles.random_graph_edges(random.Random(seed), 9, extra=0.5)
            )
            for seed in range(6)
        ],
    )
    def test_non_cactus_keeps_the_block_path(self, monkeypatch, factory):
        g = factory()
        assert graphs._cactus_distances(g) is None
        for profile_first in (True, False):
            g = factory()
            blocks = count_calls_on(monkeypatch, graphs.block_decomposition, g)
            bfs = count_calls_on(monkeypatch, graphs.all_bfs_distances, g)
            if not profile_first:
                edge_gaps(g)
            before = len(bfs)
            profile = cactus_profile(g)
            # The profile never runs the all-pairs BFS.
            assert len(bfs) == before
            assert len(blocks) == 1
            assert not profile.is_cactus
            assert profile == oracles.block_profile(factory())
            monkeypatch.undo()

    @pytest.mark.parametrize("factory", [samples.k4, _petersen])
    @pytest.mark.parametrize("profile_first", [True, False])
    def test_non_cactus_walks_the_cactus_dfs_once(
        self, monkeypatch, factory, profile_first
    ):
        g = factory()
        passes = count_calls_on(monkeypatch, graphs._cactus_distances, g)
        blocks = count_calls_on(monkeypatch, graphs.block_decomposition, g)
        bfs = count_calls_on(monkeypatch, graphs.all_bfs_distances, g)
        calls = [cactus_profile, edge_gaps, szeged, cactus_profile, edge_gaps]
        if not profile_first:
            calls.reverse()
        for fn in calls:
            fn(g)
        assert (len(passes), len(blocks), len(bfs)) == (1, 1, 1)
        assert not cactus_profile(g).is_cactus
        fresh = factory()
        assert (edge_gaps(g), szeged(g)) == (edge_gaps(fresh), szeged(fresh))

    @pytest.mark.parametrize(
        "n, edges",
        [
            # a cactus forest: the pass itself finds the second component
            (5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
            # a non-cactus plus an isolated vertex: the block path finds it
            (5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        ],
    )
    @pytest.mark.parametrize("profile_first", [True, False])
    def test_disconnected_raises_in_either_order(self, n, edges, profile_first):
        g = graph_from_edges(n, edges)
        calls = [cactus_profile, edge_gaps]
        if not profile_first:
            calls.reverse()
        for fn in calls:
            with pytest.raises(DisconnectedError):
                fn(g)
