"""Named extremal families: construction, recognition, feasibility."""

import hashlib
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import samples
from szegedtools import (
    BundleSpec,
    DisconnectedError,
    Graph,
    InfeasibleError,
    QuarterInt,
    are_isomorphic,
    as_bundle,
    bundle,
    cactus_classes,
    cactus_profile,
    certificate,
    cycle,
    edge_revised_szeged,
    emit_graph6,
    feasible_pairs,
    graph_from_edges,
    is_cactus,
    is_quadrangle_bundle,
    is_tailed_quadrangle_bundle,
    path,
    quadrangle_bundle,
    random_cactus,
    star,
    tailed_quadrangle_bundle,
    triangle_bundle,
)


class TestBasicShapes:
    def test_cycle(self):
        g = cycle(5)
        assert (g.n, g.m) == (5, 5)
        assert all(g.degree(v) == 2 for v in range(5))
        with pytest.raises(InfeasibleError):
            cycle(2)

    def test_path(self):
        g = path(4)
        assert (g.n, g.m) == (4, 3)
        assert sorted(g.degree(v) for v in range(4)) == [1, 1, 2, 2]
        assert path(1).m == 0

    def test_star(self):
        g = star(5)
        assert (g.n, g.m) == (5, 4)
        assert sorted(g.degree(v) for v in range(5)) == [1, 1, 1, 1, 4]
        assert star(1).m == 0


class TestBundle:
    def test_two_triangles_is_butterfly(self):
        assert are_isomorphic(bundle(BundleSpec((3, 3), 0)), samples.butterfly())

    def test_vertex_and_edge_counts(self):
        spec = BundleSpec((3, 4, 5), 2)
        g = bundle(spec)
        # each length-L cycle adds L-1 vertices beyond the shared hub
        assert g.n == 1 + (2 + 3 + 4) + 2
        assert g.m == (3 + 4 + 5) + 2

    def test_is_cactus_with_end_block_cycles(self):
        prof = cactus_profile(bundle(BundleSpec((3, 4, 4), 3)))
        assert prof.is_cactus
        assert all(prof.end_block_flags)

    def test_no_cycles_is_star(self):
        assert are_isomorphic(bundle(BundleSpec((), 3)), star(4))

    def test_numbering_is_pinned(self):
        # Hub 0, each cycle's vertices in order, pendants last: the graph6
        # strings of 140 small bundles, newline-joined.
        lines = [
            emit_graph6(bundle(BundleSpec(lengths, pendants)))
            for r in range(4)
            for lengths in itertools.combinations_with_replacement((3, 4, 5, 6), r)
            for pendants in range(4)
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == (
            140,
            "49da921b0b5c8556e2c57b7980a4d6ba324169db11cf47ea77e536108314e088",
        )

    def test_rejects_bad_specs(self):
        with pytest.raises(InfeasibleError):
            bundle(BundleSpec((2,), 0))
        with pytest.raises(InfeasibleError):
            bundle(BundleSpec((3,), -1))

    def test_spec_validates_and_keeps_a_tuple(self):
        with pytest.raises(InfeasibleError, match="cycle length 2 < 3"):
            BundleSpec([3, 2])
        with pytest.raises(InfeasibleError, match="negative pendant count -1"):
            BundleSpec((), pendants=-1)
        spec = BundleSpec([4, 3], 1)
        assert spec.cycle_lengths == (4, 3)
        assert spec == BundleSpec((4, 3), 1) == ((4, 3), 1)
        assert (spec.n, spec.m, spec.k) == (7, 8, 2)


class TestAsBundle:
    def test_roundtrip_sorts_lengths(self):
        spec = as_bundle(bundle(BundleSpec((4, 3), 2)))
        assert spec == BundleSpec((3, 4), 2)

    def test_star_and_short_paths(self):
        assert as_bundle(star(5)) == BundleSpec((), 4)
        assert as_bundle(path(3)) == BundleSpec((), 2)
        assert as_bundle(path(2)) == BundleSpec((), 1)
        assert as_bundle(graph_from_edges(1, [])) == BundleSpec((), 0)

    def test_lone_cycle(self):
        assert as_bundle(cycle(4)) == BundleSpec((4,), 0)

    def test_non_bundles(self):
        assert as_bundle(path(4)) is None
        assert as_bundle(samples.two_triangles_bridge()) is None
        assert as_bundle(samples.c4_opposite()) is None
        assert as_bundle(samples.triangle_spread()) is None

    def test_single_cycle_hub_is_any_attachment_vertex(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4)])
        assert as_bundle(g) == BundleSpec((4,), 1)

    def test_non_cactus_whose_degrees_count_like_a_star(self):
        # K4 with a four-edge tail: largest degree 4, no cycle block and
        # four cut edges, as in the star on five vertices.
        k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        g = graph_from_edges(8, k4 + [(0, 4), (4, 5), (5, 6), (6, 7)])
        assert as_bundle(g) is None

    def test_two_edge_tail_is_not_a_bundle(self):
        # all pendant edges must attach directly to the hub
        assert as_bundle(tailed_quadrangle_bundle(6, 1)) is None


class TestTriangleBundle:
    def test_smallest(self):
        assert are_isomorphic(triangle_bundle(3, 1), cycle(3))
        assert are_isomorphic(triangle_bundle(4, 1), samples.paw())
        assert are_isomorphic(triangle_bundle(5, 2), samples.butterfly())

    def test_spec(self):
        assert as_bundle(triangle_bundle(8, 2)) == BundleSpec((3, 3), 3)

    def test_golden_value(self):
        assert edge_revised_szeged(triangle_bundle(5, 1)) == QuarterInt(85)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            triangle_bundle(4, 2)
        with pytest.raises(InfeasibleError):
            triangle_bundle(2, 1)


class TestQuadrangleBundle:
    def test_smallest(self):
        assert are_isomorphic(quadrangle_bundle(4, 1), cycle(4))

    def test_spec(self):
        assert as_bundle(quadrangle_bundle(7, 2)) == BundleSpec((4, 4), 0)
        assert as_bundle(quadrangle_bundle(9, 2)) == BundleSpec((4, 4), 2)

    def test_golden_value(self):
        assert edge_revised_szeged(quadrangle_bundle(5, 1)) == QuarterInt(105)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            quadrangle_bundle(6, 2)

    def test_recognizer(self):
        g = quadrangle_bundle(9, 2)
        assert is_quadrangle_bundle(g)
        assert is_quadrangle_bundle(g, 2)
        assert not is_quadrangle_bundle(g, 1)
        assert not is_quadrangle_bundle(triangle_bundle(5, 1))
        assert not is_quadrangle_bundle(samples.c4_opposite())
        assert is_quadrangle_bundle(cycle(4), 1)

    def test_recognizer_matches_construction_at_larger_sizes(self):
        # beyond the canonical-form cap, recognition is structural
        g = quadrangle_bundle(25, 3)
        assert g.n == 25
        assert is_quadrangle_bundle(g, 3)
        assert not is_quadrangle_bundle(g, 2)


class TestTailedQuadrangleBundle:
    def test_shape(self):
        g = tailed_quadrangle_bundle(6, 1)
        assert (g.n, g.m) == (6, 6)
        # exactly one vertex of degree 1 at the end of a length-2 tail
        degs = sorted(g.degree(v) for v in range(g.n))
        assert degs == [1, 2, 2, 2, 2, 3]
        assert is_cactus(g)

    def test_value(self):
        assert edge_revised_szeged(tailed_quadrangle_bundle(6, 1)) == QuarterInt(166)

    def test_infeasible_without_a_pendant_to_extend(self):
        # the base with n-1 vertices must keep at least one hub pendant
        with pytest.raises(InfeasibleError):
            tailed_quadrangle_bundle(5, 1)
        with pytest.raises(InfeasibleError):
            tailed_quadrangle_bundle(8, 2)
        assert tailed_quadrangle_bundle(9, 2).n == 9

    def test_recognizer(self):
        g = tailed_quadrangle_bundle(9, 2)
        assert is_tailed_quadrangle_bundle(g)
        assert is_tailed_quadrangle_bundle(g, 2)
        assert not is_tailed_quadrangle_bundle(g, 1)
        assert not is_tailed_quadrangle_bundle(quadrangle_bundle(7, 2))
        assert not is_tailed_quadrangle_bundle(samples.butterfly())

    def test_recognizer_at_larger_sizes(self):
        g = tailed_quadrangle_bundle(20, 4)
        assert is_tailed_quadrangle_bundle(g, 4)
        assert not is_tailed_quadrangle_bundle(quadrangle_bundle(20, 4), 4)

    def test_recognizer_rejects_disconnected_input(self):
        with pytest.raises(DisconnectedError):
            is_tailed_quadrangle_bundle(graph_from_edges(4, [(0, 1), (1, 2)]))


def _bundle_specs(n):
    """Every bundle shape on n vertices: a multiset of cycle lengths, sorted,
    and the pendants that make up the rest."""

    def multisets(budget, least):
        # A cycle of length L adds L - 1 vertices to the hub.
        yield ()
        for length in range(least, budget + 2):
            for rest in multisets(budget - (length - 1), length):
                yield (length,) + rest

    for lengths in multisets(n - 1, 3):
        yield BundleSpec(lengths, n - 1 - sum(length - 1 for length in lengths))


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestRecognizersAgainstOracles:
    """The structural recognizers against certificates and the peeling
    recognizer, on every class with n <= 9."""

    def test_as_bundle_matches_bundle_certificates(self):
        for n in range(1, 10):
            specs = list(_bundle_specs(n))
            by_cert = {certificate(bundle(spec)): spec for spec in specs}
            assert len(by_cert) == len(specs)
            for k in range((n - 1) // 2 + 1):
                for g in cactus_classes(n, k):
                    assert as_bundle(g) == by_cert.get(certificate(g)), g.edges

    def test_tailed_recognizer_matches_peeling(self):
        # Each class also in one random labeling, as the recognizer stops at
        # the first leaf that could end a tail.
        rng = random.Random(0)
        for n, k in feasible_pairs(9):
            for g in cactus_classes(n, k):
                for h in (g, _relabeled(g, rng)):
                    for want in (None, 0, 1, 2, 3, 4):
                        got = is_tailed_quadrangle_bundle(h, want)
                        peeled = oracles.tailed_quadrangle_bundle_by_peeling(h, want)
                        assert got == peeled, (h.edges, want)

    def test_tailed_recognizer_matches_peeling_past_n_9(self):
        # Each quadrangle bundle, tailed or not, with n <= 40 and k <= 8,
        # relabeled, alone and with one pendant or one 3-, 4- or 5-cycle
        # hung at a random vertex.
        rng = random.Random(1)
        shapes = []
        families = ((quadrangle_bundle, 1), (tailed_quadrangle_bundle, 3))
        for (build, least), k in itertools.product(families, range(9)):
            for n in range(3 * k + least, 41):
                g = build(n, k)
                shapes.append((k, g))
                for size in (2, 3, 4, 5):
                    at = rng.randrange(n)
                    ring = [at] + list(range(n, n + size - 1))
                    edges = list(g.edges) + list(zip(ring, ring[1:]))
                    if size > 2:
                        edges.append((ring[-1], at))
                    shapes.append((k, Graph(n + size - 1, edges)))
        for k, g in shapes:
            h = _relabeled(g, rng)
            for want in (None, k, k + 1):
                got = is_tailed_quadrangle_bundle(h, want)
                peeled = oracles.tailed_quadrangle_bundle_by_peeling(h, want)
                assert got == peeled, (h.edges, want)

    @pytest.mark.parametrize(
        "g, tailed",
        [
            (path(3), True),
            (path(4), True),
            (path(5), False),
            (path(1), False),
            (path(2), False),
        ],
        ids=["P3", "P4", "P5", "K1", "K2"],
    )
    def test_tailed_recognizer_on_short_paths(self, g, tailed):
        # P3 and P4 are the tailed bundles whose hub has degree 1 and 2.
        for want in (None, 0, 1):
            expect = tailed and want in (None, 0)
            assert is_tailed_quadrangle_bundle(g, want) == expect
            assert oracles.tailed_quadrangle_bundle_by_peeling(g, want) == expect


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _bundle_by_isomorphism(g):
    """The bundle that g's cycle lengths and n imply, if networkx finds g
    isomorphic to it; otherwise None."""
    lengths = cactus_profile(g).cycle_lengths
    pendants = g.n - 1 - sum(x - 1 for x in lengths)
    if pendants < 0:
        return None
    spec = BundleSpec(lengths, pendants)
    # VF2 matches the second graph's vertices in their order. ``bundle``
    # numbers each ring's vertices consecutively, so a wrong ring fails
    # within that ring; in breadth-first order the search can take seconds.
    return spec if nx.is_isomorphic(_nx(g), _nx(bundle(spec))) else None


class TestAsBundleAgainstIsomorphism:
    """``as_bundle`` against networkx isomorphism with the implied bundle,
    past n = 9 where the certificate oracle above stops."""

    # Their hubs have degree at most 2, so other vertices tie with them;
    # P4 and P5 are the nearest non-bundles.
    SMALL = [path(1), path(2), path(3), path(4), path(5)] + [
        cycle(length) for length in range(3, 7)
    ]

    @pytest.mark.parametrize("g", SMALL, ids=lambda g: f"{g.n}-{g.m}")
    def test_every_labeling_of_small_hubs(self, g):
        want = _bundle_by_isomorphism(g)
        assert (want is None) == (g.n > 3 and g.m < g.n)
        for perm in itertools.permutations(range(g.n)):
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            assert as_bundle(h) == want, h.edges

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_relabeled_cacti_and_bundles(self, data):
        draw = data.draw
        shape = draw(st.sampled_from(["random", "bundle", "bundle and a block"]))
        if shape == "random":
            n = draw(st.integers(1, 40))
            k = draw(st.integers(0, (n - 1) // 2))
            g = random_cactus(n, k, seed=draw(st.integers(0, 2**32 - 1)))
        else:
            lengths = draw(st.lists(st.integers(3, 8), max_size=4))
            g = bundle(BundleSpec(lengths, draw(st.integers(0, 6))))
        edges = list(g.edges)
        n = g.n
        if shape == "bundle and a block":
            # One more pendant (length 2) or cycle, hung at any vertex.
            at = draw(st.integers(0, n - 1))
            ring = [at] + list(range(n, n + draw(st.sampled_from([2, 3, 4, 5])) - 1))
            n += len(ring) - 1
            edges += list(zip(ring, ring[1:]))
            if len(ring) > 2:
                edges.append((ring[-1], at))
        perm = draw(st.permutations(range(n)))
        h = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        assert as_bundle(h) == _bundle_by_isomorphism(h)


class TestFamilyValuesAgainstOracle:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: triangle_bundle(7, 2),
            lambda: quadrangle_bundle(8, 2),
            lambda: tailed_quadrangle_bundle(7, 1),
            lambda: bundle(BundleSpec((3, 5), 2)),
        ],
    )
    def test_direct_value(self, factory):
        g = factory()
        assert edge_revised_szeged(g).as_fraction() == oracles.edge_revised_szeged(
            g.n, g.edges
        )
