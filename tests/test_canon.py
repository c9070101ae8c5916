"""Canonical forms, isomorphism, and automorphism counting."""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import samples
from szegedtools import (
    CERT_CAP,
    CapError,
    are_isomorphic,
    automorphism_count,
    cactus_classes,
    canonical_form,
    certificate,
    cycle,
    emit_graph6,
    graph_from_edges,
    labeled_copy_count,
    parse_graph6,
    path,
    random_cactus,
    star,
    triangle_bundle,
)
from szegedtools import enumeration
from szegedtools.canon import _twin_classes, canonical_pair


def relabel(g, perm):
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestCertificate:
    def test_invariant_under_relabeling(self):
        rng = random.Random(13)
        for factory in (
            samples.paw,
            samples.butterfly,
            samples.two_triangles_bridge,
            samples.c4_opposite,
            samples.triangle_quad_shared,
        ):
            g = factory()
            want = certificate(g)
            for _ in range(6):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert certificate(relabel(g, perm)) == want

    def test_differs_across_classes(self):
        reps = list(cactus_classes(6, 1))
        certs = [certificate(g) for g in reps]
        assert len(set(certs)) == len(certs)

    def test_certificate_is_parseable_graph6(self):
        g = samples.butterfly()
        h = parse_graph6(certificate(g).decode("ascii"))
        assert (h.n, h.m) == (g.n, g.m)
        assert are_isomorphic(g, h)

    def test_cap(self):
        with pytest.raises(CapError):
            certificate(path(CERT_CAP + 1))

    def test_at_cap_size_works(self):
        g = cycle(CERT_CAP)
        assert certificate(g) == certificate(canonical_form(g))


class TestCanonicalForm:
    def test_is_isomorphic_to_input(self):
        for factory in (samples.paw, samples.butterfly, samples.c4_opposite):
            g = factory()
            c = canonical_form(g)
            assert (c.n, c.m) == (g.n, g.m)
            assert oracles.canonical_key(c.n, c.edges) == oracles.canonical_key(
                g.n, g.edges
            )

    def test_idempotent(self):
        g = samples.two_triangles_bridge()
        c = canonical_form(g)
        cc = canonical_form(c)
        assert cc.edge_set == c.edge_set
        assert certificate(c) == certificate(g)


class TestAreIsomorphic:
    def test_relabeled_copies(self):
        rng = random.Random(203)
        g = samples.triangle_quad_shared()
        for _ in range(8):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert are_isomorphic(g, relabel(g, perm))

    def test_against_oracle_on_class_pairs(self):
        reps = list(cactus_classes(5, 1)) + list(cactus_classes(5, 2))
        rng = random.Random(99)
        for a in reps:
            for b in reps:
                perm = list(range(b.n))
                rng.shuffle(perm)
                b2 = relabel(b, perm)
                want = oracles.canonical_key(a.n, a.edges) == oracles.canonical_key(
                    b2.n, b2.edges
                )
                assert are_isomorphic(a, b2) == want

    def test_different_sizes(self):
        assert not are_isomorphic(cycle(4), cycle(5))
        assert not are_isomorphic(path(4), star(4))

    def test_cap(self):
        with pytest.raises(CapError):
            are_isomorphic(path(13), path(13))


class TestAutomorphisms:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_cycle_has_dihedral_group(self, n):
        assert automorphism_count(cycle(n)) == 2 * n

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_star_fixes_hub(self, n):
        assert automorphism_count(star(n)) == math.factorial(n - 1)

    def test_single_edge_swaps(self):
        assert automorphism_count(star(2)) == 2

    def test_paths(self):
        assert automorphism_count(path(1)) == 1
        assert automorphism_count(path(2)) == 2
        assert automorphism_count(path(7)) == 2

    def test_named(self):
        assert automorphism_count(samples.paw()) == 2
        assert automorphism_count(samples.butterfly()) == 8
        assert automorphism_count(samples.k4()) == 24

    def test_matches_oracle_on_all_small_cacti(self):
        for n in range(1, 7):
            for k in range(0, (n - 1) // 2 + 1):
                for g in cactus_classes(n, k):
                    assert automorphism_count(g) == oracles.automorphism_count(
                        g.n, g.edges
                    )

    def test_group_order_total_through_n8(self):
        # Pins the orbit-product group order summed over every class.
        total = sum(
            automorphism_count(g)
            for n in range(1, 9)
            for k in range(0, (n - 1) // 2 + 1)
            for g in cactus_classes(n, k)
        )
        assert total == 7927

    def test_labeled_copy_count(self):
        # orbit-stabilizer: labelings on n vertices = n! / |Aut|
        g = samples.butterfly()
        assert labeled_copy_count(g) == math.factorial(5) // 8
        assert labeled_copy_count(cycle(3)) == 1
        assert labeled_copy_count(path(4)) == math.factorial(4) // 2


def assert_matches_unpruned_search(g):
    edges, ties = oracles.degree_sorted_canonical(g.n, g.edges)
    canon = canonical_form(g)
    assert canon.edges == edges
    assert certificate(g) == emit_graph6(graph_from_edges(g.n, edges)).encode()
    assert automorphism_count(g) == ties


class TestAgainstUnprunedSearch:
    """Twin pruning leaves the certificate unchanged, and the group order
    equals the unpruned search's tie count."""

    def test_every_class_through_n8_relabeled(self):
        rng = random.Random(8)
        for n in range(1, 9):
            for k in range(0, (n - 1) // 2 + 1):
                for g in cactus_classes(n, k):
                    for _ in range(3):
                        perm = list(range(n))
                        rng.shuffle(perm)
                        assert_matches_unpruned_search(relabel(g, perm))

    def test_empty_and_complete_graphs(self):
        for n in range(1, 9):
            assert_matches_unpruned_search(graph_from_edges(n, []))
            complete = [(u, v) for u in range(n) for v in range(u + 1, n)]
            assert_matches_unpruned_search(graph_from_edges(n, complete))

    def test_random_general_graphs(self):
        # Sparse draws are mostly disconnected, dense ones near-complete.
        rng = random.Random(2024)
        for _ in range(300):
            n = rng.randint(1, 9)
            p = rng.choice((0.2, 0.5, 0.8))
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            ]
            assert_matches_unpruned_search(graph_from_edges(n, edges))

    def test_cycle_and_path_at_cap(self):
        # Twin-free and vertex-transitive or nearly so: most positions have
        # several candidates, and only the least column is branched on.
        assert_matches_unpruned_search(cycle(CERT_CAP))
        assert_matches_unpruned_search(path(CERT_CAP))


class TestTwinHeavyGraphs:
    """Stars and bundles: groups far too large to visit leaf by leaf."""

    def test_star_at_cap(self):
        g = star(12)
        assert automorphism_count(g) == math.factorial(11)
        assert certificate(g) == b"K?????????^~"

    def test_triangle_bundle_at_cap(self):
        g = triangle_bundle(12, 5)
        assert automorphism_count(g) == 3840
        assert certificate(g) == b"K???GOOGA?^~"

    def test_cycle_and_path_at_cap(self):
        assert certificate(cycle(12)) == b"K???WggSD?W?"
        assert certificate(path(12)) == b"K???GSSIA_S?"


def orbit_minima(g):
    """The least vertex of each automorphism orbit, by brute force."""
    auts = oracles.automorphisms(g.n, g.edges)
    return tuple(sorted({min(a[v] for a in auts) for v in range(g.n)}))


def growth_vertices(g):
    """The positions of a canonical graph that leaf-block growth tries:
    those in no earlier stabilizer orbit."""
    return {v for v, a in enumerate(enumeration._above(g._orbits)) if a < 0}


class TestOrbitRepresentatives:
    """The positions of a canonical graph that lie in no earlier stabilizer
    orbit, which leaf-block growth tries, include the least vertex of every
    automorphism orbit."""

    def test_every_class_through_n8(self):
        rng = random.Random(18)
        for n in range(1, 9):
            for k in range(0, (n - 1) // 2 + 1):
                for g in cactus_classes(n, k):
                    want = set(orbit_minima(g))
                    assert growth_vertices(g) >= want, g.edges
                    for _ in range(3):
                        perm = list(range(n))
                        rng.shuffle(perm)
                        canon, _ = canonical_pair(relabel(g, perm))
                        assert canon == g and growth_vertices(canon) >= want, g.edges

    def test_random_general_graphs(self):
        # Sparse draws are mostly disconnected, dense ones near-complete.
        rng = random.Random(77)
        for _ in range(300):
            n = rng.randint(1, 7)
            p = rng.choice((0.2, 0.5, 0.8))
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            ]
            canon, _ = canonical_pair(graph_from_edges(n, edges))
            assert growth_vertices(canon) >= set(orbit_minima(canon)), edges


@st.composite
def relabeled_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    perm = draw(st.permutations(range(n)))
    edges = [e for e, k in zip(pairs, keep) if k]
    return graph_from_edges(n, edges), perm


@settings(max_examples=150, deadline=None)
@given(relabeled_graphs())
def test_certificate_and_group_order_invariant_under_relabeling(case):
    g, perm = case
    h = relabel(g, perm)
    assert certificate(h) == certificate(g)
    assert automorphism_count(h) == automorphism_count(g)
    if g.n <= 6:
        assert automorphism_count(g) == oracles.automorphism_count(g.n, g.edges)


class TestStabilizerOrbits:
    """``canonical_pair`` keeps the stabilizer orbits on the canonical graph
    (``_orbits``), read off the tie leaves of its search."""

    def test_orbit_sizes_multiply_to_the_group_order(self):
        # Closed forms: the star's 11! leaf permutations, the dihedral group
        # of the 12-cycle, the path's reversal, 2^5 * 5! for five triangles
        # at a hub, and 4! * 5! for hubs with 4 and 5 leaves (no hub swap).
        # Below the cap, the unpruned oracle's tie count.
        hubs = [(0, 1)] + [(0, v) for v in range(2, 6)]
        double_star = graph_from_edges(11, hubs + [(1, v) for v in range(6, 11)])
        closed_forms = [
            (star(12), math.factorial(11)),
            (cycle(12), 24),
            (path(12), 2),
            (triangle_bundle(12, 5), 2**5 * math.factorial(5)),
            (double_star, 2880),
        ]
        for g, order in closed_forms:
            sizes = [len(orbit) for orbit in canonical_form(g)._orbits]
            assert math.prod(sizes) == order, g.edges
        for n in range(1, 10):
            for k in range(0, (n - 1) // 2 + 1):
                for g in cactus_classes(n, k):
                    sizes = [len(orbit) for orbit in g._orbits]
                    _, ties = oracles.degree_sorted_canonical(g.n, g.edges)
                    assert math.prod(sizes) == ties, g.edges

    def test_orbits_match_the_automorphism_list(self):
        # Sparse draws are mostly disconnected, dense ones near-complete.
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(1, 8)
            p = rng.choice((0.2, 0.5, 0.8))
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            ]
            canon = canonical_form(graph_from_edges(n, edges))
            want = oracles.stabilizer_orbits(n, canon.edges)
            assert list(canon._orbits) == want, edges

    def test_every_class_through_n8(self):
        # Each class as generated, and the canonical forms of relabelings,
        # which run the search from other starting labels.
        rng = random.Random(19)
        for n in range(1, 9):
            for k in range(0, (n - 1) // 2 + 1):
                for g in cactus_classes(n, k):
                    want = oracles.stabilizer_orbits(n, g.edges)
                    assert list(g._orbits) == want, g.edges
                    perm = list(range(n))
                    rng.shuffle(perm)
                    canon = canonical_form(relabel(g, perm))
                    assert list(canon._orbits) == want, g.edges

    def test_one_vertex_orbits_are_shared(self):
        # One tuple per position across all canonical graphs keeps cached
        # class lists small.
        a, b = canonical_form(path(7)), canonical_form(star(7))
        assert a._orbits[6] is b._orbits[6] == (6,)

    def test_equal_orbits_are_shared(self):
        # Across every class through n = 8, equal orbits are one tuple.
        shared = {}
        for n in range(1, 9):
            for k in range(0, (n - 1) // 2 + 1):
                for g in cactus_classes(n, k):
                    for orbit in g._orbits:
                        assert shared.setdefault(orbit, orbit) is orbit

    def test_only_canonical_forms_keep_orbits(self):
        g = cycle(6)
        assert g._orbits is None
        assert automorphism_count(g) == 12
        assert g._orbits is None


def caterpillar(counts):
    """A spine path ``0..s-1`` with ``counts[i]`` pendants at spine vertex
    ``i``."""
    s = len(counts)
    edges = [(i, i + 1) for i in range(s - 1)]
    for i, count in enumerate(counts):
        for _ in range(count):
            edges.append((i, s))
            s += 1
    return graph_from_edges(s, edges)


def spider(legs):
    """Paths of the given lengths joined at vertex 0."""
    edges = []
    n = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev = n
            n += 1
    return graph_from_edges(n, edges)


def broom(handle, bristles):
    """A path of ``handle`` vertices with ``bristles`` pendants at its end."""
    return caterpillar([0] * (handle - 1) + [bristles])


def partitions(total, largest=None):
    """Every nonincreasing tuple of positive integers summing to ``total``."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest or total), 0, -1):
        for rest in partitions(total - part, part):
            yield (part,) + rest


def compositions(total, parts):
    """Every tuple of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def leaf_count(g):
    return sum(1 for v in range(g.n) if g.degree(v) == 1)


def pendant_families():
    """Stars, brooms, spiders and caterpillars with n <= 10, as far as the
    unpruned oracle, which tries every order of the degree-1 vertices, can
    afford (at most 7 of them).  Each tree appears about once: spiders
    have three legs or more, and a caterpillar has pendants at both ends of
    its spine and is read from its lesser end."""
    graphs = [star(n) for n in range(1, 9)]
    graphs += [broom(h, b) for h in range(3, 10) for b in range(2, 11 - h)]
    graphs += [
        spider(legs)
        for n in range(4, 11)
        for legs in partitions(n - 1)
        if len(legs) >= 3
    ]
    for s in range(2, 7):
        for total in range(2, 11 - s):
            graphs += [
                caterpillar(c)
                for c in compositions(total, s)
                if c[0] and c[-1] and c <= c[::-1]
            ]
    return [g for g in graphs if leaf_count(g) <= 7]


def assert_matches_oracles(g):
    """Certificate and canonical edges as the unpruned search finds them;
    ``_orbits`` as read off the automorphism list."""
    n = g.n
    edges, ties = oracles.degree_sorted_canonical(n, g.edges)
    canon, cert = canonical_pair(g)
    assert canon.edges == edges
    assert cert == emit_graph6(graph_from_edges(n, edges)).encode()
    # The oracle extends partial maps from vertex 0 up, and a canonical
    # graph puts its degree-1 vertices first, where nothing constrains them;
    # reversed, the hubs come first and the maps are found quickly.
    rev = [(n - 1 - u, n - 1 - v) for u, v in canon.edges]
    auts = [
        tuple(n - 1 - a[n - 1 - v] for v in range(n))
        for a in oracles.automorphisms(n, rev)
    ]
    assert len(auts) == ties
    assert list(canon._orbits) == [
        tuple(sorted({a[i] for a in auts if a[:i] == tuple(range(i))}))
        for i in range(n)
    ]


def count_place_calls(g):
    """Nodes the canonical search visits on ``g``, leaves included."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if (
            event == "call"
            and code.co_name == "place"
            and code.co_filename == canonical_pair.__code__.co_filename
        ):
            calls += 1

    sys.setprofile(profile)
    try:
        canonical_pair(g)
    finally:
        sys.setprofile(None)
    return calls


class TestPendantRule:
    """The search places each hub's pendants with it instead of branching on
    them, wherever no vertex is isolated and no pendant hangs at a pendant."""

    def test_pendants_are_not_branched_on(self):
        # Spine 0-1-2 with 1, 2 and 4 pendants: every spine vertex has its
        # own degree, so the search is one node per spine vertex and a leaf.
        g = caterpillar([1, 2, 4])
        assert (g.n, leaf_count(g)) == (10, 7)
        assert count_place_calls(g) == g.n - 7 + 1
        assert count_place_calls(star(12)) == 2

    def test_families_against_oracles(self):
        graphs = pendant_families()
        assert len(graphs) > 200
        rng = random.Random(21)
        for g in graphs:
            assert_matches_oracles(g)
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert_matches_oracles(relabel(g, perm))

    def test_smallest_graphs(self):
        assert_matches_oracles(graph_from_edges(1, []))
        assert_matches_oracles(graph_from_edges(2, [(0, 1)]))
        assert certificate(graph_from_edges(2, [(0, 1)])) == b"A_"

    def test_pendants_with_a_k2_or_isolated_vertices(self):
        # A random core with pendants hung on it, plus a K2 component or
        # isolated vertices, which turn the rule off; and without them,
        # where it applies to graphs that are not cacti.
        rng = random.Random(2026)
        for trial in range(240):
            core = rng.randint(2, 5)
            edges = [
                (u, v) for u in range(core) for v in range(u + 1, core)
                if rng.random() < 0.6
            ]
            n = core
            for _ in range(rng.randint(1, 3)):
                edges.append((rng.randrange(core), n))
                n += 1
            extra = trial % 3
            if extra == 1:
                edges.append((n, n + 1))
                n += 2
            elif extra == 2:
                n += rng.randint(1, 2)
            perm = list(range(n))
            rng.shuffle(perm)
            assert_matches_oracles(
                graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges])
            )


class TestTwinClasses:
    def test_match_the_definition(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 9)
            p = rng.choice((0.2, 0.5, 0.8))
            masks = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < p:
                        masks[u] |= 1 << v
                        masks[v] |= 1 << u
            want = [
                min(
                    u for u in range(n)
                    if masks[u] & ~(1 << v) == masks[v] & ~(1 << u)
                )
                for v in range(n)
            ]
            assert _twin_classes(masks) == want


@st.composite
def relabeled_cacti_with_pendants(draw):
    n = draw(st.integers(1, 10))
    k = draw(st.integers(0, (n - 1) // 2))
    edges = list(random_cactus(n, k, seed=draw(st.integers(0, 2**32 - 1))).edges)
    total = draw(st.integers(n, 12))
    for v in range(n, total):
        edges.append((draw(st.integers(0, v - 1)), v))
    perm = draw(st.permutations(range(total)))
    return graph_from_edges(total, edges), perm


@settings(max_examples=150, deadline=None)
@given(relabeled_cacti_with_pendants())
def test_cactus_certificate_and_group_order_invariant_under_relabeling(case):
    g, perm = case
    h = relabel(g, perm)
    assert certificate(h) == certificate(g)
    assert automorphism_count(h) == automorphism_count(g)


def test_class_representatives_keep_every_cache_set(monkeypatch):
    # A freshly generated representative keeps no profile and no distance
    # analysis: both read None from the class, and nothing builds them.
    monkeypatch.setattr(enumeration, "_class_cache", {})
    for rep in cactus_classes(7, 1):
        for name in ("_dist", "_profile"):
            assert object.__getattribute__(rep, name) is None
