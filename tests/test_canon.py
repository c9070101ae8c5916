"""Canonical forms, isomorphism, and automorphism counting."""

import math
import random

import pytest

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
    graph_from_edges,
    labeled_copy_count,
    parse_graph6,
    path,
    star,
)


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
        # Pins the tie count of the canonical search on every class.
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
