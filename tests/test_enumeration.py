"""Exhaustive generation of cacti by vertex and cycle count."""

import hashlib
import json
import math

import pytest

import oracles
from szegedtools import (
    ABSOLUTE_CAP,
    CapError,
    InfeasibleError,
    QuarterInt,
    automorphism_count,
    cactus_classes,
    cactus_profile,
    canonical_form,
    certificate,
    count_cacti,
    cycle,
    emit_graph6,
    enumerate_cacti,
    graph_from_edges,
    is_cactus,
    is_feasible,
    random_cactus,
    search_extremal,
    star,
    triangle_bundle,
)
from szegedtools import edge_revised_szeged
from szegedtools.canon import stabilizer_orbits
from szegedtools.enumeration import _class_images

# class counts fixed after cross-checking the n <= 6 slice against the
# brute-force powerset oracle and n <= 7 against published tree and
# unicyclic counts
KNOWN_COUNTS = {
    (1, 0): 1,
    (2, 0): 1,
    (3, 0): 1,
    (4, 0): 2,
    (5, 0): 3,
    (6, 0): 6,
    (7, 0): 11,
    (3, 1): 1,
    (4, 1): 2,
    (5, 1): 5,
    (6, 1): 13,
    (7, 1): 33,
    (4, 2): 0,
    (5, 2): 1,
    (6, 2): 4,
    (7, 2): 17,
    (7, 3): 2,
}


# (classes, first 16 hex digits of sha256 over the newline-joined
# certificates) at n = 8, pinning class order as well as class count
N8_DIGESTS = {
    0: (23, "2469be8b0ad7c02c"),
    1: (89, "21024b31d32e0328"),
    2: (65, "2af851a39f687931"),
    3: (11, "ca4e672f3f41d92a"),
}

# labeled cacti on vertex set 0..n-1, counted by an independent edge-subset
# walk; the same numbers as the Σ n!/|Aut| orbit sums
LABELED_COUNTS = {
    (1, 0): 1,
    (2, 0): 1,
    (3, 0): 3,
    (3, 1): 1,
    (4, 0): 16,
    (4, 1): 15,
    (5, 0): 125,
    (5, 1): 222,
    (5, 2): 15,
    (6, 0): 1296,
    (6, 1): 3660,
    (6, 2): 720,
    (7, 0): 16807,
    (7, 1): 68295,
    (7, 2): 26145,
    (7, 3): 735,
}

# OEIS A000083: cacti (unlabeled, any number of cycles) on n = 1.. vertices
A000083 = (1, 1, 2, 4, 9, 23, 63, 188, 596)


class TestFeasibility:
    def test_known(self):
        assert is_feasible(1, 0)
        assert is_feasible(3, 1)
        assert is_feasible(5, 2)
        assert not is_feasible(4, 2)
        assert not is_feasible(0, 0)
        assert not is_feasible(2, 1)
        assert not is_feasible(3, -1)


class TestClassCounts:
    @pytest.mark.parametrize("pair, want", sorted(KNOWN_COUNTS.items()))
    def test_frozen_counts(self, pair, want):
        assert count_cacti(*pair) == want

    @pytest.mark.parametrize("k", sorted(N8_DIGESTS))
    def test_class_order_pinned_at_n8(self, k):
        classes = cactus_classes(8, k)
        digest = hashlib.sha256(b"\n".join(g._cert for g in classes))
        assert (len(classes), digest.hexdigest()[:16]) == N8_DIGESTS[k]

    def test_totals_match_oeis_a000083(self):
        totals = tuple(
            sum(count_cacti(n, k) for k in range((n - 1) // 2 + 1))
            for n in range(1, len(A000083) + 1)
        )
        assert totals == A000083

    def test_matches_powerset_oracle_everywhere_small(self):
        for n in range(1, 7):
            for k in range(0, (n - 1) // 2 + 1):
                got = {
                    oracles.canonical_key(g.n, g.edges)
                    for g in cactus_classes(n, k)
                }
                assert got == oracles.cacti_classes(n, k), (n, k)


class TestDedupAndDeterminism:
    def test_representatives_are_distinct_and_sorted(self):
        reps = list(cactus_classes(7, 2))
        certs = [certificate(g) for g in reps]
        assert len(set(certs)) == len(certs)
        assert certs == sorted(certs)

    def test_two_runs_agree(self):
        a = [certificate(g) for g in enumerate_cacti(6, 1)]
        b = [certificate(g) for g in enumerate_cacti(6, 1)]
        assert a == b
        a = [g.edges for g in enumerate_cacti(6, 1, dedup=False)]
        b = [g.edges for g in enumerate_cacti(6, 1, dedup=False)]
        assert a == b

    def test_worker_count_does_not_change_output(self):
        base = [certificate(g) for g in cactus_classes(6, 1)]
        split = [certificate(g) for g in cactus_classes(6, 1, workers=3)]
        assert base == split

    def test_every_representative_is_a_cactus_with_right_shape(self):
        for n, k in [(6, 1), (6, 2), (7, 3)]:
            for g in cactus_classes(n, k):
                assert g.n == n
                assert g.m == n + k - 1
                prof = cactus_profile(g)
                assert prof.is_cactus
                assert len(prof.cycle_edge_sets) == k


class TestLabeledEnumeration:
    def test_tree_count_is_cayley(self):
        labeled = list(enumerate_cacti(6, 0, dedup=False))
        assert len(labeled) == 6**4

    def test_orbit_sum_matches_labeled_count(self):
        for n in range(1, 8):
            for k in range(0, (n - 1) // 2 + 1):
                labeled = sum(1 for _ in enumerate_cacti(n, k, dedup=False))
                orbit_sum = sum(
                    math.factorial(n) // automorphism_count(g)
                    for g in cactus_classes(n, k)
                )
                assert labeled == orbit_sum, (n, k)

    @pytest.mark.parametrize("pair, want", sorted(LABELED_COUNTS.items()))
    def test_pinned_labeled_counts(self, pair, want):
        assert sum(1 for _ in enumerate_cacti(*pair, dedup=False)) == want

    def test_labeled_set_is_the_union_of_oracle_orbits(self):
        for n in range(1, 7):
            for k in range(0, (n - 1) // 2 + 1):
                got = [g.edges for g in enumerate_cacti(n, k, dedup=False)]
                assert len(set(got)) == len(got), (n, k)
                want = set()
                for _, edges in oracles.cacti_classes(n, k):
                    want |= oracles.orbit(n, edges)
                assert set(got) == want, (n, k)

    def test_stream_equals_the_permutation_walk_in_order(self):
        pairs = [(n, k) for n in range(1, 8) for k in range((n - 1) // 2 + 1)]
        for n, k in pairs + [(8, 3)]:
            got = [g.edges for g in enumerate_cacti(n, k, dedup=False)]
            want = [
                edges
                for rep in cactus_classes(n, k)
                for edges in oracles.labeled_by_permutations(n, rep.edges)
            ]
            assert got == want, (n, k)

    @pytest.mark.parametrize("first", ["index", "profile", "graph6"])
    def test_images_agree_with_their_class_representative(self, first):
        # Every image comes fresh from the stream with its adjacency unbuilt,
        # so the function under test is the first to read it.
        classes = cactus_classes(6, 1)
        reps = [
            rep
            for rep in classes
            for _ in range(math.factorial(6) // automorphism_count(rep))
        ]
        images = list(enumerate_cacti(6, 1, dedup=False))
        assert len(images) == len(reps)
        for rep, g in zip(reps, images):
            validated = graph_from_edges(g.n, g.edges)
            if first == "index":
                assert edge_revised_szeged(g) == edge_revised_szeged(rep)
            elif first == "profile":
                got, want = cactus_profile(g), cactus_profile(rep)
                assert got == cactus_profile(validated)
                assert (got.is_cactus, got.cycle_lengths, len(got.bridges)) == (
                    want.is_cactus,
                    want.cycle_lengths,
                    len(want.bridges),
                )
                assert sorted(got.end_block_flags) == sorted(want.end_block_flags)
            else:
                assert emit_graph6(g) == emit_graph6(validated)
                assert certificate(g) == certificate(rep)

    def test_labeled_graphs_are_valid_and_distinct(self):
        seen = set()
        for g in enumerate_cacti(5, 2, dedup=False):
            assert is_cactus(g)
            assert (g.n, g.m) == (5, 6)
            assert g.edge_set not in seen
            seen.add(g.edge_set)


class TestClassImages:
    """One class's images against the permutation walk, edge for edge and in
    order, at both ends of the depth d where the coset DFS hands over to
    ``itertools.permutations``."""

    def test_trivial_automorphism_group(self):
        # d = 0: no position is constrained, so every permutation of 0..n-1
        # gives its own image, straight from itertools.permutations.
        asym = [
            g
            for k in (0, 1)
            for g in cactus_classes(7, k)
            if automorphism_count(g) == 1
        ]
        assert asym
        for g in asym:
            assert all(len(orbit) == 1 for orbit in stabilizer_orbits(g))
            got = [h.edges for h in _class_images(g)]
            assert len(got) == math.factorial(7)
            assert got == oracles.labeled_by_permutations(7, g.edges)

    @pytest.mark.parametrize("family", [star, cycle])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_last_vertex_constrained(self, family, n):
        # d = n: the DFS places every position and leaves an empty suffix.
        # The canonical star puts its centre last, so there d = n - 1.
        g = family(n)
        orbits = stabilizer_orbits(g)
        assert any(len(orbit) > 1 and orbit[-1] == n - 1 for orbit in orbits)
        for h in (g, canonical_form(g)):
            got = [image.edges for image in _class_images(h)]
            assert got == oracles.labeled_by_permutations(n, h.edges)


class TestCaps:
    def test_default_cap(self):
        with pytest.raises(CapError):
            count_cacti(11, 0)

    def test_explicit_cap_param(self):
        with pytest.raises(CapError):
            count_cacti(8, 1, cap=7)

    def test_absolute_cap_wins(self):
        with pytest.raises(CapError):
            list(enumerate_cacti(ABSOLUTE_CAP + 1, 0, cap=99))

    def test_infeasible_is_empty_not_error(self):
        assert count_cacti(4, 2) == 0
        assert list(enumerate_cacti(4, 2)) == []


class TestSearchExtremal:
    def test_4_1(self):
        report = search_extremal(4, 1)
        assert report.class_count == 2
        assert report.min_value == QuarterInt(53)
        assert report.second_value == QuarterInt(64)
        assert report.second_value == 16
        assert not report.min_tied
        assert len(report.min_witnesses) == 1
        assert report.min_witnesses[0].certificate == certificate(
            triangle_bundle(4, 1)
        ).decode("ascii")
        assert report.second_witnesses[0].certificate == certificate(
            cycle(4)
        ).decode("ascii")
        assert report.minimum_agrees is True

    def test_5_1(self):
        report = search_extremal(5, 1)
        assert report.min_value == QuarterInt(85)
        assert report.second_value == QuarterInt(91)
        spread = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])
        assert report.second_witnesses[0].certificate == certificate(
            spread
        ).decode("ascii")

    def test_single_class_has_no_second(self):
        report = search_extremal(3, 1)
        assert report.class_count == 1
        assert report.min_value == QuarterInt(27)
        assert report.second_value is None
        assert report.second_witnesses == ()

    def test_min_matches_direct_scan(self):
        for n, k in [(6, 1), (6, 2), (7, 3)]:
            report = search_extremal(n, k)
            values = sorted(
                edge_revised_szeged(g) for g in cactus_classes(n, k)
            )
            assert report.min_value == values[0]
            above = [v for v in values if v > values[0]]
            if above:
                assert report.second_value == above[0]

    def test_single_vertex(self):
        report = search_extremal(1, 0)
        assert report.class_count == 1
        assert report.min_value == QuarterInt(0)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            search_extremal(4, 2)

    def test_report_serializes(self):
        report = search_extremal(4, 1)
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert "53" in text


class TestRandomCactus:
    def test_deterministic_per_seed(self):
        a = random_cactus(12, 3, seed=7)
        b = random_cactus(12, 3, seed=7)
        assert a.edge_set == b.edge_set

    def test_seeds_vary(self):
        distinct = {
            frozenset(random_cactus(12, 3, seed=s).edge_set) for s in range(8)
        }
        assert len(distinct) > 1

    def test_shape_is_always_right(self):
        for seed in range(30):
            n = 3 + (seed * 7) % 20
            k = seed % ((n - 1) // 2 + 1)
            g = random_cactus(n, k, seed=seed)
            assert g.n == n
            assert g.m == n + k - 1
            prof = cactus_profile(g)
            assert prof.is_cactus
            assert len(prof.cycle_edge_sets) == k

    def test_tight_vertex_budget_forces_triangles(self):
        g = random_cactus(7, 3, seed=11)
        prof = cactus_profile(g)
        assert sorted(len(s) for s in prof.cycle_edge_sets) == [3, 3, 3]

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            random_cactus(4, 2, seed=0)

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(1, 9) for k in range(n) if is_feasible(n, k)]
    )
    def test_every_class_is_reached(self, n, k):
        # Cycles joined by a bridge or a path need pendant steps between
        # cycle steps; the sampler must reach those classes too.  Seeds
        # needed at n = 8, k = 0..3: 1090, 1680, 3543 and 181.
        missing = {certificate(g) for g in cactus_classes(n, k)}
        for seed in range(4000 if n == 8 else 2000):
            missing.discard(certificate(random_cactus(n, k, seed=seed)))
            if not missing:
                break
        assert not missing
