"""Closed-form values and the two extremal lower bounds."""

import random
from itertools import product

import pytest

import oracles
from szegedtools import (
    BoundCase,
    BundleSpec,
    FamilyRef,
    InfeasibleError,
    QuarterInt,
    bundle,
    bundle_closed_form,
    crossover,
    cycle_diff_bound,
    edge_revised_szeged,
    inner_cut_edge_bound,
    inner_cycle_bound,
    minimum_bound,
    mix_closed_form,
    mix_step,
    pendant_diff_bound,
    second_minimum_bound,
)


def random_bundle_spec(rng, max_m=40):
    k = rng.randint(0, 4)
    lengths = tuple(sorted(rng.randint(3, 7) for _ in range(k)))
    used = sum(lengths)
    if used > max_m:
        return random_bundle_spec(rng, max_m)
    pendants = rng.randint(0, max_m - used)
    return BundleSpec(lengths, pendants)


class TestBundleClosedForm:
    def test_golden(self):
        assert bundle_closed_form((3, 3), 7) == QuarterInt(243)
        assert bundle_closed_form((3,), 3) == QuarterInt(27)
        assert bundle_closed_form((4,), 4) == QuarterInt(64)
        assert bundle_closed_form((), 4) == QuarterInt(28)

    def test_matches_direct_value_on_random_bundles(self):
        rng = random.Random(40351)
        for _ in range(60):
            spec = random_bundle_spec(rng)
            g = bundle(spec)
            assert bundle_closed_form(spec.cycle_lengths, g.m) == (
                edge_revised_szeged(g)
            )

    def test_matches_oracle_arithmetic(self):
        rng = random.Random(660)
        for _ in range(10):
            spec = random_bundle_spec(rng, max_m=25)
            g = bundle(spec)
            want = oracles.edge_revised_szeged(g.n, g.edges)
            assert bundle_closed_form(spec.cycle_lengths, g.m).as_fraction() == want

    def test_rejects_bad_inputs(self):
        with pytest.raises(InfeasibleError):
            bundle_closed_form((2,), 10)
        with pytest.raises(InfeasibleError):
            bundle_closed_form((4, 4), 7)
        with pytest.raises(InfeasibleError):
            bundle_closed_form((), -1)


class TestMix:
    def test_equals_bundle_closed_form(self):
        for m in range(3, 30):
            for k in range(0, m // 3 + 1):
                for t in range(0, k + 1):
                    if 4 * k - t > m:
                        continue
                    lengths = (3,) * t + (4,) * (k - t)
                    assert mix_closed_form(t, k, m) == bundle_closed_form(
                        lengths, m
                    )

    def test_linear_in_triangle_count(self):
        for m in (10, 15, 16, 23):
            k = 3
            if 4 * k > m:
                continue
            for t in range(0, k):
                step = mix_closed_form(t + 1, k, m) - mix_closed_form(t, k, m)
                assert step == mix_step(m)

    def test_step_sign(self):
        assert mix_step(3) == QuarterInt(0)
        assert mix_step(15) == QuarterInt(0)
        assert mix_step(9) == QuarterInt(-36)
        for m in range(4, 15):
            assert mix_step(m) < 0
        for m in range(16, 30):
            assert mix_step(m) > 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(InfeasibleError):
            mix_closed_form(3, 2, 20)
        with pytest.raises(InfeasibleError):
            mix_closed_form(-1, 2, 20)
        with pytest.raises(InfeasibleError):
            mix_closed_form(0, 3, 11)


class TestPerEdgeAndPerCycleBounds:
    def test_pendant_bound(self):
        assert pendant_diff_bound(4) == 9
        assert pendant_diff_bound(1) == 0

    def test_cycle_bound_parity_split(self):
        assert cycle_diff_bound(4, 10) == 4 * 36
        assert cycle_diff_bound(5, 10) == 4 * 25
        assert cycle_diff_bound(3, 4) == 2 * 1

    def test_cycle_bound_rejects(self):
        with pytest.raises(InfeasibleError):
            cycle_diff_bound(2, 10)
        with pytest.raises(InfeasibleError):
            cycle_diff_bound(5, 4)


class TestComponentBounds:
    def test_inner_cut_edge(self):
        assert inner_cut_edge_bound(20, 1) == QuarterInt(1272)
        assert inner_cut_edge_bound(20, 1) == bundle_closed_form((4,), 20) + 18
        with pytest.raises(InfeasibleError):
            inner_cut_edge_bound(4, 1)

    def test_inner_cycle(self):
        assert inner_cycle_bound(20, 1) == QuarterInt(1320)
        assert inner_cycle_bound(20, 1) == bundle_closed_form((4,), 20) + 30
        with pytest.raises(InfeasibleError):
            inner_cycle_bound(3, 1)

    def test_crossover_values_and_signs(self):
        assert crossover(19) == QuarterInt(-4)
        assert crossover(20) == QuarterInt(13)
        for m in range(16, 20):
            assert crossover(m) < 0
        for m in range(20, 40):
            assert crossover(m) > 0


class TestMinimumBound:
    def test_big_m_prefers_all_quadrangles(self):
        case, value = minimum_bound(16, 1)
        assert case.case == "3.2-i"
        assert case.applicable
        assert value == QuarterInt(820)
        assert case.family.kind == "quadrangle_bundle"
        assert case.tied_t == (0,)
        assert case.family_feasible

    def test_small_m_prefers_all_triangles(self):
        case, value = minimum_bound(14, 1)
        assert case.case == "3.2-iii"
        assert value == QuarterInt(643)
        assert case.family.kind == "triangle_bundle"
        assert value == mix_closed_form(1, 1, 14)

    def test_forced_triangles_when_edges_are_scarce(self):
        case, value = minimum_bound(16, 5)
        assert case.case == "3.2-ii"
        assert value == mix_closed_form(4, 5, 16)
        assert case.family.kind == "bundle"
        assert case.family.cycle_lengths == (3, 3, 3, 3, 4)

    def test_boundary_tie_reports_every_mix(self):
        case, value = minimum_bound(15, 2)
        assert case.case == "3.2-i"
        assert value == QuarterInt(1035)
        assert case.tied_t == (0, 1, 2)
        assert case.note is not None

    def test_boundary_tie_in_forced_case(self):
        case, _ = minimum_bound(15, 4)
        assert case.case == "3.2-ii"
        assert case.tied_t == (1, 2, 3, 4)

    def test_value_is_true_min_over_mixes(self):
        for m in range(3, 26):
            for k in range(0, m // 3 + 1):
                case, value = minimum_bound(m, k)
                assert case.applicable
                candidates = [
                    mix_closed_form(t, k, m)
                    for t in range(max(0, 4 * k - m), k + 1)
                ]
                assert value == min(candidates)
                assert set(case.tied_t) == {
                    t
                    for t in range(max(0, 4 * k - m), k + 1)
                    if mix_closed_form(t, k, m) == value
                }

    def test_too_many_cycles_not_applicable(self):
        case, value = minimum_bound(5, 2)
        assert not case.applicable
        assert value is None

    def test_negative_rejected(self):
        with pytest.raises(InfeasibleError):
            minimum_bound(-1, 0)

    def test_case_to_dict(self):
        case, _ = minimum_bound(16, 1)
        d = case.to_dict()
        assert d["theorem"] == "thm3.2"
        assert d["case"] == "3.2-i"
        assert d["family"]["kind"] == "quadrangle_bundle"
        assert d["tied_t"] == [0]


class TestSecondMinimumBound:
    def test_big_m(self):
        case, value = second_minimum_bound(20, 1)
        assert case.case == "4.4-big-m"
        assert value == QuarterInt(1272)
        assert value == inner_cut_edge_bound(20, 1)
        assert case.family.kind == "tailed_quadrangle_bundle"
        assert case.family_feasible

    def test_small_m(self):
        case, value = second_minimum_bound(16, 1)
        assert case.case == "4.4-small-m"
        assert value == QuarterInt(833)
        assert value == mix_closed_form(1, 1, 16)
        assert case.family.kind == "bundle"
        assert case.family.cycle_lengths == (3,)
        assert case.family.pendants == 13

    def test_formula_identities_across_domain(self):
        for m in range(16, 30):
            for k in range(1, (m - 1) // 4 + 1):
                case, value = second_minimum_bound(m, k)
                assert case.applicable
                if m >= 20:
                    assert value == inner_cut_edge_bound(m, k)
                    assert value == bundle_closed_form((4,) * k, m) + (m - 2)
                else:
                    assert value == mix_closed_form(1, k, m)

    def test_family_infeasible_when_no_pendant_remains(self):
        case, value = second_minimum_bound(21, 5)
        assert case.case == "4.4-big-m"
        assert value == QuarterInt(3157)
        assert not case.family_feasible
        assert case.note is not None

    @pytest.mark.parametrize("m, k", [(15, 1), (16, 4), (20, 5), (20, 0)])
    def test_outside_domain(self, m, k):
        case, value = second_minimum_bound(m, k)
        assert not case.applicable
        assert value is None

    def test_negative_rejected(self):
        with pytest.raises(InfeasibleError, match="negative parameters m=0, k=-1"):
            second_minimum_bound(0, -1)

    def test_crossover_orders_the_two_candidates(self):
        # the big-m formula minus the small-m formula equals the crossover
        for m in range(16, 28):
            for k in (1, 2, 3):
                if m <= 4 * k:
                    continue
                big = QuarterInt(2 * m * m + 3 * m + 4 * k * (6 * m - 15) - 8)
                small = QuarterInt(3 * m * m - 19 * m + 4 * k * (6 * m - 15) + 45)
                assert small - big == crossover(m)


class TestClosedFormsForEverySize:
    """Theorem 4.4's closed forms and the bundle forms, proved for every
    size by finitely many values.

    Theorem 4.4's forms are, as written, polynomials in m and k of degree
    at most 2 in m and at most 1 in k (in quarters).  A polynomial of degree
    at most d in each variable that vanishes on a grid of d + 1 values per
    variable is zero (Alon 1999, Combinatorial Nullstellensatz, Lemma 2.1).
    So two such forms that agree on a grid of 3 values of m by 2 values of
    k agree at every (m, k), and a change of any one coefficient by 1
    changes a form by a single nonzero monomial, which no grid point with
    m, k != 0 hides.  The bundle forms are read the same way in the block
    counts (see the test).
    """

    MS, KS = (20, 21, 22), (1, 2)

    def test_big_m_value_is_the_tail_floor(self):
        for m in self.MS:
            for k in self.KS:
                assert second_minimum_bound(m, k)[1] == inner_cut_edge_bound(m, k)

    def test_small_m_value_is_the_one_triangle_mix(self):
        for m in (16, 17, 18):
            for k in self.KS:
                assert second_minimum_bound(m, k)[1] == mix_closed_form(1, k, m)

    def test_small_minus_big_is_the_crossover(self):
        # With the two identities above, the one-triangle mix less the tail
        # floor is the small-m value less the big-m one, at every m.
        for m in self.MS:
            for k in self.KS:
                small, big = mix_closed_form(1, k, m), inner_cut_edge_bound(m, k)
                assert small - big == crossover(m)

    def test_bundle_and_mix_forms_on_every_face(self):
        # The bundle with t triangles, q quadrangles and p pendants, all at
        # the hub: each edge's m_u and m_v are linear in (t, q, p), and each
        # kind of edge comes t, q or p times, so wherever the set of nonzero
        # counts is fixed the index is a polynomial of degree at most 3 in
        # each count, and so are both closed forms with m = 3t + 4q + p.
        # {1..4}^3 proves them for all counts >= 1, and each face where
        # some counts are 0 is the grid {1..4} in the others: {0..4}^3.
        for t, q, p in product(range(5), repeat=3):
            lengths, m = (3,) * t + (4,) * q, 3 * t + 4 * q + p
            value = edge_revised_szeged(bundle(BundleSpec(lengths, p)))
            assert bundle_closed_form(lengths, m) == value, (t, q, p)
            assert mix_closed_form(t, t + q, m) == value, (t, q, p)

    def test_mix_step_factors(self):
        # Both sides have degree 2 in m: three values prove it, and its
        # roots give the sign, negative exactly for 3 < m < 15.
        for m in (0, 1, 2):
            assert mix_step(m) == QuarterInt((m - 3) * (m - 15))

    def test_crossover_sign_by_completing_the_square(self):
        # 4·crossover(m) = (m - 11)^2 - 68, a polynomial of degree 2 in m,
        # and 8^2 < 68 < 9^2: so for integers it is negative exactly when
        # |m - 11| <= 8, that is 3 <= m <= 19, and positive elsewhere.  The
        # big-m case starts at m = 20, where the tail floor is the smaller.
        for m in (0, 1, 2):
            assert crossover(m) == QuarterInt((m - 11) ** 2 - 68)
        assert 8**2 < 68 < 9**2
        assert [m for m in range(-50, 80) if crossover(m) < 0] == list(range(3, 20))


class TestFamilyRef:
    def test_unknown_kind_is_infeasible(self):
        with pytest.raises(InfeasibleError, match="unknown family kind 'nope'"):
            FamilyRef(kind="nope").build()


class TestBoundCase:
    def test_each_case_gets_its_own_flags(self):
        first = BoundCase("thm3.2", None, False)
        second = BoundCase(theorem="thm4.4", case=None, applicable=False)
        assert first.flags == second.flags == {}
        first.flags["m_ge_15"] = True
        assert second.flags == {}

    def test_given_flags_are_kept(self):
        flags = {"m_ge_15": False}
        assert BoundCase("thm3.2", "iii", True, flags).flags is flags
