"""End-to-end acceptance gate for the toolkit.

Each test here is one headline guarantee, checked at exact integer tolerance:
quarter-integer values compare by equality, never approximately.  Expected
values were frozen only after an independent brute-force oracle (tests/
oracles.py) reproduced them.
"""

import json
import random

import pytest

import oracles
from szegedtools import (
    BundleSpec,
    InfeasibleError,
    QuarterInt,
    Universe,
    as_bundle,
    audit_bundle_floor,
    bundle,
    bundle_closed_form,
    cactus_classes,
    certificate,
    crossover,
    cycle,
    diff_square_sum,
    edge_revised_szeged,
    feasible_pairs,
    graph_from_edges,
    minimum_bound,
    quadrangle_bundle,
    random_cactus,
    search_extremal,
    tailed_quadrangle_bundle,
    triangle_bundle,
    verify_claim,
    verify_minimum_exhaustive,
    verify_minimum_formula,
    verify_second_minimum,
)


def test_01_cube_identity_on_every_cactus_through_n8():
    # 4 * Sz*e == m^3 - sum over edges of (m_u - m_v)^2, with no tolerance
    total = 0
    for n, k in feasible_pairs(8):
        for g in cactus_classes(n, k):
            m = g.m
            assert edge_revised_szeged(g) * 4 == QuarterInt(
                4 * (m**3 - diff_square_sum(g))
            ), (n, k, certificate(g))
            total += 1
    # 103 classes with n <= 7 plus 188 at n = 8
    assert total == 291


GOLDEN = [
    ("triangle", lambda: cycle(3), QuarterInt(27)),
    ("quadrangle", lambda: cycle(4), QuarterInt(64)),
    ("paw", lambda: triangle_bundle(4, 1), QuarterInt(53)),
    ("triangle bundle (5,1)", lambda: triangle_bundle(5, 1), QuarterInt(85)),
    ("quadrangle bundle (5,1)", lambda: quadrangle_bundle(5, 1), QuarterInt(105)),
    ("butterfly", lambda: triangle_bundle(5, 2), QuarterInt(180)),
    ("pentagon", lambda: cycle(5), QuarterInt(125)),
]


@pytest.mark.parametrize("name, factory, want", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_02_golden_values_match_frozen_constants_and_oracle(name, factory, want):
    g = factory()
    got = edge_revised_szeged(g)
    assert got == want
    assert got.as_fraction() == oracles.edge_revised_szeged(g.n, g.edges)
    # the quadrangle and butterfly values are whole numbers
    if name == "quadrangle":
        assert got == 16
    if name == "butterfly":
        assert got == 45


SMALL_MINIMUM_PAIRS = [
    (4, 1), (5, 1), (6, 1), (7, 1), (8, 1),
    (5, 2), (6, 2), (7, 2), (8, 2),
    (7, 3), (8, 3),
]


@pytest.mark.parametrize("n, k", SMALL_MINIMUM_PAIRS)
def test_03_small_m_minimum_is_uniquely_the_triangle_bundle(n, k):
    m = n + k - 1
    case, bound = minimum_bound(m, k)
    assert case.case == "3.2-iii"

    report = search_extremal(n, k)
    assert report.min_value == bound
    assert not report.min_tied
    assert len(report.min_witnesses) == 1
    want_cert = certificate(triangle_bundle(n, k)).decode("ascii")
    assert report.min_witnesses[0].certificate == want_cert

    verification = verify_minimum_exhaustive(n, k)
    assert verification.passed
    assert verification.violations == ()
    assert verification.equality_audit["fwd"]["failures"] == []
    assert verification.equality_audit["bwd"]["failures"] == []


LEMMA_UNIVERSE = Universe(
    pairs=feasible_pairs(7), samples=1000, sample_max_n=40, seed=0
)


def test_04a_pendant_edge_gap_law_holds_everywhere():
    report = verify_claim("lemma2.1", LEMMA_UNIVERSE)
    assert report.passed
    assert report.violations == ()
    # 103 exhaustive classes with n <= 7, plus the 1000 random draws
    assert report.checked == 1103
    assert report.equality_audit["fwd"]["failures"] == []
    assert report.equality_audit["bwd"]["failures"] == []


def test_04b_cycle_gap_law_holds_everywhere():
    report = verify_claim("lemma2.2-2.3", LEMMA_UNIVERSE)
    assert report.passed
    assert report.violations == ()
    assert report.checked == 1103
    assert report.equality_audit["fwd"]["failures"] == []
    assert report.equality_audit["bwd"]["failures"] == []


def _random_bundle_spec(rng):
    while True:
        k = rng.randint(0, 6)
        lengths = tuple(sorted(rng.randint(3, 9) for _ in range(k)))
        if sum(lengths) > 60:
            continue
        pendants = rng.randint(0, 60 - sum(lengths))
        if sum(lengths) + pendants >= 1:
            return BundleSpec(lengths, pendants)


def test_05a_closed_form_equals_direct_value_on_200_random_bundles():
    rng = random.Random(20240817)
    for _ in range(200):
        spec = _random_bundle_spec(rng)
        g = bundle(spec)
        assert g.m <= 60
        assert bundle_closed_form(spec.cycle_lengths, g.m) == edge_revised_szeged(g)


def test_05b_non_bundles_sit_strictly_above_the_floor():
    rng = random.Random(911)
    checked = 0
    while checked < 200:
        n = rng.randint(4, 30)
        k = rng.randint(0, (n - 1) // 2)
        g = random_cactus(n, k, seed=rng.randrange(2**63))
        if as_bundle(g) is not None:
            continue
        audit = audit_bundle_floor(g)
        assert not audit.is_bundle
        assert audit.value > audit.floor, certificate(g) if g.n <= 12 else g.edges
        checked += 1


def test_06_second_minimum_formula_identities_and_crossover():
    infeasible_tail_cells = set()
    for m in range(16, 25):
        for k in range(1, (m - 1) // 4 + 1):
            n = m - k + 1
            tail_value = QuarterInt(2 * m * m + 3 * m + 4 * k * (6 * m - 15) - 8)
            if m == 4 * k + 1:
                # the tailed family needs a spare pendant; none exists here
                with pytest.raises(InfeasibleError):
                    tailed_quadrangle_bundle(n, k)
                infeasible_tail_cells.add((m, k))
            else:
                g = tailed_quadrangle_bundle(n, k)
                assert (g.n, g.m) == (n, m)
                assert edge_revised_szeged(g) == tail_value

            mix_value = QuarterInt(3 * m * m - 19 * m + 4 * k * (6 * m - 15) + 45)
            h = bundle(BundleSpec((3,) + (4,) * (k - 1), m - (4 * k - 1)))
            assert h.m == m
            assert edge_revised_szeged(h) == mix_value
    assert infeasible_tail_cells == {(17, 4), (21, 5)}

    for m in range(16, 20):
        assert crossover(m) < 0
    for m in range(20, 25):
        assert crossover(m) > 0


def test_07_desk_scale_second_minimum_matches_brute_force():
    report = search_extremal(4, 1)
    assert report.second_value == 16
    assert report.second_witnesses[0].certificate == certificate(cycle(4)).decode(
        "ascii"
    )

    report = search_extremal(5, 1)
    assert report.second_value == QuarterInt(91)
    spread = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])
    assert report.second_witnesses[0].certificate == certificate(spread).decode(
        "ascii"
    )


def test_08a_boundary_tie_is_reported_at_m15():
    report = verify_minimum_formula(15, 2)
    assert report.passed
    assert any(
        "tie among t in {0, 1, 2}" in f and "slope 0/4" in f
        for f in report.findings
    )


def test_08b_exact_runner_up_equals_the_bound_past_the_cap():
    # Past the cap, by the block identity: the big-m case at (20, 1) and
    # (17, 4), the small-m case at (14, 3), with no graph enumerated.
    for (n, k), second in (((20, 1), 1272), ((17, 4), 2532), ((14, 3), 1481)):
        report = verify_second_minimum(n, k)
        assert report.passed and report.violations == ()
        assert report.findings[-1].startswith(f"exact runner-up {second}/4, ")


def test_08c_exact_report_is_reproducible_byte_for_byte():
    first = verify_second_minimum(20, 1)
    second = verify_second_minimum(20, 1)
    a = json.dumps(first.to_dict(), sort_keys=True).encode("utf-8")
    b = json.dumps(second.to_dict(), sort_keys=True).encode("utf-8")
    assert a == b
