"""Claim audits and the verification reports built from them."""

import dataclasses
import json

import pytest

import samples
from spies import count_calls_on as _count_calls_on
from szegedtools import (
    CLAIM_IDS,
    FamilyRef,
    InvalidGraphError,
    QuarterInt,
    Universe,
    audit_bundle_floor,
    audit_cycle_gaps,
    audit_inner_cut_edge_floor,
    audit_inner_cycle_floor,
    audit_off_quadrangle_floor,
    audit_pendant_edges,
    cycle,
    feasible_pairs,
    graph_from_edges,
    quadrangle_bundle,
    minimum_bound,
    second_minimum_bound,
    star,
    tailed_quadrangle_bundle,
    triangle_bundle,
    verify_claim,
    verify_minimum_exhaustive,
    verify_minimum_formula,
    verify_second_minimum,
)
from szegedtools import canon, graphs, verify
from szegedtools.verify import AUDITORS


class TestPendantEdgeAudit:
    def test_paw_records(self):
        audit = audit_pendant_edges(samples.paw())
        got = [(r.edge, r.gap_sq, r.bound, r.equality, r.pendant) for r in audit.records]
        assert got == [
            ((0, 1), 1, 9, False, False),
            ((0, 2), 1, 9, False, False),
            ((0, 3), 9, 9, True, True),
            ((1, 2), 0, 9, False, False),
        ]
        assert audit.holds and audit.fwd_ok and audit.bwd_ok and audit.ok

    def test_star_all_pendant_all_tight(self):
        audit = audit_pendant_edges(star(4))
        assert all(r.equality and r.pendant for r in audit.records)
        assert audit.ok

    def test_cycle_has_slack_everywhere(self):
        audit = audit_pendant_edges(cycle(5))
        assert all(not r.equality and not r.pendant for r in audit.records)
        assert audit.ok

    def test_to_dict(self):
        d = audit_pendant_edges(samples.paw()).to_dict()
        assert d["m"] == 4
        assert len(d["records"]) == 4


class TestCycleGapAudit:
    def test_lone_quadrangle_with_pendant(self):
        audit = audit_cycle_gaps(quadrangle_bundle(5, 1))
        got = [(r.length, r.gap_sum, r.bound, r.equality, r.end_block) for r in audit.records]
        assert got == [(4, 4, 4, True, True)]
        assert audit.ok

    def test_two_end_triangles_are_tight(self):
        audit = audit_cycle_gaps(samples.two_triangles_bridge())
        got = [(r.length, r.gap_sum, r.bound, r.equality, r.end_block) for r in audit.records]
        assert got == [(3, 32, 32, True, True), (3, 32, 32, True, True)]
        assert audit.ok

    def test_non_end_block_cycle_has_slack(self):
        audit = audit_cycle_gaps(samples.c4_opposite())
        got = [(r.length, r.gap_sum, r.bound, r.equality, r.end_block) for r in audit.records]
        assert got == [(4, 0, 16, False, False)]
        assert audit.ok

    def test_rejects_non_cactus(self):
        with pytest.raises(InvalidGraphError):
            audit_cycle_gaps(samples.k4())


class TestBundleFloorAudit:
    def test_bundle_attains_floor(self):
        audit = audit_bundle_floor(samples.butterfly())
        assert audit.is_bundle
        assert audit.equality
        assert audit.value == audit.floor == QuarterInt(180)
        assert audit.ok

    def test_non_bundle_sits_strictly_above(self):
        audit = audit_bundle_floor(samples.two_triangles_bridge())
        assert not audit.is_bundle
        assert audit.value == QuarterInt(279)
        assert audit.floor == QuarterInt(243)
        assert not audit.equality
        assert audit.ok


class TestStructuralFloorAudits:
    def test_tail_attains_inner_cut_edge_floor(self):
        audit = audit_inner_cut_edge_floor(tailed_quadrangle_bundle(6, 1))
        assert audit.applicable
        assert audit.value == audit.floor == QuarterInt(166)
        assert audit.matches_family
        assert audit.ok

    def test_not_applicable_when_all_cut_edges_pendant(self):
        audit = audit_inner_cut_edge_floor(samples.butterfly())
        assert not audit.applicable
        assert audit.ok

    def test_off_quadrangle_applies_to_triangle_graphs(self):
        audit = audit_off_quadrangle_floor(samples.butterfly())
        assert audit.applicable
        audit = audit_off_quadrangle_floor(quadrangle_bundle(9, 2))
        assert not audit.applicable

    def test_off_quadrangle_with_too_few_vertices_for_the_bundle(self):
        # n < 3k leaves the one-triangle bundle a negative pendant count.
        chain = graph_from_edges(
            7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4),
                (4, 5), (5, 6), (4, 6)]
        )
        audit = audit_off_quadrangle_floor(chain)
        assert audit.applicable
        assert not audit.matches_family
        assert audit.family.pendants == -2
        assert audit.ok

    def test_inner_cycle_applies_to_spread_attachments(self):
        audit = audit_inner_cycle_floor(samples.c4_opposite())
        assert audit.applicable
        assert audit.value == QuarterInt(166)
        assert audit.value >= audit.floor
        assert audit.ok
        audit = audit_inner_cycle_floor(samples.butterfly())
        assert not audit.applicable


def test_six_audits_share_one_analysis_per_graph(monkeypatch):
    # A triangle with both a two-edge tail and a pendant: it has a
    # non-pendant cut edge, an odd cycle, and a cycle that is no end-block,
    # so every structural hypothesis applies and every audit does its work.
    g = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (1, 3), (3, 4), (2, 5)])
    blocks = _count_calls_on(monkeypatch, graphs.block_decomposition, g)
    # On a cactus the cycles, the bridges and every distance fact come from
    # one linear pass: no block decomposition and no all-pairs BFS at all.
    bfs = _count_calls_on(monkeypatch, graphs.all_bfs_distances, g)
    passes = _count_calls_on(monkeypatch, graphs._cactus_distances, g)
    # Family membership is decided on g's own structure: no canonical
    # search and no new graph, such as a reference bundle or a peeled copy.
    canon_calls = _count_calls_on(monkeypatch, canon.canonical_pair)
    built = []
    init = graphs.Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(graphs.Graph, "__init__", counting_init)
    audits = [auditor(g) for auditor in AUDITORS.values()]
    assert all(a.applicable for a in audits)
    assert (len(blocks), len(bfs), len(passes)) == (0, 0, 1)
    assert (len(canon_calls), len(built)) == (0, 0)


UNIVERSE_5 = Universe(pairs=feasible_pairs(5))


class TestClaimSweeps:
    @pytest.mark.parametrize("claim", AUDITORS)
    def test_small_exhaustive_sweeps_pass(self, claim):
        report = verify_claim(claim, UNIVERSE_5)
        assert report.claim == claim
        assert report.passed
        assert report.violations == ()
        assert report.checked > 0

    def test_random_sample_sweep_passes(self):
        universe = Universe(samples=40, sample_max_n=25, seed=5)
        report = verify_claim("lemma2.1", universe)
        assert report.passed
        assert report.checked == 40
        assert report.seed == 5

    def test_sweep_universe_combines_both(self):
        universe = Universe(
            pairs=feasible_pairs(4), samples=5, seed=9, sample_max_n=12
        )
        assert universe.pairs == feasible_pairs(4)
        assert universe.samples == 5
        report = verify_claim("lemma2.2-2.3", universe)
        assert report.passed

    def test_report_schema(self):
        report = verify_claim("lemma2.1", UNIVERSE_5)
        d = report.to_dict()
        assert sorted(d.keys()) == [
            "checked",
            "claim",
            "equality_audit",
            "findings",
            "seed",
            "universe",
            "violations",
        ]
        assert sorted(d["equality_audit"].keys()) == ["bwd", "fwd"]
        json.dumps(d, sort_keys=True)


class TestClaimIds:
    def test_frozen(self):
        assert CLAIM_IDS == (
            "lemma2.1",
            "lemma2.2-2.3",
            "lemma3.1",
            "lemma4.1",
            "lemma4.2",
            "lemma4.3",
            "thm3.2",
            "thm4.4",
        )


class TestMinimumFormula:
    def test_boundary_tie_is_reported(self):
        report = verify_minimum_formula(15, 2)
        assert report.passed
        assert any("tie among t in {0, 1, 2}" in f for f in report.findings)
        assert any("slope 0/4" in f for f in report.findings)

    def test_no_tie_off_the_boundary(self):
        report = verify_minimum_formula(16, 1)
        assert report.passed
        assert report.findings == ()

    def test_small_m_formula_checks_out(self):
        report = verify_minimum_formula(9, 2)
        assert report.passed


class TestMinimumExhaustive:
    @pytest.mark.parametrize("n, k", [(4, 1), (5, 1), (6, 2), (7, 2)])
    def test_predicted_family_is_unique_minimizer(self, n, k):
        report = verify_minimum_exhaustive(n, k)
        assert report.passed
        assert report.violations == ()
        assert report.equality_audit["fwd"]["failures"] == []
        assert report.equality_audit["bwd"]["failures"] == []

    def test_checked_counts_classes(self):
        report = verify_minimum_exhaustive(5, 1)
        assert report.checked == 5

    def test_claim_sweep_of_one_pair_is_that_pairs_report(self):
        report = verify_claim("thm3.2", Universe(pairs=((6, 2),)))
        assert report == verify_minimum_exhaustive(6, 2)

    def test_claim_sweep_merges_several_pairs(self):
        pairs = ((4, 1), (5, 1), (5, 2))
        parts = [verify_minimum_exhaustive(n, k) for n, k in pairs]
        report = verify_claim("thm3.2", Universe(pairs=pairs, samples=9))
        assert report.claim == "thm3.2"
        assert report.universe == "; ".join(p.universe for p in parts)
        assert report.checked == sum(p.checked for p in parts) == 8
        assert report.passed
        assert report.seed is None
        assert report.equality_audit == {
            "fwd": {"statement": "merged", "failures": []},
            "bwd": {"statement": "merged", "failures": []},
        }


def _violations(report):
    return [(v["kind"], v["graph6"]) for v in report.violations]


def _failures(report):
    audit = report.equality_audit
    return audit["fwd"]["failures"], audit["bwd"]["failures"]


class TestTheoremViolations:
    """Every violation kind of the two exhaustive theorem checks, reached at
    (n, k) = (5, 1) by a wrong closed form.  The class minimum there is the
    paw with a pendant at its hub, D@{ (85/4), and the runner-up is DBk
    (91/4); the triangle bundle builds as D{_, the quadrangle bundle as Dl_
    (105/4)."""

    def test_wrong_minimum_value(self, monkeypatch):
        case, bound = minimum_bound(5, 1)
        wrong = QuarterInt(bound.num + 4)
        monkeypatch.setattr(verify, "minimum_bound", lambda m, k: (case, wrong))
        report = verify_minimum_exhaustive(5, 1)
        assert not report.passed
        assert _violations(report) == [
            ("exhaustive minimum differs from bound", "D@{"),
            ("predicted family misses the bound value", "D{_"),
        ]
        assert report.violations[0]["minimum"] == bound.to_dict()
        assert report.violations[1]["family_value"] == bound.to_dict()
        assert _failures(report) == ([], ["D{_"])

    def test_wrong_family(self, monkeypatch):
        case, bound = minimum_bound(5, 1)
        quadrangles = FamilyRef(kind="quadrangle_bundle", n=5, k=1)
        monkeypatch.setattr(
            verify,
            "minimum_bound",
            lambda m, k: (dataclasses.replace(case, family=quadrangles), bound),
        )
        report = verify_minimum_exhaustive(5, 1)
        assert _violations(report) == [
            ("predicted family misses the bound value", "Dl_"),
            ("minimizer outside the predicted family", "D@{"),
        ]
        assert report.violations[0]["family_value"] == QuarterInt(105).to_dict()
        assert _failures(report) == (["D@{"], ["Dl_"])

    def test_wrong_family_at_its_value(self, monkeypatch):
        # The quadrangle bundle attains the wrong bound, so only the
        # exhaustive minimum and its minimizer contradict the claim.
        case, _ = minimum_bound(5, 1)
        quadrangles = FamilyRef(kind="quadrangle_bundle", n=5, k=1)
        monkeypatch.setattr(
            verify,
            "minimum_bound",
            lambda m, k: (
                dataclasses.replace(case, family=quadrangles),
                QuarterInt(105),
            ),
        )
        report = verify_minimum_exhaustive(5, 1)
        assert _violations(report) == [
            ("exhaustive minimum differs from bound", "D@{"),
            ("minimizer outside the predicted family", "D@{"),
        ]
        assert _failures(report) == (["D@{"], [])

    def test_merged_sweep_keeps_every_pairs_output(self, monkeypatch):
        def wrong(m, k):
            case, bound = minimum_bound(m, k)
            tie = dataclasses.replace(case, tied_t=(0, 1))
            return tie, QuarterInt(bound.num + 4)

        monkeypatch.setattr(verify, "minimum_bound", wrong)
        pairs = ((4, 1), (5, 1))
        parts = [verify_minimum_exhaustive(n, k) for n, k in pairs]
        report = verify_claim("thm3.2", Universe(pairs=pairs))
        assert report.violations == parts[0].violations + parts[1].violations
        assert [v[0] for v in _violations(report)] == [
            "exhaustive minimum differs from bound",
            "predicted family misses the bound value",
        ] * 2
        assert [f.split(": tie among t in {0, 1}: ")[0] for f in report.findings] == [
            "exhaustive (n,k)=(4,1), 2 classes",
            "exhaustive (n,k)=(5,1), 5 classes",
        ]
        assert _failures(report) == ([], ["C{", "D{_"])

    def test_wrong_second_value(self, monkeypatch):
        case, _ = second_minimum_bound(5, 1)
        monkeypatch.setattr(
            verify, "second_minimum_bound", lambda m, k: (case, QuarterInt(90))
        )
        report = verify_second_minimum(5, 1)
        assert not report.passed
        assert _violations(report) == [
            ("exhaustive second value differs from bound", "DBk")
        ]
        assert report.violations[0]["bound"] == QuarterInt(90).to_dict()
        assert report.violations[0]["second"] == QuarterInt(91).to_dict()
        assert report.equality_audit is None


class TestSecondMinimum:
    def test_out_of_domain_is_informational(self):
        report = verify_second_minimum(7, 1)
        assert report.passed
        assert any("domain" in f for f in report.findings)
        assert any("observed second value 185/4" in f for f in report.findings)

    def test_stress_run_passes_and_reports(self):
        report = verify_second_minimum(20, 1, samples=60, seed=0)
        assert report.passed
        assert report.violations == ()
        text = " ".join(report.findings)
        assert "1272/4" in text
        assert "60 samples" in text

    def test_stress_run_is_reproducible(self):
        a = verify_second_minimum(20, 1, samples=50, seed=3)
        b = verify_second_minimum(20, 1, samples=50, seed=3)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_different_seeds_still_pass(self):
        report = verify_second_minimum(21, 2, samples=40, seed=11)
        assert report.passed
