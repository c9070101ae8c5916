"""Claim audits and the verification reports built from them."""

import json

import pytest

import samples
from spies import count_calls_on as _count_calls_on
from szegedtools import (
    CLAIM_IDS,
    FamilyRef,
    InfeasibleError,
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
    edge_revised_szeged,
    emit_graph6,
    feasible_pairs,
    graph_from_edges,
    inner_cut_edge_bound,
    is_quadrangle_bundle,
    quadrangle_bundle,
    minimum_bound,
    mix_closed_form,
    parse_graph6,
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

    def test_samples_need_three_vertices(self):
        with pytest.raises(ValueError, match="sample_max_n must be at least 3"):
            list(Universe(samples=2, sample_max_n=2).graphs())

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


class TestEmptyUniverse:
    """A universe with nothing to check raises, as ``search_extremal`` does
    on an empty class list, rather than passing with nothing checked."""

    @pytest.mark.parametrize("claim", AUDITORS)
    @pytest.mark.parametrize(
        "universe", [Universe(), Universe(pairs=((5, 3),))], ids=["empty", "infeasible"]
    )
    def test_lemma_without_graphs(self, claim, universe):
        with pytest.raises(InfeasibleError, match="holds no graphs"):
            verify_claim(claim, universe)

    @pytest.mark.parametrize("universe", [Universe(), Universe(samples=50)])
    def test_minimum_without_pairs(self, universe):
        with pytest.raises(InfeasibleError, match="no \\(n, k\\) pairs"):
            verify_claim("thm3.2", universe)


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

    @pytest.mark.parametrize("claim", ["thm4.4", "lemma9.9"])
    def test_verify_claim_rejects_other_claims(self, claim):
        # thm4.4 is checked per (n, k) by verify_second_minimum instead.
        with pytest.raises(ValueError) as info:
            verify_claim(claim, Universe(pairs=((9, 2),)))
        message = str(info.value)
        assert all(c in message for c in (*AUDITORS, "thm3.2", repr(claim)))
        assert ("verify_second_minimum" in message) == (claim == "thm4.4")


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
            lambda m, k: (case._replace(family=quadrangles), bound),
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
                case._replace(family=quadrangles),
                QuarterInt(105),
            ),
        )
        report = verify_minimum_exhaustive(5, 1)
        assert _violations(report) == [
            ("exhaustive minimum differs from bound", "D@{"),
            ("minimizer outside the predicted family", "D@{"),
        ]
        assert _failures(report) == (["D@{"], [])

    def test_tied_minimum_is_a_finding_and_extra_minimizers_violate(
        self, monkeypatch
    ):
        # As at (12, 4), where four classes tie at m = 15: the tie is a
        # finding, and each minimizer outside the one family the theorem
        # names is a violation.  Here the runner-up DBk is made to tie.
        real = verify.search_extremal(5, 1)
        (least,) = real.min_witnesses
        (other,) = real.second_witnesses
        tied = real._replace(
            min_witnesses=(least, other._replace(value=least.value)),
            min_tied=True,
        )
        monkeypatch.setattr(verify, "search_extremal", lambda n, k, cap: tied)
        report = verify_minimum_exhaustive(5, 1)
        assert not report.passed
        assert _violations(report) == [
            ("minimizer outside the predicted family", "DBk")
        ]
        assert report.findings == ("2 classes tie at the minimum D@{, DBk",)
        assert _failures(report) == (["DBk"], [])

    def test_merged_sweep_keeps_every_pairs_output(self, monkeypatch):
        def wrong(m, k):
            case, bound = minimum_bound(m, k)
            tie = case._replace(tied_t=(0, 1))
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


def _records(report):
    """Each violation's items in order, as the human report prints them."""
    return [list(v.items()) for v in report.violations]


class TestClosedFormViolations:
    """Every violation kind of the formula audit and the stress check, each
    reached by a wrong closed form and pinned key by key.  (20, 1) has
    m = 20, in the big-m case; (14, 3) has m = 16, in the small-m case."""

    def test_case_value_differs_from_direct_mix_minimum(self, monkeypatch):
        case, bound = minimum_bound(16, 2)
        wrong = QuarterInt(bound.num + 4)
        monkeypatch.setattr(verify, "minimum_bound", lambda m, k: (case, wrong))
        report = verify_minimum_formula(16, 2)
        assert _records(report) == [
            [
                ("graph6", None),
                ("kind", "case value differs from direct mix minimum"),
                ("case_value", wrong.to_dict()),
                ("direct_minimum", bound.to_dict()),
            ]
        ]
        assert report.checked == 3 and not report.passed

    def test_runner_up_family_value_differs(self, monkeypatch):
        case, bound = second_minimum_bound(20, 1)
        quadrangles = FamilyRef(kind="quadrangle_bundle", n=20, k=1)
        monkeypatch.setattr(
            verify,
            "second_minimum_bound",
            lambda m, k: (case._replace(family=quadrangles), bound),
        )
        report = verify_second_minimum(20, 1, samples=0)
        g = quadrangle_bundle(20, 1)
        assert _records(report) == [
            [
                ("graph6", emit_graph6(g)),
                ("kind", "runner-up family value differs from closed form"),
                ("bound", bound.to_dict()),
                ("direct", edge_revised_szeged(g).to_dict()),
            ]
        ]
        assert not any("confirmed directly" in f for f in report.findings)

    def test_big_m_bound_differs_from_tail_floor(self, monkeypatch):
        _, bound = second_minimum_bound(20, 1)
        wrong = QuarterInt(inner_cut_edge_bound(20, 1).num + 4)
        monkeypatch.setattr(verify, "inner_cut_edge_bound", lambda m, k: wrong)
        report = verify_second_minimum(20, 1, samples=0)
        assert _records(report) == [
            [
                ("graph6", None),
                ("kind", "big-m bound differs from tail floor identity"),
                ("bound", bound.to_dict()),
                ("tail_floor", wrong.to_dict()),
            ]
        ]
        assert f"tail floor (all-quadrangle form plus m-2) = {wrong}" in (
            report.findings
        )

    def test_small_m_bound_differs_from_one_triangle_mix(self, monkeypatch):
        _, bound = second_minimum_bound(16, 3)
        wrong = QuarterInt(mix_closed_form(1, 3, 16).num + 4)
        monkeypatch.setattr(verify, "mix_closed_form", lambda t, k, m: wrong)
        report = verify_second_minimum(14, 3, samples=0)
        assert _records(report) == [
            [
                ("graph6", None),
                ("kind", "small-m bound differs from one-triangle mix"),
                ("bound", bound.to_dict()),
                ("mix_floor", wrong.to_dict()),
            ]
        ]
        assert f"runner-up family value confirmed directly: {bound}" in (
            report.findings
        )

    @pytest.mark.parametrize(
        "n, k, kind",
        [(20, 1, "crossover not positive at m=20"), (14, 3, "crossover not negative at m=16")],
    )
    def test_crossover_sign(self, monkeypatch, n, k, kind):
        monkeypatch.setattr(verify, "crossover", lambda m: QuarterInt(0))
        report = verify_second_minimum(n, k, samples=0)
        assert _records(report) == [[("graph6", None), ("kind", kind)]]

    def test_non_bundle_sample_below_the_bound(self, monkeypatch):
        # A bound above every sample: each one is a stray, and the runner-up
        # family and the tail floor miss it too.
        case, bound = second_minimum_bound(20, 1)
        high = QuarterInt(4 * 10**6)
        monkeypatch.setattr(
            verify, "second_minimum_bound", lambda m, k: (case, high)
        )
        report = verify_second_minimum(20, 1, samples=5, seed=2)
        assert _records(report)[:2] == [
            [
                ("graph6", emit_graph6(tailed_quadrangle_bundle(20, 1))),
                ("kind", "runner-up family value differs from closed form"),
                ("bound", high.to_dict()),
                ("direct", bound.to_dict()),
            ],
            [
                ("graph6", None),
                ("kind", "big-m bound differs from tail floor identity"),
                ("bound", high.to_dict()),
                ("tail_floor", bound.to_dict()),
            ],
        ]
        strays = report.violations[2:]
        assert len(strays) == 5
        for v in strays:
            g = parse_graph6(v["graph6"])
            assert (g.n, len(g.edges)) == (20, 20)
            assert not is_quadrangle_bundle(g, 1)
            assert list(v.items()) == [
                ("graph6", v["graph6"]),
                ("kind", "non-bundle sample below the runner-up bound"),
                ("value", edge_revised_szeged(g).to_dict()),
                ("bound", high.to_dict()),
            ]
        assert report.findings[-1] == (
            "stress search: 5 samples, 5 below the bound, "
            "5 of them outside the quadrangle bundle family"
        )


SAMPLED = Universe(samples=100, seed=0)


class TestLemmasInTheirDomain:
    """Lemmas 4.1–4.3 claim their floors only where m > 15 and m > 4k,
    which needs n >= 14, past the exhaustive cap; random draws with
    n <= 40 reach it."""

    @pytest.mark.parametrize("claim", ["lemma4.1", "lemma4.2", "lemma4.3"])
    def test_sampled_sweep_judges_graphs_in_the_domain(self, claim):
        audits = [AUDITORS[claim](g) for g in SAMPLED.graphs()]
        applicable = [a for a in audits if a.applicable]
        judged = [a for a in applicable if a.in_domain]
        assert judged and all(a.floor is not None and a.holds for a in judged)
        assert all(a.ok for a in judged)
        report = verify_claim(claim, SAMPLED)
        assert report.passed and report.checked == 100
        assert report.findings == (
            f"{len(applicable) - len(judged)} applicable graphs fall outside "
            "the m > 15, m > 4k domain; compared informationally only",
        )


class TestLemmaViolations:
    """Each violation kind of ``verify_claim``, reached by a wrong floor."""

    def test_raised_floor_is_violated_in_the_domain_only(self, monkeypatch):
        audits = map(audit_inner_cut_edge_floor, SAMPLED.graphs())
        applicable = [a for a in audits if a.applicable]
        top = max(a.value.num for a in applicable)
        monkeypatch.setattr(
            verify, "inner_cut_edge_bound", lambda m, k: QuarterInt(top + 1)
        )
        report = verify_claim("lemma4.1", SAMPLED)
        judged = [a.graph6 for a in applicable if a.in_domain]
        assert judged
        assert _violations(report) == [("bound violated", g6) for g6 in judged]
        assert _failures(report) == ([], [])

    def test_floor_at_a_non_family_value(self, monkeypatch):
        # Equality at a graph outside the tailed quadrangle family breaks
        # the forward direction; every graph of its (m, k) below that value
        # breaks the bound.
        judged = [
            a
            for a in map(audit_inner_cut_edge_floor, SAMPLED.graphs())
            if a.applicable and a.in_domain
        ]
        top = max(judged, key=lambda a: a.value)
        assert not top.matches_family
        monkeypatch.setattr(
            verify,
            "inner_cut_edge_bound",
            lambda m, k: top.value
            if (m, k) == (top.m, top.k)
            else inner_cut_edge_bound(m, k),
        )
        report = verify_claim("lemma4.1", SAMPLED)
        below = [
            ("bound violated", a.graph6)
            for a in judged
            if (a.m, a.k) == (top.m, top.k) and a.value < top.value
        ]
        assert sorted(_violations(report)) == sorted(
            below + [("equality without claimed structure", top.graph6)]
        )
        assert _failures(report) == ([top.graph6], [])

    def test_family_member_above_a_lowered_floor(self, monkeypatch):
        # The tailed quadrangle bundle at (17, 4), m = 20, is in the domain.
        g = tailed_quadrangle_bundle(17, 4)
        assert audit_inner_cut_edge_floor(g).ok
        monkeypatch.setattr(
            verify,
            "inner_cut_edge_bound",
            lambda m, k: QuarterInt(inner_cut_edge_bound(m, k).num - 4),
        )
        audit = audit_inner_cut_edge_floor(g)
        assert (audit.in_domain, audit.matches_family) == (True, True)
        assert (audit.holds, audit.equality) == (True, False)
        assert (audit.fwd_ok, audit.bwd_ok, audit.ok) == (True, False, False)

    def test_every_kind_in_one_sweep(self, monkeypatch):
        # At (4, 0) the star CF (15/4) is the bundle and the path CL (19/4)
        # is not. A floor at the path's value puts equality on the path and
        # the star below the floor.
        monkeypatch.setattr(
            verify, "bundle_closed_form", lambda lengths, m: QuarterInt(19)
        )
        report = verify_claim("lemma3.1", Universe(pairs=((4, 0),)))
        assert _violations(report) == [
            ("bound violated", "CF"),
            ("claimed structure without equality", "CF"),
            ("equality without claimed structure", "CL"),
        ]
        assert _failures(report) == (["CL"], ["CF"])
        assert not report.passed


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

    def test_closed_form_checks_past_the_cap(self):
        # Every pair past the cap, without samples: inside m > 15, m > 4k
        # the four closed-form checks run and name the runner-up, the tail
        # floor and the empty stress search, in that order; outside, none.
        for n in range(11, 41):
            for k in range((n - 1) // 2 + 1):
                m = n + k - 1
                report = verify_second_minimum(n, k, samples=0, cap=10)
                assert report.passed, (n, k)
                case, bound = second_minimum_bound(m, k)
                if not (m > 15 and m > 4 * k and k >= 1):
                    assert report.checked == 0, (n, k)
                    assert report.findings == (
                        f"bound not applicable at (m,k)=({m},{k}): {case.note}",
                    )
                    continue
                if m >= 20 and n < 3 * k + 3:
                    runner = (
                        f"runner-up family infeasible at (n,k)=({n},{k}): "
                        "predicted runner-up needs n >= 3k+3; no pendant is "
                        "left to extend at this size"
                    )
                else:
                    runner = f"runner-up family value confirmed directly: {bound}"
                assert report.checked == 4, (n, k)
                assert report.findings == (
                    runner,
                    "tail floor (all-quadrangle form plus m-2) = "
                    f"{inner_cut_edge_bound(m, k)}",
                    "stress search: 0 samples, 0 below the bound, "
                    "0 of them outside the quadrangle bundle family",
                ), (n, k)
