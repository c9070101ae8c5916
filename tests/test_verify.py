"""Claim audits and the verification reports built from them."""

import json

import pytest

import samples
from spies import count_audits
from spies import count_calls_on as _count_calls_on
from szegedtools import (
    CLAIM_IDS,
    BundleSpec,
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
    as_bundle,
    bundle,
    cycle,
    edge_revised_szeged,
    emit_graph6,
    feasible_pairs,
    graph_from_edges,
    inner_cut_edge_bound,
    is_tailed_quadrangle_bundle,
    quadrangle_bundle,
    minimum_bound,
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
from szegedtools import canon, enumeration, graphs, verify
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
        "universe, match",
        [
            (Universe(), "holds no graphs"),
            (Universe(pairs=((5, 3),)), "no cacti with n = 5, k = 3"),
        ],
        ids=["empty", "infeasible"],
    )
    def test_lemma_without_graphs(self, claim, universe, match):
        with pytest.raises(InfeasibleError, match=match):
            verify_claim(claim, universe)

    @pytest.mark.parametrize("claim", [*AUDITORS, "thm3.2"])
    def test_sweep_with_an_infeasible_pair(self, claim):
        # (5, 1) holds five classes, (3, 2) none: no claim passes on the
        # pair that has no cactus, whatever the other pairs hold.
        universe = Universe(pairs=((3, 2), (5, 1)))
        with pytest.raises(InfeasibleError, match="no cacti with n = 3, k = 2"):
            verify_claim(claim, universe)

    def test_infeasible_pair_is_found_before_any_audit(self, monkeypatch):
        # (10, 2) holds 859 classes; (3, 2), later in the sweep, none.
        audited = count_audits(monkeypatch)
        universe = Universe(pairs=((10, 2), (3, 2)))
        with pytest.raises(InfeasibleError, match="no cacti with n = 3, k = 2"):
            verify_claim("lemma2.1", universe)
        assert audited == []
        # The spy does count: (5, 1) holds five classes.
        assert verify_claim("lemma2.1", Universe(pairs=((5, 1),))).passed
        assert len(audited) == 5

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

    def test_outside_the_domain_checks_nothing(self):
        # m = 5 edges cannot hold k = 2 cycles: the bound gives no value.
        report = verify_minimum_formula(5, 2)
        assert report.passed
        assert report.checked == 0
        assert report.findings == (
            "not applicable: no cactus has 2 cycles with only m=5 edges",
        )


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

    def test_infeasible_pair_raises(self):
        with pytest.raises(InfeasibleError, match="no cacti with n = 3, k = 2"):
            verify_minimum_exhaustive(3, 2)

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
    """Every violation kind of the exhaustive Theorem 3.2 check, reached at
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


def _records(report):
    """Each violation's items in order, as the human report prints them."""
    return [list(v.items()) for v in report.violations]


class TestClosedFormViolations:
    """Every violation kind of the formula audit and the exact runner-up
    check past the cap, each reached by a wrong closed form, or at (17, 5)
    by the paper's own, and pinned key by key.  (20, 1) has m = 20, in the
    big-m case."""

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
        report = verify_second_minimum(20, 1)
        g = quadrangle_bundle(20, 1)
        witness = report.violations[1]["graph6"]
        assert is_tailed_quadrangle_bundle(parse_graph6(witness), 1)
        assert _records(report) == [
            [
                ("graph6", emit_graph6(g)),
                ("kind", "predicted family misses the bound value"),
                ("bound", bound.to_dict()),
                ("family_value", edge_revised_szeged(g).to_dict()),
            ],
            [("graph6", witness), ("kind", "runner-up outside the predicted family")],
        ]
        assert report.equality_audit is None

    def test_exact_second_value_differs_from_bound(self, monkeypatch):
        case, bound = second_minimum_bound(20, 1)
        wrong = QuarterInt(bound.num + 4)
        monkeypatch.setattr(verify, "second_minimum_bound", lambda m, k: (case, wrong))
        report = verify_second_minimum(20, 1)
        g = tailed_quadrangle_bundle(20, 1)
        assert _records(report) == [
            [
                ("graph6", report.violations[0]["graph6"]),
                ("kind", "exact second value differs from bound"),
                ("bound", wrong.to_dict()),
                ("second", bound.to_dict()),
            ],
            [
                ("graph6", emit_graph6(g)),
                ("kind", "predicted family misses the bound value"),
                ("bound", wrong.to_dict()),
                ("family_value", bound.to_dict()),
            ],
        ]
        assert report.equality_audit is None

    def test_runner_up_outside_the_predicted_family(self):
        # At n = 3k + 2 the tailed family does not exist, and from k = 5 the
        # exact runner-up lies above the paper's value: at (17, 5) it is the
        # one-triangle mix, 3189/4 against 3157/4.
        report = verify_second_minimum(17, 5)
        _, bound = second_minimum_bound(21, 5)
        mix = bundle(BundleSpec((3, 4, 4, 4, 4), 2))
        assert _records(report) == [
            [
                ("graph6", report.violations[0]["graph6"]),
                ("kind", "exact second value differs from bound"),
                ("bound", bound.to_dict()),
                ("second", QuarterInt(3189).to_dict()),
            ],
            [
                ("graph6", report.violations[0]["graph6"]),
                ("kind", "runner-up outside the predicted family"),
            ],
        ]
        witness = parse_graph6(report.violations[0]["graph6"])
        assert as_bundle(witness) == as_bundle(mix)
        assert report.findings[0] == (
            "runner-up family infeasible at (n,k)=(17,5): predicted runner-up "
            "needs n >= 3k+3; no pendant is left to extend at this size"
        )
        assert report.equality_audit is None


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
    def test_no_bound_inside_the_cap(self):
        # m > 15 and m > 4k, with m = n + k - 1, first both hold at n = 14,
        # so no class under the largest cap has a runner-up bound, and
        # thm4.4 and the search only record the scan's runner-up there.  A
        # cap of 14 or more would need an in-cap runner-up comparison again.
        inside = [
            (n, k)
            for n, k in feasible_pairs(16)
            if second_minimum_bound(n + k - 1, k)[1] is not None
        ]
        assert min(n for n, _ in inside) == 14 > enumeration.ABSOLUTE_CAP
        assert (14, 3) in inside and (14, 4) in inside
        for n, k in feasible_pairs(9):
            report = enumeration.search_extremal(n, k)
            assert report.second_agrees is None, (n, k)
            assert not report.second_case.applicable, (n, k)

    def test_out_of_domain_is_informational(self):
        report = verify_second_minimum(7, 1)
        assert report.passed
        assert any("domain" in f for f in report.findings)
        assert any("observed second value 185/4" in f for f in report.findings)

    def test_exact_run_passes_and_reports(self):
        report = verify_second_minimum(20, 1)
        assert report.passed
        assert report.universe == (
            "exact over (n,k)=(20,1) by the block identity, 1 block multisets"
        )
        (witness,) = report.findings[0].split(", attained by ")[1:]
        assert report.findings == (f"exact runner-up 1272/4, attained by {witness}",)
        assert is_tailed_quadrangle_bundle(parse_graph6(witness), 1)
        assert report.equality_audit is None
        assert report.seed is None

    def test_closed_form_checks_past_the_cap(self):
        # Every pair past the cap: outside m > 15, m > 4k nothing is
        # checked; inside, the bound is the exact runner-up and every graph
        # attaining it is in the named family, except at n = 3k + 2 from
        # k = 5 on, where the family does not exist and the runner-up is
        # higher: the one-triangle mix at k = 5, then 128k^2 + 8k - 31.
        failed = {}
        for n in range(11, 41):
            for k in range((n - 1) // 2 + 1):
                m = n + k - 1
                report = verify_second_minimum(n, k, cap=10)
                case, bound = second_minimum_bound(m, k)
                if bound is None:
                    assert report.checked == 0, (n, k)
                    assert report.findings == (
                        f"bound not applicable at (m,k)=({m},{k}): {case.note}",
                    )
                    continue
                assert report.checked >= 1
                if not report.passed:
                    assert [v["kind"] for v in report.violations] == [
                        "exact second value differs from bound",
                        "runner-up outside the predicted family",
                    ], (n, k)
                    failed[n, k] = report.violations[0]["second"]["num"]
                    continue
                assert report.findings[-1].startswith(
                    f"exact runner-up {bound}, attained by "
                ), (n, k)
        assert failed == {
            (3 * k + 2, k): 3189 if k == 5 else 128 * k * k + 8 * k - 31
            for k in range(5, 13)
        }
