"""The JSON key set of every result record's ``to_dict()``.

The JSON form of a record follows its fields, so a field added to a record
adds a key to a documented schema. These tests pin each key list, in order,
so that such a change is a visible one.
"""

import pytest

from szegedtools import (
    FamilyRef,
    Universe,
    audit_bundle_floor,
    audit_cycle_gaps,
    audit_inner_cut_edge_floor,
    audit_pendant_edges,
    cycle,
    minimum_bound,
    search_extremal,
    triangle_bundle,
    verify_claim,
)

GAP_RECORD_KEYS = ["graph6", "m", "records", "holds", "fwd_ok", "bwd_ok"]
BOUND_CASE_KEYS = [
    "theorem",
    "case",
    "applicable",
    "flags",
    "family",
    "family_feasible",
    "tied_t",
    "note",
]


def keys(record) -> list[str]:
    return list(record.to_dict())


class TestJsonKeys:
    def test_family_ref_of_a_bundle(self):
        ref = FamilyRef(kind="bundle", cycle_lengths=(3, 4), pendants=2)
        assert keys(ref) == ["kind", "cycle_lengths", "pendants"]

    def test_family_ref_by_size(self):
        ref = FamilyRef(kind="quadrangle_bundle", n=9, k=2)
        assert keys(ref) == ["kind", "n", "k"]

    def test_bound_case(self):
        case, _ = minimum_bound(16, 3)
        assert keys(case) == BOUND_CASE_KEYS

    def test_extremal_report_and_witness(self):
        report = search_extremal(6, 1)
        assert keys(report) == [
            "n",
            "k",
            "m",
            "class_count",
            "min_value",
            "min_witnesses",
            "second_value",
            "second_witnesses",
            "min_tied",
            "minimum_case",
            "minimum_agrees",
            "second_case",
            "second_agrees",
            "notes",
        ]
        assert keys(report.min_witnesses[0]) == ["certificate", "graph6", "value"]

    @pytest.mark.parametrize(
        "auditor, record_keys",
        [
            (audit_pendant_edges, ["edge", "gap_sq", "bound", "equality", "pendant"]),
            (audit_cycle_gaps, ["length", "gap_sum", "bound", "equality", "end_block"]),
        ],
        ids=["edges", "cycles"],
    )
    def test_gap_audit_and_its_records(self, auditor, record_keys):
        audit = auditor(triangle_bundle(7, 2))
        assert keys(audit) == GAP_RECORD_KEYS
        assert keys(audit.records[0]) == record_keys

    def test_bundle_floor_audit(self):
        audit = audit_bundle_floor(triangle_bundle(7, 2))
        assert keys(audit) == [
            "graph6",
            "value",
            "floor",
            "is_bundle",
            "holds",
            "fwd_ok",
            "bwd_ok",
        ]

    def test_structural_floor_audit_not_applicable(self):
        audit = audit_inner_cut_edge_floor(cycle(5))
        assert not audit.applicable
        out = audit.to_dict()
        assert list(out) == [
            "claim",
            "graph6",
            "applicable",
            "reason",
            "m",
            "k",
            "in_domain",
            "value",
            "floor",
            "family",
            "matches_family",
            "holds",
            "equality",
        ]
        assert out["holds"] is None and out["equality"] is None

    def test_verification_report(self):
        report = verify_claim("lemma2.1", Universe(pairs=((5, 1),)))
        assert keys(report) == [
            "claim",
            "universe",
            "checked",
            "violations",
            "equality_audit",
            "findings",
            "seed",
        ]
        assert list(report.to_dict()["equality_audit"]) == ["fwd", "bwd"]
