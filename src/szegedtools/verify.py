"""Mechanical verification of the extremal claims on enumerable universes.

Each structural lemma comes in two parts: an inequality and an equality
condition.  Its per-graph audit checks both, in both directions: every graph
achieving equality must have the claimed structure (``fwd_ok``), and every
graph with the claimed structure must achieve equality (``bwd_ok``).  The
conditional floors of Lemmas 4.1–4.3 also say whether their hypothesis
applies (``applicable``) and whether the edge count lies in the claimed
domain (``in_domain``); the unconditional lemmas set both to ``True``.
Family membership is read off each graph's block structure (``as_bundle``,
``is_tailed_quadrangle_bundle``), never from canonical forms, so the audits
run no canonical search and work at any size.

So one table, ``AUDITORS``, maps each lemma's claim id to its audit, and one
sweep, ``verify_claim``, folds any lemma's audits over a ``Universe`` into a
report.  Reports carry re-checkable witnesses (graph6 strings) for anything
that fails, and record ties or boundary behavior as findings rather than
failures.

The two theorems are checked on whole classes instead of per graph, and
both read one exhaustive scan, ``search_extremal``: Theorem 3.2 its minimum
and minimizers, Theorem 4.4 its runner-up.  ``verify_claim`` also takes
``"thm3.2"``, checking each of a universe's pairs and merging the reports.
Claims whose stated domain starts beyond the enumeration cap cannot be
checked exhaustively.  For those the harness verifies the closed forms
against directly computed values on constructed families and runs a seeded
random stress search, recording sample count and seed so a negative result
is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

from .bounds import (
    BoundCase,
    FamilyRef,
    bundle_closed_form,
    crossover,
    cycle_diff_bound,
    inner_cut_edge_bound,
    inner_cycle_bound,
    minimum_bound,
    mix_closed_form,
    mix_step,
    pendant_diff_bound,
    second_minimum_bound,
)
from .enumeration import (
    _effective_cap,
    cactus_classes,
    is_feasible,
    random_cactus,
    search_extremal,
)
from .errors import InfeasibleError, InvalidGraphError
from .families import (
    BundleSpec,
    as_bundle,
    is_quadrangle_bundle,
    is_tailed_quadrangle_bundle,
)
from .formats import emit_graph6, parse_graph6
from .graphs import Graph, cactus_profile
from .indices import QuarterInt, edge_gaps, edge_revised_szeged

CLAIM_IDS = (
    "lemma2.1",
    "lemma2.2-2.3",
    "lemma3.1",
    "lemma4.1",
    "lemma4.2",
    "lemma4.3",
    "thm3.2",
    "thm4.4",
)


# ---------------------------------------------------------------------------
# per-graph audits


def _require_cactus_profile(g: Graph, what: str):
    profile = cactus_profile(g)
    if not profile.is_cactus:
        raise InvalidGraphError(f"{what} requires a cactus")
    return profile


class _TwoSidedAudit:
    """An unconditional claim: every graph is in its hypothesis and domain."""

    applicable = in_domain = True

    @property
    def ok(self) -> bool:
        return self.holds and self.fwd_ok and self.bwd_ok


class EdgeGapRecord(NamedTuple):
    """One edge's squared side difference against the global ceiling."""

    edge: tuple[int, int]
    gap_sq: int
    bound: int
    equality: bool
    pendant: bool

    gap = property(lambda self: self.gap_sq)
    claimed = property(lambda self: self.pendant)

    def to_dict(self) -> dict:
        return {
            "edge": list(self.edge),
            "gap_sq": self.gap_sq,
            "bound": self.bound,
            "equality": self.equality,
            "pendant": self.pendant,
        }


class CycleGapRecord(NamedTuple):
    """One cycle's summed squared gaps against its parity-dependent ceiling."""

    length: int
    gap_sum: int
    bound: int
    equality: bool
    end_block: bool

    gap = property(lambda self: self.gap_sum)
    claimed = property(lambda self: self.end_block)

    def to_dict(self) -> dict:
        return {
            "length": self.length,
            "gap_sum": self.gap_sum,
            "bound": self.bound,
            "equality": self.equality,
            "end_block": self.end_block,
        }


@dataclass(frozen=True)
class GapAudit(_TwoSidedAudit):
    """Per-part audit: every gap ≤ its ceiling, equality exactly on the
    claimed parts (pendant edges for Lemma 2.1, end-block cycles for
    Lemmas 2.2–2.3)."""

    graph6: str
    m: int
    records: tuple[EdgeGapRecord, ...] | tuple[CycleGapRecord, ...]

    @property
    def holds(self) -> bool:
        return all(r.gap <= r.bound for r in self.records)

    @property
    def fwd_ok(self) -> bool:
        """Equality implies the claimed structure."""
        return all(r.claimed for r in self.records if r.equality)

    @property
    def bwd_ok(self) -> bool:
        """The claimed structure implies equality."""
        return all(r.equality for r in self.records if r.claimed)

    def to_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "m": self.m,
            "records": [r.to_dict() for r in self.records],
            "holds": self.holds,
            "fwd_ok": self.fwd_ok,
            "bwd_ok": self.bwd_ok,
        }


def audit_pendant_edges(g: Graph) -> GapAudit:
    """Check every edge's squared gap against the pendant-edge ceiling."""
    m = len(g.edges)
    bound = pendant_diff_bound(m)
    adj = g.adj
    records = []
    for e, gap in zip(g.edges, edge_gaps(g)):
        u, v = e
        sq = gap * gap
        pendant = len(adj[u]) == 1 or len(adj[v]) == 1
        records.append(EdgeGapRecord(e, sq, bound, sq == bound, pendant))
    return GapAudit(graph6=emit_graph6(g), m=m, records=tuple(records))


def audit_cycle_gaps(g: Graph) -> GapAudit:
    """Check every cycle's summed squared gap against its ceiling."""
    profile = _require_cactus_profile(g, "cycle gap audit")
    m = len(g.edges)
    gap_sq = {e: gap * gap for e, gap in zip(g.edges, edge_gaps(g))}
    records = []
    for edge_set, end_block in zip(profile.cycle_edge_sets, profile.end_block_flags):
        length = len(edge_set)
        total = sum(gap_sq[e] for e in edge_set)
        bound = cycle_diff_bound(length, m)
        records.append(CycleGapRecord(length, total, bound, total == bound, end_block))
    records.sort(key=lambda r: (r.length, r.gap_sum))
    return GapAudit(graph6=emit_graph6(g), m=m, records=tuple(records))


@dataclass(frozen=True)
class BundleFloorAudit(_TwoSidedAudit):
    """Whole-graph audit: index ≥ closed form at the graph's own cycle lengths,
    equality exactly when the graph is a one-hub bundle."""

    graph6: str
    value: QuarterInt
    floor: QuarterInt
    is_bundle: bool

    @property
    def holds(self) -> bool:
        return self.value >= self.floor

    @property
    def equality(self) -> bool:
        return self.value == self.floor

    @property
    def fwd_ok(self) -> bool:
        return self.is_bundle if self.equality else True

    @property
    def bwd_ok(self) -> bool:
        return self.equality if self.is_bundle else True

    def to_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "value": self.value.to_dict(),
            "floor": self.floor.to_dict(),
            "is_bundle": self.is_bundle,
            "holds": self.holds,
            "fwd_ok": self.fwd_ok,
            "bwd_ok": self.bwd_ok,
        }


def audit_bundle_floor(g: Graph) -> BundleFloorAudit:
    """Compare the index against the closed form at the graph's cycle lengths."""
    profile = _require_cactus_profile(g, "bundle floor audit")
    m = len(g.edges)
    floor = bundle_closed_form(profile.cycle_lengths, m)
    return BundleFloorAudit(
        graph6=emit_graph6(g),
        value=edge_revised_szeged(g),
        floor=floor,
        is_bundle=as_bundle(g) is not None,
    )


@dataclass(frozen=True)
class StructuralFloorAudit:
    """Audit of one conditional lower bound for graphs with a named defect.

    ``applicable`` reflects whether the structural hypothesis holds at all;
    ``in_domain`` whether the edge count satisfies m > 15 and m > 4k, outside
    of which the comparison is informational only.  ``matches_family`` is
    ``None`` for claims with no equality condition.
    """

    claim: str
    graph6: str
    applicable: bool
    reason: str
    m: int
    k: int
    in_domain: bool
    value: QuarterInt | None = None
    floor: QuarterInt | None = None
    family: FamilyRef | None = None
    matches_family: bool | None = None

    @property
    def holds(self) -> bool | None:
        if not self.applicable or self.floor is None or self.value is None:
            return None
        return self.value >= self.floor

    @property
    def equality(self) -> bool | None:
        if not self.applicable or self.floor is None or self.value is None:
            return None
        return self.value == self.floor

    @property
    def fwd_ok(self) -> bool:
        """Equality implies the named family (when an equality condition exists)."""
        if self.matches_family is None or not self.equality:
            return True
        return self.matches_family

    @property
    def bwd_ok(self) -> bool:
        """The named family implies equality."""
        if self.matches_family is None or not self.matches_family:
            return True
        return bool(self.equality)

    @property
    def ok(self) -> bool:
        if not self.applicable or not self.in_domain:
            return True
        return bool(self.holds) and self.fwd_ok and self.bwd_ok

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "graph6": self.graph6,
            "applicable": self.applicable,
            "reason": self.reason,
            "m": self.m,
            "k": self.k,
            "in_domain": self.in_domain,
            "value": None if self.value is None else self.value.to_dict(),
            "floor": None if self.floor is None else self.floor.to_dict(),
            "family": None if self.family is None else self.family.to_dict(),
            "matches_family": self.matches_family,
            "holds": self.holds,
            "equality": self.equality,
        }


def _structural_preamble(g: Graph, claim: str, what: str):
    """The profile of cactus ``g``, and the fields every ``claim`` audit of
    ``g`` shares: claim, graph6, m, k and whether m > 15 and m > 4k."""
    profile = _require_cactus_profile(g, what)
    m, k = len(g.edges), profile.k
    shared = dict(
        claim=claim, graph6=emit_graph6(g), m=m, k=k, in_domain=m > 15 and m > 4 * k
    )
    return profile, shared


def audit_inner_cut_edge_floor(g: Graph) -> StructuralFloorAudit:
    """Floor for cacti carrying a cut edge that is not pendant.

    Claimed: the index is at least the all-quadrangle closed form plus m−2,
    with equality exactly for the quadrangle bundle wearing a length-2 tail.
    """
    profile, shared = _structural_preamble(g, "lemma4.1", "inner cut edge audit")
    m, k = shared["m"], shared["k"]
    deg = [len(a) for a in g.adj]
    if not any(deg[u] > 1 and deg[v] > 1 for u, v in profile.bridges):
        return StructuralFloorAudit(
            **shared, applicable=False, reason="every cut edge is pendant"
        )
    return StructuralFloorAudit(
        **shared,
        applicable=True,
        reason="has a non-pendant cut edge",
        value=edge_revised_szeged(g),
        floor=inner_cut_edge_bound(m, k) if m >= 4 * k + 1 else None,
        family=FamilyRef(kind="tailed_quadrangle_bundle", n=g.n, k=k),
        matches_family=is_tailed_quadrangle_bundle(g, k),
    )


def audit_off_quadrangle_floor(g: Graph) -> StructuralFloorAudit:
    """Floor for cacti owning a cycle whose length differs from 4.

    With an odd cycle present the floor is the one-triangle mix and the
    equality case is that bundle; with all cycles even the floor is the
    one-hexagon mix and no equality condition is claimed.
    """
    profile, shared = _structural_preamble(g, "lemma4.2", "off-quadrangle cycle audit")
    m, k = shared["m"], shared["k"]
    lengths = profile.cycle_lengths
    if not any(length != 4 for length in lengths):
        return StructuralFloorAudit(
            **shared,
            applicable=False,
            reason="every cycle is a quadrangle" if lengths else "no cycles",
        )
    value = edge_revised_szeged(g)
    if any(length % 2 for length in lengths):
        oddmix = (3,) + (4,) * (k - 1)
        pendants = g.n - 1 - (sum(oddmix) - k)
        return StructuralFloorAudit(
            **shared,
            applicable=True,
            reason="has an odd cycle",
            value=value,
            floor=mix_closed_form(1, k, m) if m >= 4 * k - 1 else None,
            family=FamilyRef(
                kind="bundle",
                n=g.n,
                k=k,
                cycle_lengths=oddmix,
                pendants=pendants,
            ),
            matches_family=pendants >= 0
            and as_bundle(g) == BundleSpec(oddmix, pendants),
        )
    hexmix = (6,) + (4,) * (k - 1)
    return StructuralFloorAudit(
        **shared,
        applicable=True,
        reason="all cycles even, one of length six or more",
        value=value,
        floor=bundle_closed_form(hexmix, m) if sum(hexmix) <= m else None,
    )


def audit_inner_cycle_floor(g: Graph) -> StructuralFloorAudit:
    """Floor for cacti owning a cycle that is not an end-block.

    Claimed: the index is at least the smaller of the one-triangle mix and
    the all-quadrangle form plus 2m−10.  No equality condition.
    """
    profile, shared = _structural_preamble(g, "lemma4.3", "inner cycle audit")
    m, k = shared["m"], shared["k"]
    if all(profile.end_block_flags):
        return StructuralFloorAudit(
            **shared,
            applicable=False,
            reason="every cycle is an end-block" if k else "no cycles",
        )
    floor = None
    if m >= 4 * k:
        candidates = [inner_cycle_bound(m, k)]
        if m >= 4 * k - 1 and k >= 1:
            candidates.append(mix_closed_form(1, k, m))
        floor = min(candidates)
    return StructuralFloorAudit(
        **shared,
        applicable=True,
        reason="has a cycle that is not an end-block",
        value=edge_revised_szeged(g),
        floor=floor,
    )


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one claim over one universe, reproducible from its fields."""

    claim: str
    universe: str
    checked: int
    violations: tuple[dict, ...]
    equality_audit: dict | None = None
    findings: tuple[str, ...] = field(default=())
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "universe": self.universe,
            "checked": self.checked,
            "violations": list(self.violations),
            "equality_audit": self.equality_audit,
            "findings": list(self.findings),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class Universe:
    """Which graphs a sweep touches: exhaustive class lists, random draws, or both."""

    pairs: tuple[tuple[int, int], ...] = ()
    samples: int = 0
    sample_pair: tuple[int, int] | None = None
    sample_max_n: int = 40
    seed: int = 0
    cap: int | None = None

    def describe(self) -> str:
        parts = []
        if self.pairs:
            parts.append(
                "exhaustive (n,k) in ["
                + ", ".join(f"({n},{k})" for n, k in self.pairs)
                + "]"
            )
        if self.samples:
            if self.sample_pair is not None:
                n, k = self.sample_pair
                parts.append(
                    f"{self.samples} random cacti at (n,k)=({n},{k}), seed {self.seed}"
                )
            else:
                parts.append(
                    f"{self.samples} random cacti with n <= {self.sample_max_n}, "
                    f"seed {self.seed}"
                )
        return "; ".join(parts) if parts else "empty"

    def graphs(self) -> Iterator[Graph]:
        for n, k in self.pairs:
            yield from cactus_classes(n, k, cap=self.cap)
        if self.samples:
            rng = random.Random(self.seed)
            for _ in range(self.samples):
                if self.sample_pair is not None:
                    n, k = self.sample_pair
                else:
                    n = rng.randint(3, self.sample_max_n)
                    k = rng.randint(0, (n - 1) // 2)
                yield random_cactus(n, k, seed=rng.randrange(2**63))


def feasible_pairs(max_n: int) -> tuple[tuple[int, int], ...]:
    """All (n, k) with 1 <= n <= max_n for which the class is nonempty."""
    return tuple(
        (n, k) for n in range(1, max_n + 1) for k in range(0, (n - 1) // 2 + 1)
    )


AUDITORS: dict[str, Callable[[Graph], object]] = {
    "lemma2.1": audit_pendant_edges,
    "lemma2.2-2.3": audit_cycle_gaps,
    "lemma3.1": audit_bundle_floor,
    "lemma4.1": audit_inner_cut_edge_floor,
    "lemma4.2": audit_off_quadrangle_floor,
    "lemma4.3": audit_inner_cycle_floor,
}


def verify_claim(claim: str, universe: Universe) -> VerificationReport:
    """Fold one lemma's per-graph audits over a universe into one report.

    Graphs outside the claim's hypothesis are skipped; applicable graphs
    outside the m > 15, m > 4k domain are counted and compared
    informationally only.  ``"thm3.2"`` is checked on whole classes
    instead: :func:`verify_minimum_exhaustive` at each of the universe's
    pairs (its samples are not read), merged into one report.
    """
    if claim == "thm3.2":
        return _minimum_sweep(universe)
    auditor = AUDITORS[claim]
    checked = 0
    out_of_domain = 0
    violations = []
    fwd_fail = []
    bwd_fail = []
    for g in universe.graphs():
        audit = auditor(g)
        checked += 1
        if not audit.applicable:
            continue
        if not audit.in_domain:
            out_of_domain += 1
            continue
        if audit.holds is False:
            violations.append({"graph6": audit.graph6, "kind": "bound violated"})
        if not audit.fwd_ok:
            violations.append(
                {"graph6": audit.graph6, "kind": "equality without claimed structure"}
            )
            fwd_fail.append(audit.graph6)
        if not audit.bwd_ok:
            violations.append(
                {"graph6": audit.graph6, "kind": "claimed structure without equality"}
            )
            bwd_fail.append(audit.graph6)
    findings = []
    if out_of_domain:
        findings.append(
            f"{out_of_domain} applicable graphs fall outside the m > 15, m > 4k "
            "domain; compared informationally only"
        )
    return VerificationReport(
        claim=claim,
        universe=universe.describe(),
        checked=checked,
        violations=tuple(violations),
        equality_audit={
            "fwd": {
                "statement": "equality implies claimed structure",
                "failures": fwd_fail,
            },
            "bwd": {
                "statement": "claimed structure implies equality",
                "failures": bwd_fail,
            },
        },
        findings=tuple(findings),
        seed=universe.seed if universe.samples else None,
    )


# ---------------------------------------------------------------------------
# minimum theorem


def _case_findings(case: BoundCase, m: int) -> list[str]:
    findings = []
    if case.tied_t and len(case.tied_t) > 1:
        tie = ", ".join(str(t) for t in case.tied_t)
        findings.append(
            f"tie among t in {{{tie}}}: the triangle/quadrangle mix value does not "
            f"depend on t here (per-step slope {mix_step(m)}), so the stated "
            "unique minimizer is only one of several formula minimizers"
        )
    return findings


def verify_minimum_formula(m: int, k: int) -> VerificationReport:
    """Formula-level audit of the minimum bound at one (m, k).

    Recomputes the mix minimum directly over all feasible t and compares it
    with the selected case value; records t-ties as findings.  No graphs are
    enumerated, so this works beyond the enumeration cap.
    """
    case, value = minimum_bound(m, k)
    violations = []
    findings = _case_findings(case, m)
    checked = 0
    if value is not None:
        direct = None
        for t in range(0, k + 1):
            if 4 * k - t > m:
                continue
            checked += 1
            candidate = mix_closed_form(t, k, m)
            if direct is None or candidate < direct:
                direct = candidate
        if direct is not None and direct != value:
            violations.append(
                {
                    "graph6": None,
                    "kind": "case value differs from direct mix minimum",
                    "case_value": value.to_dict(),
                    "direct_minimum": direct.to_dict(),
                }
            )
    else:
        findings.append(f"not applicable: {case.note}")
    return VerificationReport(
        claim="thm3.2",
        universe=f"closed forms at m={m}, k={k} ({checked} feasible mixes)",
        checked=checked,
        violations=tuple(violations),
        findings=tuple(findings),
    )


def verify_minimum_exhaustive(
    n: int, k: int, *, cap: int | None = None
) -> VerificationReport:
    """Exhaustive check that the closed-form minimum and its family are right.

    Reads the true minimum and its witnesses from :func:`search_extremal`
    and compares value and argmin set against the case prediction.  Every
    predicted family is a bundle, so a minimizer belongs to it exactly when
    ``as_bundle`` gives the same shape.  Ties on the minimum are findings.
    """
    if not is_feasible(n, k):
        raise InfeasibleError(f"no cacti with n = {n}, k = {k}; nothing to verify")
    m = n + k - 1
    search = search_extremal(n, k, cap=cap)
    argmin = [w.graph6 for w in search.min_witnesses]
    case, bound = minimum_bound(m, k)
    violations = []
    findings = _case_findings(case, m)
    fwd_fail = []
    bwd_fail = []
    if bound is None:
        findings.append(f"bound not applicable: {case.note}")
    else:
        if bound != search.min_value:
            violations.append(
                {
                    "graph6": argmin[0],
                    "kind": "exhaustive minimum differs from bound",
                    "bound": bound.to_dict(),
                    "minimum": search.min_value.to_dict(),
                }
            )
        if case.family is not None and case.family_feasible:
            ref = case.family.build()
            ref_spec = as_bundle(ref)
            ref_value = edge_revised_szeged(ref)
            if ref_value != bound:
                bwd_fail.append(emit_graph6(ref))
                violations.append(
                    {
                        "graph6": emit_graph6(ref),
                        "kind": "predicted family misses the bound value",
                        "bound": bound.to_dict(),
                        "family_value": ref_value.to_dict(),
                    }
                )
            for g6 in argmin:
                if as_bundle(parse_graph6(g6)) != ref_spec:
                    fwd_fail.append(g6)
                    violations.append(
                        {"graph6": g6, "kind": "minimizer outside the predicted family"}
                    )
        if search.min_tied:
            findings.append(
                f"{len(argmin)} classes tie at the minimum " + ", ".join(argmin)
            )
    return VerificationReport(
        claim="thm3.2",
        universe=f"exhaustive (n,k)=({n},{k}), {search.class_count} classes",
        checked=search.class_count,
        violations=tuple(violations),
        equality_audit={
            "fwd": {
                "statement": "every exhaustive minimizer is the predicted family",
                "failures": fwd_fail,
            },
            "bwd": {
                "statement": "the predicted family attains the bound",
                "failures": bwd_fail,
            },
        },
        findings=tuple(findings),
    )


def _minimum_sweep(universe: Universe) -> VerificationReport:
    """Theorem 3.2 at every pair of ``universe``: one pair's report as it
    is, several merged into one, each finding prefixed by its pair."""
    reports = [
        verify_minimum_exhaustive(n, k, cap=universe.cap) for n, k in universe.pairs
    ]
    if len(reports) == 1:
        return reports[0]
    violations = []
    findings = []
    fwd = []
    bwd = []
    for rep in reports:
        violations.extend(rep.violations)
        findings.extend(f"{rep.universe}: {f}" for f in rep.findings)
        fwd.extend(rep.equality_audit["fwd"]["failures"])
        bwd.extend(rep.equality_audit["bwd"]["failures"])
    return VerificationReport(
        claim="thm3.2",
        universe="; ".join(rep.universe for rep in reports),
        checked=sum(rep.checked for rep in reports),
        violations=tuple(violations),
        equality_audit={
            "fwd": {"statement": "merged", "failures": fwd},
            "bwd": {"statement": "merged", "failures": bwd},
        },
        findings=tuple(findings),
    )


# ---------------------------------------------------------------------------
# second-minimum theorem


def verify_second_minimum(
    n: int,
    k: int,
    *,
    samples: int = 10_000,
    seed: int = 0,
    cap: int | None = None,
) -> VerificationReport:
    """Check the runner-up claim at (n, k), exhaustively when possible.

    Under the enumeration cap the true second value is compared against the
    case bound (informational outside the m > 15, m > 4k domain).  Beyond the
    cap the harness checks the closed forms against directly computed values
    on the constructed families, audits the crossover sign, and stress-samples
    the class for anything below the bound that is not the quadrangle bundle.
    """
    if not is_feasible(n, k):
        raise InfeasibleError(f"no cacti with n = {n}, k = {k}; nothing to verify")
    m = n + k - 1
    case, bound = second_minimum_bound(m, k)
    if n <= _effective_cap(cap):
        return _second_minimum_exhaustive(n, k, case, bound, cap)
    return _second_minimum_stress(
        n, k, case, bound, samples=samples, seed=seed
    )


def _second_minimum_exhaustive(
    n: int, k: int, case: BoundCase, bound: QuarterInt | None, cap: int | None
) -> VerificationReport:
    m = n + k - 1
    report = search_extremal(n, k, cap=cap)
    violations = []
    findings = []
    if bound is None:
        findings.append(
            f"claim domain does not cover (m,k)=({m},{k}): {case.note}; "
            "exhaustive values recorded for information only"
        )
        if report.second_value is not None:
            findings.append(
                f"observed second value {report.second_value} over "
                f"{report.class_count} classes"
            )
    else:
        if report.second_value is None:
            findings.append("single class; no second value exists")
        elif report.second_value != bound:
            violations.append(
                {
                    "graph6": report.second_witnesses[0].graph6,
                    "kind": "exhaustive second value differs from bound",
                    "bound": bound.to_dict(),
                    "second": report.second_value.to_dict(),
                }
            )
    return VerificationReport(
        claim="thm4.4",
        universe=f"exhaustive (n,k)=({n},{k}), {report.class_count} classes",
        checked=report.class_count,
        violations=tuple(violations),
        findings=tuple(findings),
    )


def _second_minimum_stress(
    n: int,
    k: int,
    case: BoundCase,
    bound: QuarterInt | None,
    *,
    samples: int,
    seed: int,
) -> VerificationReport:
    m = n + k - 1
    violations = []
    findings = []
    checked = 0

    if bound is None:
        findings.append(f"bound not applicable at (m,k)=({m},{k}): {case.note}")
    else:
        # Closed forms against directly computed values on built families.
        checked += 1
        if case.family is not None and case.family_feasible:
            runner = case.family.build()
            direct = edge_revised_szeged(runner)
            if direct != bound:
                violations.append(
                    {
                        "graph6": emit_graph6(runner),
                        "kind": "runner-up family value differs from closed form",
                        "bound": bound.to_dict(),
                        "direct": direct.to_dict(),
                    }
                )
            else:
                findings.append(
                    f"runner-up family value confirmed directly: {direct}"
                )
        elif case.family is not None:
            findings.append(
                f"runner-up family infeasible at (n,k)=({n},{k}): {case.note}"
            )
        if m > 4 * k:
            checked += 1
            tail_floor = inner_cut_edge_bound(m, k)
            findings.append(
                f"tail floor (all-quadrangle form plus m-2) = {tail_floor}"
            )
            if case.case == "4.4-big-m" and bound != tail_floor:
                violations.append(
                    {
                        "graph6": None,
                        "kind": "big-m bound differs from tail floor identity",
                        "bound": bound.to_dict(),
                        "tail_floor": tail_floor.to_dict(),
                    }
                )
        if k >= 1 and m >= 4 * k - 1:
            checked += 1
            mix_floor = mix_closed_form(1, k, m)
            if case.case == "4.4-small-m" and bound != mix_floor:
                violations.append(
                    {
                        "graph6": None,
                        "kind": "small-m bound differs from one-triangle mix",
                        "bound": bound.to_dict(),
                        "mix_floor": mix_floor.to_dict(),
                    }
                )
        checked += 1
        sign = crossover(m)
        if m >= 20 and not sign > 0:
            violations.append(
                {"graph6": None, "kind": f"crossover not positive at m={m}"}
            )
        if 16 <= m <= 19 and not sign < 0:
            violations.append(
                {"graph6": None, "kind": f"crossover not negative at m={m}"}
            )

        # Seeded stress search: nothing but the quadrangle bundle may sit
        # below the runner-up bound.  Absence of a hit is evidence, not proof.
        rng = random.Random(seed)
        below = 0
        stray = 0
        for _ in range(samples):
            g = random_cactus(n, k, seed=rng.randrange(2**63))
            checked += 1
            value = edge_revised_szeged(g)
            if value < bound:
                below += 1
                if not is_quadrangle_bundle(g, k):
                    stray += 1
                    violations.append(
                        {
                            "graph6": emit_graph6(g),
                            "kind": "non-bundle sample below the runner-up bound",
                            "value": value.to_dict(),
                            "bound": bound.to_dict(),
                        }
                    )
        findings.append(
            f"stress search: {samples} samples, {below} below the bound, "
            f"{stray} of them outside the quadrangle bundle family"
        )

    return VerificationReport(
        claim="thm4.4",
        universe=(
            f"closed forms at (m,k)=({m},{k}) plus {samples} random cacti at "
            f"(n,k)=({n},{k})"
        ),
        checked=checked,
        violations=tuple(violations),
        findings=tuple(findings),
        seed=seed,
    )
