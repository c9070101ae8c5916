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
that fails, and record ties and boundary behavior as findings.  A tie whose
minimizers fall outside the one family a theorem names is also a violation:
at (n, k) = (12, 4), m = 15, three of Theorem 3.2's four minimizers are.

The two theorems are checked on whole classes instead of per graph, and
both read one exhaustive scan, ``search_extremal``: Theorem 3.2 its minimum
and minimizers, Theorem 4.4 its runner-up.  ``verify_claim`` also takes
``"thm3.2"``, checking each of a universe's pairs and merging the reports.
Claims whose stated domain starts beyond the enumeration cap cannot be
checked exhaustively.  For those the harness verifies the closed forms
against directly computed values on constructed families and runs a seeded
random stress search, recording sample count and seed so a negative result
is reproducible.

An (n, k) pair with no cactus (n < 2k + 1) raises ``InfeasibleError`` for
every claim, alone or inside a sweep: no claim passes on an empty class.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, NamedTuple

from . import CLAIM_IDS  # noqa: F401  (re-exported; defined in the package)
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
from .families import as_bundle, is_quadrangle_bundle, is_tailed_quadrangle_bundle
from .formats import emit_graph6, parse_graph6
from .graphs import Graph, cactus_profile
from .indices import QuarterInt, edge_gaps, edge_revised_szeged, record_dict


# ---------------------------------------------------------------------------
# per-graph audits


def _require_cactus_profile(g: Graph, what: str):
    profile = cactus_profile(g)
    if not profile.is_cactus:
        raise InvalidGraphError(f"{what} requires a cactus")
    return profile


class EdgeGapRecord(NamedTuple):
    """One edge's squared side difference against the global ceiling."""

    edge: tuple[int, int]
    gap_sq: int
    bound: int
    equality: bool
    pendant: bool

    gap = property(lambda self: self.gap_sq)
    claimed = property(lambda self: self.pendant)

    to_dict = record_dict


class CycleGapRecord(NamedTuple):
    """One cycle's summed squared gaps against its parity-dependent ceiling."""

    length: int
    gap_sum: int
    bound: int
    equality: bool
    end_block: bool

    gap = property(lambda self: self.gap_sum)
    claimed = property(lambda self: self.end_block)

    to_dict = record_dict


class GapAudit(NamedTuple):
    """Per-part audit: every gap ≤ its ceiling, equality exactly on the
    claimed parts (pendant edges for Lemma 2.1, end-block cycles for
    Lemmas 2.2–2.3)."""

    graph6: str
    m: int
    records: tuple[EdgeGapRecord, ...] | tuple[CycleGapRecord, ...]

    # An unconditional claim: every graph is in its hypothesis and domain.
    applicable = in_domain = True

    @property
    def ok(self) -> bool:
        return self.holds and self.fwd_ok and self.bwd_ok

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
        return record_dict(self, ("holds", "fwd_ok", "bwd_ok"))


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


class StructuralFloorAudit(NamedTuple):
    """Audit of one conditional lower bound for graphs with a named defect.

    ``applicable`` reflects whether the structural hypothesis holds at all;
    ``in_domain`` whether the edge count satisfies m > 15 and m > 4k, outside
    of which the comparison is informational only.  ``matches_family`` is
    ``None`` for claims with no equality condition.

    Its properties judge every whole-graph floor, Lemma 3.1's included:
    value ≥ floor (``holds``), equality implies the family (``fwd_ok``),
    and the family implies equality (``bwd_ok``).
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
        return record_dict(self, ("holds", "equality"))


class BundleFloorAudit(NamedTuple):
    """Whole-graph audit: index ≥ closed form at the graph's own cycle lengths,
    equality exactly when the graph is a one-hub bundle.  The unconditional
    case of :class:`StructuralFloorAudit`'s judgement, whose family is the
    bundle: floor and value are always set."""

    graph6: str
    value: QuarterInt
    floor: QuarterInt
    is_bundle: bool

    applicable = in_domain = True
    matches_family = property(lambda self: self.is_bundle)
    holds = StructuralFloorAudit.holds
    equality = StructuralFloorAudit.equality
    fwd_ok = StructuralFloorAudit.fwd_ok
    bwd_ok = StructuralFloorAudit.bwd_ok
    ok = StructuralFloorAudit.ok

    def to_dict(self) -> dict:
        return record_dict(self, ("holds", "fwd_ok", "bwd_ok"))


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
    # Each leaf ends one pendant cut edge, and only K2's has two leaves.
    if len(profile.bridges) <= sum(len(a) == 1 for a in g.adj):
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
            matches_family=as_bundle(g) == (oddmix, pendants),
        )
    # The cycles, all even and one of length six or more, take at least
    # 6 + 4(k - 1) of the m edges.
    return StructuralFloorAudit(
        **shared,
        applicable=True,
        reason="all cycles even, one of length six or more",
        value=value,
        floor=bundle_closed_form((6,) + (4,) * (k - 1), m),
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
        floor = min(inner_cycle_bound(m, k), mix_closed_form(1, k, m))
    return StructuralFloorAudit(
        **shared,
        applicable=True,
        reason="has a cycle that is not an end-block",
        value=edge_revised_szeged(g),
        floor=floor,
    )


# ---------------------------------------------------------------------------
# reports


class VerificationReport(NamedTuple):
    """Outcome of one claim over one universe, reproducible from its fields."""

    claim: str
    universe: str
    checked: int
    violations: tuple[dict, ...]
    equality_audit: dict | None = None
    findings: tuple[str, ...] = ()
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.violations

    to_dict = record_dict


def _equality_audit(
    fwd_statement: str, fwd: list[str], bwd_statement: str, bwd: list[str]
) -> dict:
    """A report's ``equality_audit`` block: each direction's statement and
    the graph6 of every graph that fails it."""
    return {
        "fwd": {"statement": fwd_statement, "failures": fwd},
        "bwd": {"statement": bwd_statement, "failures": bwd},
    }


def _require_feasible(n: int, k: int) -> None:
    if not is_feasible(n, k):
        raise InfeasibleError(f"no cacti with n = {n}, k = {k}; nothing to verify")


class Universe(NamedTuple):
    """Which graphs a sweep touches: exhaustive class lists, random draws, or
    both.  :meth:`graphs` raises ``InfeasibleError`` at a pair with no cactus."""

    pairs: tuple[tuple[int, int], ...] = ()
    samples: int = 0
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
            parts.append(
                f"{self.samples} random cacti with n <= {self.sample_max_n}, "
                f"seed {self.seed}"
            )
        return "; ".join(parts) if parts else "empty"

    def graphs(self) -> Iterator[Graph]:
        for n, k in self.pairs:
            # Before cactus_classes, which raises CapError past the cap.
            _require_feasible(n, k)
            yield from cactus_classes(n, k, cap=self.cap)
        if self.samples:
            # Samples have at least 3 vertices, where every k draws a cactus.
            if self.sample_max_n < 3:
                raise ValueError(
                    f"sample_max_n must be at least 3, got {self.sample_max_n}"
                )
            rng = random.Random(self.seed)
            for _ in range(self.samples):
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
    pairs (its samples are not read), merged into one report.  A universe
    with nothing to check (no graphs for a lemma, no pairs for
    ``"thm3.2"``), or with a pair that holds no cactus, raises
    ``InfeasibleError`` rather than pass vacuously.
    Any other claim, ``"thm4.4"`` included, raises ``ValueError``: thm4.4
    is checked one (n, k) at a time by :func:`verify_second_minimum`.
    """
    if claim == "thm3.2":
        if not universe.pairs:
            raise InfeasibleError(
                f"universe {universe.describe()!r} has no (n, k) pairs; "
                "nothing to verify"
            )
        return _minimum_sweep(universe)
    auditor = AUDITORS.get(claim)
    if auditor is None:
        hint = "; check thm4.4 with verify_second_minimum" if claim == "thm4.4" else ""
        raise ValueError(
            f"verify_claim takes {', '.join([*AUDITORS, 'thm3.2'])}, "
            f"got {claim!r}{hint}"
        )
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
    if not checked:
        raise InfeasibleError(
            f"universe {universe.describe()!r} holds no graphs; nothing to verify"
        )
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
        equality_audit=_equality_audit(
            "equality implies claimed structure",
            fwd_fail,
            "claimed structure implies equality",
            bwd_fail,
        ),
        findings=tuple(findings),
        seed=universe.seed if universe.samples else None,
    )


# ---------------------------------------------------------------------------
# minimum theorem


def _differ(out: list, kind: str, graph6: str | None, **values: QuarterInt) -> bool:
    """Whether the two named exact ``values``, which the paper says are equal,
    differ; if so, ``out`` gains ``{"graph6", "kind", name: value, ...}``."""
    first, second = values.values()
    if first != second:
        named = {name: value.to_dict() for name, value in values.items()}
        out.append({"graph6": graph6, "kind": kind, **named})
    return first != second


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
        # A value means 3k <= m, so the all-triangle mix at least is feasible.
        mixes = [mix_closed_form(t, k, m) for t in range(max(0, 4 * k - m), k + 1)]
        checked = len(mixes)
        _differ(
            violations,
            "case value differs from direct mix minimum",
            None,
            case_value=value,
            direct_minimum=min(mixes),
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
    predicted family is one bundle class, so a minimizer is in it exactly
    when ``as_bundle`` gives its shape, and a tie is a finding and a violation.
    """
    _require_feasible(n, k)
    m = n + k - 1
    search = search_extremal(n, k, cap=cap)
    argmin = [w.graph6 for w in search.min_witnesses]
    # n >= 2k + 1 gives m >= 3k: a bound exists, and its family at (n, k).
    case, bound = minimum_bound(m, k)
    violations = []
    findings = _case_findings(case, m)
    fwd_fail = []
    bwd_fail = []
    _differ(
        violations,
        "exhaustive minimum differs from bound",
        argmin[0],
        bound=bound,
        minimum=search.min_value,
    )
    ref = case.family.build()
    ref_spec = as_bundle(ref)
    if _differ(
        violations,
        "predicted family misses the bound value",
        emit_graph6(ref),
        bound=bound,
        family_value=edge_revised_szeged(ref),
    ):
        bwd_fail.append(emit_graph6(ref))
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
        equality_audit=_equality_audit(
            "every exhaustive minimizer is the predicted family",
            fwd_fail,
            "the predicted family attains the bound",
            bwd_fail,
        ),
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
        equality_audit=_equality_audit("merged", fwd, "merged", bwd),
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
    _require_feasible(n, k)
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
        # Unreached at caps up to 12: m > 15 and m > 4k first hold at n = 14.
        if report.second_value is None:
            findings.append("single class; no second value exists")
        else:
            _differ(
                violations,
                "exhaustive second value differs from bound",
                report.second_witnesses[0].graph6,
                bound=bound,
                second=report.second_value,
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
    """Theorem 4.4 past the cap: four closed-form checks and a stress search.

    Without a bound, (m, k) lies outside m > 15, m > 4k, k >= 1: nothing is
    checked or drawn, and the report has no seed.  With one, the runner-up
    family's value is computed where the family exists, the tail floor is
    recorded, and the case decides the rest: for m >= 20 the bound equals
    the tail floor and the crossover is positive, for 16 <= m <= 19 it
    equals the one-triangle mix and the crossover is negative.  Then no
    sample below the bound may be anything but the quadrangle bundle.
    """
    m = n + k - 1
    universe = f"closed forms at (m,k)=({m},{k})"
    if bound is None:
        note = f"bound not applicable at (m,k)=({m},{k}): {case.note}"
        return VerificationReport("thm4.4", universe, 0, (), findings=(note,))
    violations = []
    findings = []
    if case.family_feasible:
        runner = case.family.build()
        if not _differ(
            violations,
            "runner-up family value differs from closed form",
            emit_graph6(runner),
            bound=bound,
            direct=edge_revised_szeged(runner),
        ):
            findings.append(f"runner-up family value confirmed directly: {bound}")
    else:
        findings.append(f"runner-up family infeasible at (n,k)=({n},{k}): {case.note}")
    tail_floor = inner_cut_edge_bound(m, k)
    findings.append(f"tail floor (all-quadrangle form plus m-2) = {tail_floor}")
    if case.case == "4.4-big-m":
        _differ(
            violations,
            "big-m bound differs from tail floor identity",
            None,
            bound=bound,
            tail_floor=tail_floor,
        )
        if not crossover(m) > 0:
            violations.append(
                {"graph6": None, "kind": f"crossover not positive at m={m}"}
            )
    else:
        _differ(
            violations,
            "small-m bound differs from one-triangle mix",
            None,
            bound=bound,
            mix_floor=mix_closed_form(1, k, m),
        )
        if not crossover(m) < 0:
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
        universe=f"{universe} plus {samples} random cacti at (n,k)=({n},{k})",
        checked=4 + samples,
        violations=tuple(violations),
        findings=tuple(findings),
        seed=seed,
    )
