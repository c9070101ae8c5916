"""Closed-form lower bounds for the edge revised Szeged index on cacti.

Everything here evaluates formulas exactly (QuarterInt); nothing enumerates.
The two theorem evaluators return a :class:`BoundCase` describing which case
fired, the predicted extremal family, and any ties, together with the bound
value. Outside a theorem's domain they return a not-applicable case instead
of extrapolating.

Notation used throughout the docstrings: a cactus with n vertices and k
cycles has m = n + k - 1 edges, and ``bundle_closed_form`` is the exact index
value of a bundle with the given cycle lengths (remaining edges pendant at
the hub).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InfeasibleError
from .indices import QuarterInt, record_dict


class FamilyRef(NamedTuple):
    """Serializable pointer to one of the named cactus families."""

    kind: str
    n: int | None = None
    k: int | None = None
    cycle_lengths: tuple[int, ...] | None = None
    pendants: int | None = None

    def build(self):
        from . import families

        if self.kind == "triangle_bundle":
            return families.triangle_bundle(self.n, self.k)
        if self.kind == "quadrangle_bundle":
            return families.quadrangle_bundle(self.n, self.k)
        if self.kind == "tailed_quadrangle_bundle":
            return families.tailed_quadrangle_bundle(self.n, self.k)
        if self.kind == "bundle":
            return families.bundle(
                families.BundleSpec(self.cycle_lengths, self.pendants)
            )
        raise InfeasibleError(f"unknown family kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {key: v for key, v in record_dict(self).items() if v is not None}


class _BoundCaseFields(NamedTuple):
    theorem: str
    case: str | None
    applicable: bool
    flags: dict[str, bool] | None = None
    family: FamilyRef | None = None
    family_feasible: bool = False
    tied_t: tuple[int, ...] = ()
    note: str | None = None


class BoundCase(_BoundCaseFields):
    """Which case of a bound theorem fired, and what it predicts."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # Each case built without flags gets a dict of its own.
        return self if self.flags is not None else self._replace(flags={})

    to_dict = record_dict


def bundle_closed_form(cycle_lengths, m: int) -> QuarterInt:
    """Exact index value of the bundle with these cycle lengths and m edges.

    Edges not used by cycles are hub pendants. Odd and even cycle lengths
    contribute different terms; the split is derived from each length's
    parity.
    """
    lengths = tuple(cycle_lengths)
    if m < 0:
        raise InfeasibleError(f"negative edge count m={m}")
    total = 0
    for length in lengths:
        if length < 3:
            raise InfeasibleError(f"cycle length {length} < 3")
        total += length
    if total > m:
        raise InfeasibleError(f"cycle lengths sum to {total} > m={m}")
    quarters = 2 * m * m - m + (m - 1) ** 2 * total
    for length in lengths:
        if length % 2:
            quarters -= (length - 1) * (m - length) ** 2
        else:
            quarters -= length * (m - length) ** 2
    return QuarterInt(quarters)


def mix_step(m: int) -> QuarterInt:
    """Change in the mix value when one quadrangle becomes a triangle.

    Zero exactly at m = 3 and m = 15, negative in between, positive from
    m = 16 on; the sign decides which mix minimizes.
    """
    return QuarterInt((m - 9) ** 2 - 36)


def mix_closed_form(triangles: int, k: int, m: int) -> QuarterInt:
    """Bundle value with ``triangles`` triangles and ``k - triangles`` quads.

    Linear in the triangle count with slope ``mix_step(m)``.
    """
    t = triangles
    if not 0 <= t <= k:
        raise InfeasibleError(f"triangle count {t} outside 0..{k}")
    if 4 * k - t > m:
        raise InfeasibleError(
            f"mix of {t} triangles and {k - t} quadrangles needs "
            f"{4 * k - t} edges > m={m}"
        )
    return QuarterInt(2 * m * m - m + 4 * k * (6 * m - 15) + t * ((m - 9) ** 2 - 36))


def pendant_diff_bound(m: int) -> int:
    """Largest possible (m_u - m_v)^2 on any edge: (m-1)^2, met by pendants."""
    return (m - 1) ** 2


def cycle_diff_bound(length: int, m: int) -> int:
    """Bound on the sum of (m_u - m_v)^2 over one cycle's edges.

    Even length L gives L(m-L)^2, odd length gives (L-1)(m-L)^2; both are met
    exactly when the cycle is an end block.
    """
    if length < 3:
        raise InfeasibleError(f"cycle length {length} < 3")
    if length > m:
        raise InfeasibleError(f"cycle length {length} exceeds m={m}")
    if length % 2:
        return (length - 1) * (m - length) ** 2
    return length * (m - length) ** 2


def inner_cut_edge_bound(m: int, k: int) -> QuarterInt:
    """Lower bound when some cut edge is not pendant: all-quads value + m - 2."""
    if m < 4 * k + 1:
        raise InfeasibleError(f"needs m >= 4k+1, got m={m}, k={k}")
    return bundle_closed_form((4,) * k, m) + (m - 2)


def inner_cycle_bound(m: int, k: int) -> QuarterInt:
    """Lower-bound component when some cycle is not an end block."""
    if m < 4 * k:
        raise InfeasibleError(f"needs m >= 4k, got m={m}, k={k}")
    return bundle_closed_form((4,) * k, m) + (2 * m - 10)


def crossover(m: int) -> QuarterInt:
    """Gap between the two second-minimum candidates: (m^2 - 22m + 53)/4.

    Negative for 16 <= m <= 19, positive from m = 20 on; the sign picks the
    second-minimum case.
    """
    return QuarterInt(m * m - 22 * m + 53)


def _domain_flags(m: int, k: int) -> dict[str, bool]:
    """The thresholds on m that select the cases of thm3.2 and thm4.4."""
    return {
        "m_ge_15": m >= 15,
        "m_ge_4k": m >= 4 * k,
        "m_gt_15": m > 15,
        "m_gt_4k": m > 4 * k,
        "m_ge_20": m >= 20,
    }


def minimum_bound(m: int, k: int) -> tuple[BoundCase, QuarterInt | None]:
    """Sharp lower bound over all cacti with m edges and k cycles.

    Case i  (m >= 15, m >= 4k): all-quadrangle bundle is extremal.
    Case ii (m >= 15, m < 4k): forced triangles, mix with 4k - m triangles.
    Case iii (m < 15): all-triangle bundle is extremal.

    The value is linear in the triangle count, so ties across mixes happen
    exactly when the step vanishes (m = 15, and degenerately m = 3); every
    tied triangle count is reported.
    """
    if k < 0 or m < 0:
        raise InfeasibleError(f"negative parameters m={m}, k={k}")
    flags = _domain_flags(m, k)
    if 3 * k > m:
        case = BoundCase(
            theorem="thm3.2",
            case=None,
            applicable=False,
            flags=flags,
            note=f"no cactus has {k} cycles with only m={m} edges",
        )
        return case, None
    n = m - k + 1
    t_lo = max(0, 4 * k - m)
    if flags["m_ge_15"] and flags["m_ge_4k"]:
        label, t_star = "3.2-i", 0
        family = FamilyRef("quadrangle_bundle", n=n, k=k)
    elif flags["m_ge_15"]:
        label, t_star = "3.2-ii", 4 * k - m
        family = FamilyRef(
            "bundle",
            cycle_lengths=(3,) * t_star + (4,) * (k - t_star),
            pendants=0,
        )
    else:
        label, t_star = "3.2-iii", k
        family = FamilyRef("triangle_bundle", n=n, k=k)
    value = mix_closed_form(t_star, k, m)
    tied = tuple(
        t for t in range(t_lo, k + 1) if mix_closed_form(t, k, m) == value
    )
    note = None
    if len(tied) > 1:
        note = "mix value constant in triangle count; extremal family tied"
    case = BoundCase(
        theorem="thm3.2",
        case=label,
        applicable=True,
        flags=flags,
        family=family,
        family_feasible=True,
        tied_t=tied,
        note=note,
    )
    return case, value


def second_minimum_bound(m: int, k: int) -> tuple[BoundCase, QuarterInt | None]:
    """Sharp bound over the same cacti excluding the all-quadrangle bundle.

    Only defined for m > 15, m > 4k and k >= 1. For m >= 20 the runner-up is
    the tailed quadrangle bundle; for 16 <= m <= 19 it is the mix with one
    triangle. The crossover value decides which formula is smaller.
    """
    if k < 0 or m < 0:
        raise InfeasibleError(f"negative parameters m={m}, k={k}")
    flags = _domain_flags(m, k)
    if not (flags["m_gt_15"] and flags["m_gt_4k"] and k >= 1):
        reason = (
            "needs at least one cycle"
            if k < 1
            else f"outside domain m > 15 and m > 4k (m={m}, k={k})"
        )
        case = BoundCase(
            theorem="thm4.4",
            case=None,
            applicable=False,
            flags=flags,
            note=reason,
        )
        return case, None
    n = m - k + 1
    if flags["m_ge_20"]:
        label = "4.4-big-m"
        quarters = 2 * m * m + 3 * m + 4 * k * (6 * m - 15) - 8
        family = FamilyRef("tailed_quadrangle_bundle", n=n, k=k)
        feasible = n >= 3 * k + 3
        note = None
        if not feasible:
            note = (
                "predicted runner-up needs n >= 3k+3; no pendant is left to "
                "extend at this size"
            )
    else:
        label = "4.4-small-m"
        quarters = 3 * m * m - 19 * m + 4 * k * (6 * m - 15) + 45
        family = FamilyRef(
            "bundle", cycle_lengths=(3,) + (4,) * (k - 1), pendants=m - (4 * k - 1)
        )
        feasible = True
        note = None
    case = BoundCase(
        theorem="thm4.4",
        case=label,
        applicable=True,
        flags=flags,
        family=family,
        family_feasible=feasible,
        note=note,
    )
    return case, QuarterInt(quarters)
