"""Positivity obstruction tests.

Every non-split positive link whose second Jones coefficient has absolute
value p1 in {0, 1, 2} satisfies two diagram-independent inequalities, one
on the Jones degree spread and one on the extreme quantum gradings of
Khovanov homology.  A link that violates one of them therefore cannot be
positive; passing proves nothing.  Both right-hand sides share the case correction

    gamma = 0                           p1 = 0
    gamma = 2*lead_conway - 2           p1 = 1
    gamma = lead_conway                 p1 = 2

with lead_conway the leading Conway coefficient, giving

    max deg V  <=  4 min deg V + (n-1)/2 + gamma
    j_upper    <=  4 j_lower   + n + 4   + 2*gamma

for an n-component link.  Arithmetic is exact: the Jones side compares
half-integers when n is even.  A link of two or more components counts as
non-split only when its Conway polynomial is known and nonzero; otherwise
every test reports NotApplicable.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import NotApplicableError, PoslinkError, Value

if TYPE_CHECKING:
    from .khovanov import BigradedGroups

APPLICABLE_P1 = (0, 1, 2)


class Verdict(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"
    NOT_APPLICABLE = "NotApplicable"


class TestKind(enum.Enum):
    JONES = "JonesTest"
    KHOVANOV = "KhovanovTest"
    KHOVANOV_FROM_KH1 = "KhovanovFromKh1"


class InconsistentInvariants(PoslinkError, ValueError):
    """The reports of one link contradict each other, so its invariants
    cannot all belong to one link.  Kept here rather than in ``errors``,
    which every command loads: only the tests raise it."""


class Strength(enum.Enum):
    KHOVANOV_ONLY_FAILS = "KhovanovOnlyFails"
    BOTH_FAIL = "BothFail"
    NEITHER_FAILS = "NeitherFails"


def gamma(p1: int, lead_conway: int) -> int:
    """Case correction term; defined only for p1 in {0, 1, 2}."""
    if p1 == 0:
        return 0
    if p1 == 1:
        return 2 * lead_conway - 2
    if p1 == 2:
        return lead_conway
    raise NotApplicableError(f"no obstruction case for p1 = {p1}")


class ObstructionInput(Value):
    """Everything the two inequalities consume.

    Jones degrees are half-integers for even component counts; the
    homology gradings are optional since they require more computation
    (or ingested data) than the Jones side.
    """

    __slots__ = ("p1", "n", "lead_conway", "jones_min", "jones_max", "j_lower", "j_upper")

    def __init__(
        self,
        p1: int,
        n: int,
        lead_conway: int | None = None,
        jones_min: Fraction | None = None,
        jones_max: Fraction | None = None,
        j_lower: int | None = None,
        j_upper: int | None = None,
    ):
        if p1 < 0:
            raise ValueError("p1 is an absolute value, must be >= 0")
        if n < 1:
            raise ValueError("component count must be >= 1")
        if jones_min is not None and jones_max is not None and jones_min > jones_max:
            raise ValueError("jones_min must not exceed jones_max")
        if j_lower is not None and j_upper is not None and j_lower > j_upper:
            raise ValueError("j_lower must not exceed j_upper")
        self.p1 = p1
        self.n = n
        self.lead_conway = lead_conway
        self.jones_min = jones_min
        self.jones_max = jones_max
        self.j_lower = j_lower
        self.j_upper = j_upper


class ObstructionReport(Value):
    """One inequality evaluation, auditable from its own fields:
    verdict is Fail exactly when applicable and lhs > rhs."""

    __slots__ = ("test", "applicable", "lhs", "rhs", "gamma", "verdict", "note")

    def __init__(
        self,
        test: TestKind,
        applicable: bool,
        lhs: Fraction | None,
        rhs: Fraction | None,
        gamma: int | None,
        verdict: Verdict,
        note: str = "",
    ):
        self.test = test
        self.applicable = applicable
        self.lhs = lhs
        self.rhs = rhs
        self.gamma = gamma
        self.verdict = verdict
        self.note = note

    @property
    def equality_attained(self) -> bool:
        return self.applicable and self.lhs == self.rhs

    @property
    def failed(self) -> bool:
        return self.verdict is Verdict.FAIL

    def to_lines(self) -> list[str]:
        def num(x):
            return "-" if x is None else str(x)

        lines = [
            f"test: {self.test.value}",
            f"applicable: {str(self.applicable).lower()}",
            f"lhs: {num(self.lhs)}",
            f"rhs: {num(self.rhs)}",
            f"gamma: {num(self.gamma)}",
            f"verdict: {self.verdict.value}",
        ]
        if self.note:
            lines.append(f"note: {self.note}")
        return lines

    def to_dict(self) -> dict:
        return {
            "test": self.test.value,
            "applicable": self.applicable,
            "lhs": None if self.lhs is None else str(self.lhs),
            "rhs": None if self.rhs is None else str(self.rhs),
            "gamma": self.gamma,
            "verdict": self.verdict.value,
            "equality": self.equality_attained,
            "note": self.note,
        }


def _not_applicable(kind: TestKind, note: str) -> ObstructionReport:
    return ObstructionReport(kind, False, None, None, None, Verdict.NOT_APPLICABLE, note)


SPLIT_CAVEAT = "Conway polynomial zero or unknown; the link may be split"


def _gate(p1: int, n: int, lead_conway: int | None) -> tuple[int | None, str]:
    """The correction gamma, or None and the reason the test stands down.

    The inequalities hold for non-split links only: the Jones polynomial of
    a split union is -(t^(1/2) + t^(-1/2)) V1 V2, whose second coefficient
    can cancel.  A knot is never split, and a split link has Conway
    polynomial 0, so a link needs a known nonzero one (lead_conway is None
    when it is zero or was not computed).
    """
    if n != 1 and lead_conway is None:
        return None, SPLIT_CAVEAT
    if p1 not in APPLICABLE_P1:
        return None, f"p1 = {p1} is outside the supported cases 0, 1, 2"
    if p1 == 0:
        return 0, ""
    if lead_conway is None:
        return None, f"p1 = {p1} needs the leading Conway coefficient"
    return gamma(p1, lead_conway), ""


def jones_test(inp: ObstructionInput) -> ObstructionReport:
    """max deg V <= 4 min deg V + (n-1)/2 + gamma; Fail certifies
    'not a positive link'."""
    kind = TestKind.JONES
    g, why = _gate(inp.p1, inp.n, inp.lead_conway)
    if g is None:
        return _not_applicable(kind, why)
    if inp.jones_min is None or inp.jones_max is None:
        return _not_applicable(kind, "Jones degrees unavailable")
    lhs = Fraction(inp.jones_max)
    rhs = 4 * Fraction(inp.jones_min) + Fraction(inp.n - 1, 2) + g
    verdict = Verdict.FAIL if lhs > rhs else Verdict.PASS
    note = "violation certifies the link is not positive" if verdict is Verdict.FAIL else ""
    return ObstructionReport(kind, True, lhs, rhs, g, verdict, note)


def khovanov_test(inp: ObstructionInput) -> ObstructionReport:
    """j_upper <= 4 j_lower + n + 4 + 2 gamma on Khovanov quantum gradings."""
    kind = TestKind.KHOVANOV
    g, why = _gate(inp.p1, inp.n, inp.lead_conway)
    if g is None:
        return _not_applicable(kind, why)
    if inp.j_lower is None or inp.j_upper is None:
        return _not_applicable(kind, "extreme quantum gradings unavailable")
    lhs = Fraction(inp.j_upper)
    rhs = Fraction(4 * inp.j_lower + inp.n + 4 + 2 * g)
    verdict = Verdict.FAIL if lhs > rhs else Verdict.PASS
    note = "violation certifies the link is not positive" if verdict is Verdict.FAIL else ""
    return ObstructionReport(kind, True, lhs, rhs, g, verdict, note)


KH1_CAVEAT = (
    "p1 taken as rank of homological grading 1, an identity valid for "
    "positive links; the contrapositive use stays sound"
)


def khovanov_test_from_kh1(
    kh: BigradedGroups, n: int, lead_conway: int | None
) -> ObstructionReport:
    """Khovanov test with p1 read off the rank in homological grading 1.

    For a positive link that rank equals the second-coefficient magnitude,
    so a Fail still certifies non-positivity even though the identification
    is only hypothesized for arbitrary input.  Split positive links break
    the identity (rank Kh^1 is 0 on the closure of sigma_1^k in B_3); the
    split gate shared with the other two tests covers them.
    """
    j_lower, j_upper = kh.j_range()
    inp = ObstructionInput(
        p1=kh.total_rank_at(1), n=n, lead_conway=lead_conway, j_lower=j_lower, j_upper=j_upper
    )
    r = khovanov_test(inp)
    note = KH1_CAVEAT if not r.note else f"{r.note}; {KH1_CAVEAT}"
    return ObstructionReport(
        TestKind.KHOVANOV_FROM_KH1, r.applicable, r.lhs, r.rhs, r.gamma, r.verdict, note
    )


def strength_comparison(jr: ObstructionReport, kr: ObstructionReport) -> Strength:
    """Classify which of the two tests detects non-positivity, given the
    Jones and the Khovanov report of one input.

    The Jones test never fails alone on consistent invariants.  The graded
    Euler characteristic of Kh is (q + q^-1) V(q^2), so Kh is nonzero in
    the top and the bottom quantum grading of that polynomial:
    j_upper >= 2M + 1 and j_lower <= 2m - 1 for M = max deg V and
    m = min deg V.  With the same p1, n and gamma, a Jones violation
    M > 4m + (n-1)/2 + gamma then gives

        j_upper >= 2M + 1 > 8m + n + 2 gamma
                = 4 (2m - 1) + n + 4 + 2 gamma >= 4 j_lower + n + 4 + 2 gamma,

    a Khovanov violation.  Every record's V and Kh pass the check
    chi(Kh) = (q + q^-1) V before its tests run, so a Jones-only failure
    raises InconsistentInvariants instead of giving a verdict.
    """
    if not (jr.applicable and kr.applicable):
        raise NotApplicableError("both reports must be applicable to compare")
    if jr.failed and kr.failed:
        return Strength.BOTH_FAIL
    if jr.failed:
        raise InconsistentInvariants("the Jones test fails but the Khovanov test passes")
    if kr.failed:
        return Strength.KHOVANOV_ONLY_FAILS
    return Strength.NEITHER_FAILS
