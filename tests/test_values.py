"""Value semantics of the record classes: field-wise ``==``, ``hash`` and
``repr``, and the error each constructor raises on bad fields."""

from __future__ import annotations

from fractions import Fraction

import pytest

from poslink import (
    BigradedGroups,
    BraidWord,
    CrossingSigns,
    Diagram,
    GradingSummary,
    JonesSummary,
    ObstructionInput,
    ObstructionReport,
    Verdict,
    braid_closure,
    khovanov_homology,
    khovanov_test,
    khovanov_test_from_kh1,
    parse_braid,
)
from poslink import TestKind as ObstructionKind
from poslink.errors import (
    ArcMultiplicity,
    ArityError,
    GeneratorOutOfRange,
    MalformedBraid,
    MalformedPD,
    ZeroLetter,
)
from poslink.obstruction import KH1_CAVEAT

TREFOIL = ((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3))

# (an instance, an equal one built from other objects, one that differs in
# a single field, the field names)
VALUES = {
    "Diagram": (
        lambda: Diagram(TREFOIL),
        lambda: Diagram([list(t) for t in TREFOIL], 0),
        lambda: Diagram(TREFOIL, 1),
        ("crossings", "free_circles"),
    ),
    "BraidWord": (
        lambda: BraidWord(3, (1, -2)),
        lambda: BraidWord(3, [1, -2]),
        lambda: BraidWord(3, (1, 2)),
        ("strand_count", "letters"),
    ),
    "CrossingSigns": (
        lambda: CrossingSigns((1, -1)),
        lambda: CrossingSigns(tuple([1, -1])),
        lambda: CrossingSigns((1, 1)),
        ("signs",),
    ),
    "JonesSummary": (
        lambda: JonesSummary(Fraction(1), Fraction(4), -1, 1),
        lambda: JonesSummary(Fraction(2, 2), 4, -1, 1),
        lambda: JonesSummary(Fraction(1), Fraction(4), 1, 1),
        ("min_deg", "max_deg", "second_coeff", "p1"),
    ),
    "GradingSummary": (
        lambda: GradingSummary(1, 9, -1, 11),
        lambda: GradingSummary(1, 9, -1, 11),
        lambda: GradingSummary(1, 9, 1, 11),
        ("j_lower", "j_upper", "j_min_potential", "j_max_potential"),
    ),
    "ObstructionInput": (
        lambda: ObstructionInput(1, 1, 1, Fraction(1), Fraction(4), 1, 9),
        lambda: ObstructionInput(
            p1=1, n=1, lead_conway=1, jones_min=1, jones_max=4, j_lower=1, j_upper=9
        ),
        lambda: ObstructionInput(1, 1, 1, Fraction(1), Fraction(4), 1, 7),
        ("p1", "n", "lead_conway", "jones_min", "jones_max", "j_lower", "j_upper"),
    ),
    "ObstructionReport": (
        lambda: ObstructionReport(
            ObstructionKind.JONES, True, Fraction(4), Fraction(4), 0, Verdict.PASS
        ),
        lambda: ObstructionReport(ObstructionKind.JONES, True, 4, 4, 0, Verdict.PASS, ""),
        lambda: ObstructionReport(
            ObstructionKind.JONES, True, Fraction(4), Fraction(4), 0, Verdict.PASS, "a note"
        ),
        ("test", "applicable", "lhs", "rhs", "gamma", "verdict", "note"),
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_fields_make_equal_values(name):
    make, make_equal, make_other, fields = VALUES[name]
    a, b, c = make(), make_equal(), make_other()
    assert type(a).__name__ == name
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    assert a != object()
    text = repr(a)
    assert text.startswith(f"{name}(") and text.endswith(")")
    for field in fields:
        assert f"{field}={getattr(a, field)!r}" in text


@pytest.mark.parametrize("build, error", [
    (lambda: Diagram([(1, 2, 3)]), ArityError),
    (lambda: Diagram([(1, 1, 2, 3)]), ArcMultiplicity),
    (lambda: Diagram([(0, 1, 2, 1)]), MalformedPD),
    (lambda: Diagram(TREFOIL, -1), MalformedPD),
    (lambda: Diagram([(1, 2, 3, 4), (2, 3, 4, 1)]), MalformedPD),
    (lambda: BraidWord(0), MalformedBraid),
    (lambda: BraidWord(3, (1, 0)), ZeroLetter),
    (lambda: BraidWord(2, (1, -2)), GeneratorOutOfRange),
    (lambda: JonesSummary(Fraction(2), Fraction(1), 0, 0), ValueError),
    (lambda: JonesSummary(Fraction(1), Fraction(2), -1, 2), ValueError),
    (lambda: GradingSummary(3, 1, 1, 3), ValueError),
    (lambda: GradingSummary(1, 3, 3, 5), ValueError),
    (lambda: ObstructionInput(-1, 1), ValueError),
    (lambda: ObstructionInput(0, 0), ValueError),
    (lambda: ObstructionInput(0, 1, jones_min=Fraction(2), jones_max=Fraction(1)), ValueError),
    (lambda: ObstructionInput(0, 1, j_lower=3, j_upper=1), ValueError),
])
def test_constructors_reject_bad_fields(build, error):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error


@pytest.mark.parametrize("kh, n, lead, verdict", [
    (khovanov_homology(braid_closure(parse_braid("strands=2; 1 1 1"))), 1, 1, Verdict.PASS),
    (BigradedGroups({(0, 1): (1, ()), (2, 21): (1, ())}), 1, None, Verdict.FAIL),
    # split: rank Kh^1 = 0 and no Conway polynomial
    (khovanov_homology(braid_closure(parse_braid("strands=3; 1 1"))), 3, None,
     Verdict.NOT_APPLICABLE),
])
def test_kh1_report_is_the_khovanov_report_relabelled(kh, n, lead, verdict):
    j_lower, j_upper = kh.j_range()
    plain = khovanov_test(
        ObstructionInput(kh.total_rank_at(1), n, lead, j_lower=j_lower, j_upper=j_upper)
    )
    report = khovanov_test_from_kh1(kh, n, lead)
    assert report.verdict is verdict
    assert report.test is ObstructionKind.KHOVANOV_FROM_KH1
    assert report.note == (f"{plain.note}; {KH1_CAVEAT}" if plain.note else KH1_CAVEAT)
    for field in ObstructionReport.__slots__:
        if field not in ("test", "note"):
            assert getattr(report, field) == getattr(plain, field), field
