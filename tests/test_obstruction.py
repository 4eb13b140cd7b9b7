from __future__ import annotations

import random
from fractions import Fraction

import pytest

from poslink import (
    BraidWord,
    LinkRecord,
    ObstructionInput,
    Strength,
    Verdict,
    components,
    conway,
    gamma,
    jones_summary,
    jones_test,
    jones_V,
    kh1_rank,
    khovanov_homology,
    khovanov_test,
    khovanov_test_from_kh1,
    cmd_test,
    strength_comparison,
)
from poslink import TestKind as ObstructionKind
from poslink import batch
from poslink.errors import NotApplicableError
from poslink.obstruction import InconsistentInvariants


class TestGamma:
    @pytest.mark.parametrize(
        "p1,lead,expected",
        [(0, 0, 0), (0, 99, 0), (1, 3, 4), (1, 1, 0), (2, 4, 4), (2, -1, -1)],
    )
    def test_table(self, p1, lead, expected):
        assert gamma(p1, lead) == expected

    def test_not_applicable(self):
        with pytest.raises(NotApplicableError):
            gamma(3, 1)
        with pytest.raises(NotApplicableError):
            gamma(7, 0)


def _inp(**kw):
    defaults = dict(p1=0, n=1, lead_conway=1)
    defaults.update(kw)
    return ObstructionInput(**defaults)


class TestInputValidation:
    def test_degree_order(self):
        with pytest.raises(ValueError):
            _inp(jones_min=Fraction(3), jones_max=Fraction(1))
        with pytest.raises(ValueError):
            _inp(j_lower=5, j_upper=1)

    def test_counts(self):
        with pytest.raises(ValueError):
            _inp(n=0)
        with pytest.raises(ValueError):
            _inp(p1=-1)


class TestJonesTest:
    def test_12n749_passes(self):
        r = jones_test(_inp(p1=0, n=1, jones_min=Fraction(3), jones_max=Fraction(10)))
        assert r.verdict is Verdict.PASS
        assert (r.lhs, r.rhs) == (10, 12)

    def test_trefoil_equality(self):
        r = jones_test(_inp(p1=0, n=1, jones_min=Fraction(1), jones_max=Fraction(4)))
        assert r.verdict is Verdict.PASS
        assert r.equality_attained
        assert r.rhs == 4

    def test_seven4_equality(self):
        r = jones_test(
            _inp(p1=2, n=1, lead_conway=4, jones_min=Fraction(1), jones_max=Fraction(8))
        )
        assert r.verdict is Verdict.PASS
        assert r.equality_attained
        assert r.rhs == 8
        assert r.gamma == 4

    def test_half_integer_arithmetic(self):
        # two components: the bound carries an exact half
        r = jones_test(
            _inp(p1=0, n=2, jones_min=Fraction(1, 2), jones_max=Fraction(5, 2))
        )
        assert r.rhs == Fraction(5, 2)
        assert r.equality_attained

    def test_fail_direction(self):
        r = jones_test(_inp(p1=0, n=1, jones_min=Fraction(1), jones_max=Fraction(9)))
        assert r.verdict is Verdict.FAIL
        assert "not positive" in r.note

    def test_not_applicable_p1(self):
        r = jones_test(_inp(p1=3, jones_min=Fraction(1), jones_max=Fraction(2)))
        assert r.verdict is Verdict.NOT_APPLICABLE
        assert not r.applicable

    def test_not_applicable_missing_degrees(self):
        r = jones_test(_inp(p1=0))
        assert r.verdict is Verdict.NOT_APPLICABLE

    def test_missing_lead_conway(self):
        r = jones_test(
            ObstructionInput(p1=1, n=1, jones_min=Fraction(1), jones_max=Fraction(2))
        )
        assert r.verdict is Verdict.NOT_APPLICABLE


class TestKhovanovTest:
    def test_12n749_fails(self):
        r = khovanov_test(_inp(p1=0, n=1, j_lower=3, j_upper=21))
        assert r.verdict is Verdict.FAIL
        assert (r.lhs, r.rhs) == (21, 17)

    def test_trefoil_equality(self):
        r = khovanov_test(_inp(p1=0, n=1, j_lower=1, j_upper=9))
        assert r.verdict is Verdict.PASS
        assert r.equality_attained
        assert r.rhs == 9

    def test_seven4_equality(self):
        r = khovanov_test(_inp(p1=2, n=1, lead_conway=4, j_lower=1, j_upper=17))
        assert r.verdict is Verdict.PASS
        assert r.equality_attained
        assert r.rhs == 17

    def test_p1_one_case(self):
        # rhs = 4 j_lower + n + 4 * lead
        r = khovanov_test(_inp(p1=1, n=1, lead_conway=3, j_lower=1, j_upper=10))
        assert r.rhs == 4 + 1 + 12
        assert r.gamma == 4

    def test_not_applicable(self):
        r = khovanov_test(_inp(p1=5, j_lower=1, j_upper=3))
        assert r.verdict is Verdict.NOT_APPLICABLE
        r = khovanov_test(_inp(p1=0))
        assert r.verdict is Verdict.NOT_APPLICABLE


class TestKh1Variant:
    def test_seven4(self, seven4):
        kh = khovanov_homology(seven4)
        r = khovanov_test_from_kh1(kh, 1, 4)
        assert r.test is ObstructionKind.KHOVANOV_FROM_KH1
        assert r.verdict is Verdict.PASS
        assert r.equality_attained
        assert (r.lhs, r.rhs) == (17, 17)
        assert "positive links" in r.note

    def test_trefoil(self, trefoil):
        kh = khovanov_homology(trefoil)
        r = khovanov_test_from_kh1(kh, 1, 1)
        assert r.verdict is Verdict.PASS
        assert (r.lhs, r.rhs) == (9, 9)

    def test_unknot_boundary(self, unknot):
        kh = khovanov_homology(unknot)
        r = khovanov_test_from_kh1(kh, 1, 1)
        assert r.verdict is Verdict.PASS
        assert (r.lhs, r.rhs) == (1, 1)

    def test_split_link_not_applicable(self):
        # closure of sigma_1^2 in B_3: a positive split link with p1 = 1
        # but rank Kh^1 = 0, and a zero Conway polynomial
        from poslink import braid_closure, parse_braid

        kh = khovanov_homology(braid_closure(parse_braid("strands=3; 1 1")))
        assert kh1_rank(kh) == 0
        r = khovanov_test_from_kh1(kh, 3, None)
        assert r.verdict is Verdict.NOT_APPLICABLE
        assert "may be split" in r.note

    def test_rank_out_of_range(self):
        from poslink import BigradedGroups

        kh = BigradedGroups({(1, 1): (3, ()), (0, -1): (1, ())})
        r = khovanov_test_from_kh1(kh, 1, 1)
        assert r.verdict is Verdict.NOT_APPLICABLE


class TestStrength:
    def test_12n749(self):
        jr = jones_test(_inp(p1=0, n=1, jones_min=Fraction(3), jones_max=Fraction(10)))
        kr = khovanov_test(_inp(p1=0, n=1, j_lower=3, j_upper=21))
        assert strength_comparison(jr, kr) is Strength.KHOVANOV_ONLY_FAILS

    def test_trefoil(self):
        jr = jones_test(_inp(p1=0, n=1, jones_min=Fraction(1), jones_max=Fraction(4)))
        kr = khovanov_test(_inp(p1=0, n=1, j_lower=1, j_upper=9))
        assert strength_comparison(jr, kr) is Strength.NEITHER_FAILS

    def test_both_fail(self):
        jr = jones_test(_inp(p1=0, n=1, jones_min=Fraction(1), jones_max=Fraction(99)))
        kr = khovanov_test(_inp(p1=0, n=1, j_lower=1, j_upper=99))
        assert strength_comparison(jr, kr) is Strength.BOTH_FAIL

    def test_requires_applicable(self):
        jr = jones_test(_inp(p1=9))
        kr = khovanov_test(_inp(p1=0, n=1, j_lower=1, j_upper=9))
        with pytest.raises(NotApplicableError):
            strength_comparison(jr, kr)

    def test_jones_only_failure_is_inconsistent(self):
        # V of degrees 1..99 has chi(Kh) reaching q^199, so j_upper = 9
        # cannot come from the same link
        jr = jones_test(_inp(p1=0, n=1, jones_min=Fraction(1), jones_max=Fraction(99)))
        kr = khovanov_test(_inp(p1=0, n=1, j_lower=1, j_upper=9))
        assert jr.failed and not kr.failed
        with pytest.raises(InconsistentInvariants):
            strength_comparison(jr, kr)

    def test_jones_only_failure_is_a_record_error(self, monkeypatch):
        # a Khovanov report that passes whatever the gradings: the record
        # gets the error and neither a report nor a comparison
        passing = khovanov_test(_inp(p1=0, n=1, j_lower=1, j_upper=9))
        monkeypatch.setattr(batch, "khovanov_test", lambda inp: passing)
        left_trefoil = LinkRecord("left trefoil", braid=BraidWord(2, (-1, -1, -1)))
        (result,) = cmd_test([left_trefoil])
        assert result.error == (
            "InconsistentInvariants: the Jones test fails but the Khovanov test passes"
        )
        assert result.reports == [] and result.comparison is None

    def test_random_signed_braids(self):
        # 3-5 strands, 10-15 letters: a Jones Fail comes with a Khovanov Fail
        rng = random.Random(11)
        jones_fails = 0
        for _ in range(60):
            n = rng.randint(3, 5)
            letters = tuple(
                rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(10, 15))
            )
            (result,) = cmd_test([LinkRecord("braid", braid=BraidWord(n, letters))])
            assert result.error is None, (n, letters, result.error)
            if result.reports and result.reports[0].failed:
                jones_fails += 1
                assert result.reports[1].failed, (n, letters)
                assert result.comparison is Strength.BOTH_FAIL
        assert jones_fails >= 10


class TestMonotonicConsistency:
    def test_khovanov_bound_doubles_jones_bound(self, survey_data):
        # on positive diagrams the realized gradings satisfy
        # j_lower = 2 min deg V - 1; there the two right-hand sides are
        # locked together as rhs_kh = 2 rhs_jones + 1, so a Jones failure
        # would force a homology failure whenever j_upper >= 2 max deg V + 1
        checked = 0
        for entry in survey_data:
            s = jones_summary(entry.jones)
            if s.p1 > 2 or entry.conway.is_zero:
                continue
            n = components(entry.diagram)
            lead = entry.conway.lead_coeff()
            j_lower, j_upper = entry.kh.j_range()
            if j_lower != 2 * s.min_deg - 1:
                continue
            inp = ObstructionInput(
                p1=s.p1, n=n, lead_conway=lead,
                jones_min=s.min_deg, jones_max=s.max_deg,
                j_lower=j_lower, j_upper=j_upper,
            )
            jr, kr = jones_test(inp), khovanov_test(inp)
            assert kr.rhs == 2 * jr.rhs + 1
            if j_upper >= 2 * s.max_deg + 1 and jr.verdict is Verdict.FAIL:
                assert kr.verdict is Verdict.FAIL
            checked += 1
        assert checked >= 20


class TestReportShape:
    def test_verdict_rederivable(self, trefoil, seven4):
        for d in (trefoil, seven4):
            s = jones_summary(jones_V(d))
            inp = ObstructionInput(
                p1=s.p1,
                n=components(d),
                lead_conway=conway(d).lead_coeff(),
                jones_min=s.min_deg,
                jones_max=s.max_deg,
            )
            r = jones_test(inp)
            assert (r.verdict is Verdict.FAIL) == (r.applicable and r.lhs > r.rhs)

    def test_lines(self):
        r = jones_test(_inp(p1=0, n=1, jones_min=Fraction(1), jones_max=Fraction(4)))
        lines = r.to_lines()
        assert "test: JonesTest" in lines
        assert "verdict: Pass" in lines
        assert any(line.startswith("rhs: 4") for line in lines)

    def test_dict_serialization(self):
        r = khovanov_test(_inp(p1=0, n=1, j_lower=3, j_upper=21))
        d = r.to_dict()
        assert d["verdict"] == "Fail"
        assert d["lhs"] == "21"
        assert d["rhs"] == "17"
        assert d["equality"] is False
