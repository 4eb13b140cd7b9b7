from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslink import (
    LaurentPoly,
    braid_closure,
    components,
    format_poly,
    jones_summary,
    jones_V,
    kauffman_bracket,
    lickorish_bounds,
    parse_braid,
    parse_poly,
    reduce_nugatory,
    unnormalized_to_v,
    v_to_unnormalized,
)
from poslink.errors import (
    MalformedPolynomial,
    MixedParity,
    NotDivisible,
    NotPositiveDiagram,
    ZeroPolynomial,
)

TREFOIL_V = parse_poly("t + t^3 - t^4")
SEVEN4_V = parse_poly("t - 2t^2 + 3t^3 - 2t^4 + 3t^5 - 2t^6 + t^7 - t^8")


def halfstep_polys(min_key=-8, max_key=8, max_coeff=6):
    return st.builds(
        LaurentPoly._raw,
        st.dictionaries(
            st.integers(min_key, max_key), st.integers(-max_coeff, max_coeff)
        ),
    )


class TestArithmetic:
    def test_zero_coefficients_dropped(self):
        assert LaurentPoly({2: 0, 3: 1}) == LaurentPoly({3: 1})
        assert not LaurentPoly({1: 0})

    def test_half_exponents(self):
        p = LaurentPoly({Fraction(1, 2): 1})
        assert p.min_deg() == Fraction(1, 2)
        with pytest.raises(MalformedPolynomial):
            LaurentPoly({Fraction(1, 3): 1})

    def test_degrees_and_lead(self):
        p = parse_poly("2t^-1 + t^3")
        assert p.min_deg() == -1
        assert p.max_deg() == 3
        assert p.lead_coeff() == 1
        with pytest.raises(ZeroPolynomial):
            LaurentPoly.zero().min_deg()

    def test_pow(self):
        p = parse_poly("1 + t")
        assert p**3 == parse_poly("1 + 3t + 3t^2 + t^3")
        assert p**0 == LaurentPoly.one()

    @given(p=halfstep_polys(), q=halfstep_polys(), r=halfstep_polys())
    @settings(max_examples=80)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert p + LaurentPoly.zero() == p
        assert p * LaurentPoly.one() == p
        assert p - p == LaurentPoly.zero()


class TestTextForm:
    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "1",
            "-2",
            "t",
            "-t",
            "t + t^3 - t^4",
            "t - 2t^2 + 3t^3",
            "-t^(1/2) - t^(5/2)",
            "t^(-3/2) + 2t^-1",
            "1 + z^2",
        ],
    )
    def test_roundtrip_canonical(self, text):
        var = "z" if "z" in text else "t"
        assert format_poly(parse_poly(text, var), var) == text

    @given(p=halfstep_polys())
    @settings(max_examples=80)
    def test_parse_format_inverse(self, p):
        assert parse_poly(format_poly(p, "t"), "t") == p

    def test_accepts_unnormalized_input(self):
        assert parse_poly("t^3+t^5-t^6") == parse_poly("t^3 + t^5 - t^6")
        assert parse_poly("3*t^2") == parse_poly("3t^2")
        assert parse_poly("t + t") == parse_poly("2t")

    def test_rejects_garbage(self):
        for bad in ("", "t +", "q^2", "t^^2", "t^(1/3)", "2 2"):
            with pytest.raises(MalformedPolynomial):
                parse_poly(bad, "t")


class TestBracket:
    def test_unknot(self, unknot):
        assert kauffman_bracket(unknot) == LaurentPoly.one()

    def test_two_circle_unlink(self):
        from poslink import parse_pd

        d = parse_pd("PD[O[],O[]]")
        assert kauffman_bracket(d) == LaurentPoly({2: -1, -2: -1})


class TestJones:
    def test_trefoil(self, trefoil):
        assert jones_V(trefoil) == TREFOIL_V

    def test_seven4(self, seven4):
        assert jones_V(seven4) == SEVEN4_V

    def test_unknot(self, unknot):
        assert jones_V(unknot) == LaurentPoly.one()

    def test_kinked_unknot(self):
        d = braid_closure(parse_braid("strands=2; 1"))
        assert jones_V(d) == LaurentPoly.one()

    def test_mirror_trefoil(self, mirror_trefoil):
        assert jones_V(mirror_trefoil) == parse_poly("-t^-4 + t^-3 + t^-1")

    def test_hopf(self, hopf):
        assert jones_V(hopf) == parse_poly("-t^(1/2) - t^(5/2)")

    def test_value_at_one(self, trefoil, seven4, hopf, unknot):
        for d in (trefoil, seven4, hopf, unknot):
            assert jones_V(d).evaluate_at_one() == (-2) ** (components(d) - 1)

    def test_exponent_parity_matches_components(self, trefoil, hopf):
        assert jones_V(trefoil).exponent_parities() == {0}
        assert jones_V(hopf).exponent_parities() == {1}
        # three components: integer exponents again
        three = braid_closure(parse_braid("strands=3; 1 1"))
        assert components(three) == 3
        assert jones_V(three).exponent_parities() == {0}

    def test_invariance_under_moves(self, trefoil, perturbed_trefoil, stabilized_trefoil):
        v = jones_V(trefoil)
        assert jones_V(perturbed_trefoil) == v
        assert jones_V(stabilized_trefoil) == v
        assert jones_V(reduce_nugatory(stabilized_trefoil)) == v

    def test_invariance_under_r3(self):
        # the braid relation realizes a third Reidemeister move
        a = braid_closure(parse_braid("strands=3; 1 2 1"))
        b = braid_closure(parse_braid("strands=3; 2 1 2"))
        assert jones_V(a) == jones_V(b)


class TestConversions:
    def test_seven4_unnormalized(self):
        expected = parse_poly("q - q^3 + q^5 + q^7 + q^9 + q^11 - q^13 - q^17", "q")
        assert v_to_unnormalized(SEVEN4_V) == expected

    def test_unknot(self):
        assert v_to_unnormalized(LaurentPoly.one()) == parse_poly("q^-1 + q", "q")

    def test_trefoil(self):
        assert v_to_unnormalized(TREFOIL_V) == parse_poly("q + q^3 + q^5 - q^9", "q")

    def test_back_direction(self):
        j = parse_poly("q + q^3 + q^5 - q^9", "q")
        assert unnormalized_to_v(j) == TREFOIL_V
        assert unnormalized_to_v(parse_poly("q^-1 + q", "q")) == LaurentPoly.one()

    def test_roundtrip(self, trefoil, seven4, hopf, mirror_trefoil):
        for d in (trefoil, seven4, hopf, mirror_trefoil):
            v = jones_V(d)
            assert unnormalized_to_v(v_to_unnormalized(v)) == v

    def test_mixed_parity_rejected(self):
        with pytest.raises(MixedParity):
            v_to_unnormalized(parse_poly("t + t^(1/2)"))

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            unnormalized_to_v(parse_poly("q^2", "q"))
        with pytest.raises(NotDivisible):
            unnormalized_to_v(parse_poly("q + q^5", "q"))

    @given(
        keys=st.sets(st.integers(-6, 6), min_size=1, max_size=5),
        coeffs=st.lists(st.integers(-4, 4), min_size=5, max_size=5),
        odd=st.booleans(),
    )
    @settings(max_examples=60)
    def test_roundtrip_property(self, keys, coeffs, odd):
        data = {2 * k + (1 if odd else 0): c for k, c in zip(sorted(keys), coeffs)}
        v = LaurentPoly._raw(data)
        if v.is_zero:
            return
        assert unnormalized_to_v(v_to_unnormalized(v)) == v


class TestSummary:
    def test_seven4(self):
        s = jones_summary(SEVEN4_V)
        assert (s.min_deg, s.max_deg, s.second_coeff, s.p1) == (1, 8, -2, 2)

    def test_trefoil_absent_second(self):
        s = jones_summary(TREFOIL_V)
        assert (s.min_deg, s.max_deg, s.second_coeff, s.p1) == (1, 4, 0, 0)

    def test_12n749(self):
        v = parse_poly("t^3 + t^5 - t^6 + t^7 - t^8 + t^9 - t^10")
        s = jones_summary(v)
        assert (s.min_deg, s.max_deg, s.second_coeff, s.p1) == (3, 10, 0, 0)

    def test_half_integer_degrees(self, hopf):
        s = jones_summary(jones_V(hopf))
        assert s.min_deg == Fraction(1, 2)
        assert s.max_deg == Fraction(5, 2)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            jones_summary(LaurentPoly.zero())


class TestLickorishBounds:
    def test_trefoil(self, trefoil):
        assert lickorish_bounds(trefoil) == (1, 4)

    def test_unknot(self, unknot):
        assert lickorish_bounds(unknot) == (0, 0)

    def test_seven4(self, seven4):
        assert lickorish_bounds(seven4) == (1, 8)

    def test_rejects_negative_diagram(self, mirror_trefoil):
        with pytest.raises(NotPositiveDiagram):
            lickorish_bounds(mirror_trefoil)

    def test_min_deg_exact_max_deg_bounded(self, trefoil, seven4):
        for d in (trefoil, seven4):
            lo, hi = lickorish_bounds(d)
            s = jones_summary(jones_V(d))
            assert s.min_deg == lo
            assert s.max_deg <= hi
