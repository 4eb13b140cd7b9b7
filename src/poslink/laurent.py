"""Exact Laurent polynomials with half-integer exponents, and the
Kauffman-bracket route to the Jones polynomial.  The bracket contracts the
diagram one crossing at a time over planar matchings of the open ends
(Kauffman, *State models and the Jones polynomial*, 1987), by the
contraction engine it shares with the Khovanov tangle builder
(:mod:`poslink.contraction`).

Exponents are stored as integer counts of half-steps (stored key k means
exponent k/2), so t^(1/2) is exact and no rational arithmetic is needed.
Coefficients are arbitrary-precision integers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, Mapping

from .contraction import _Interned, _smoothings, contract
from .diagram import Diagram, a_state_circles, b_state_circles, crossing_signs, is_positive
from .errors import (
    MalformedPolynomial,
    MixedParity,
    NotDivisible,
    NotPositiveDiagram,
    Value,
    ZeroPolynomial,
)


def _to_halves(exponent) -> int:
    f = Fraction(exponent)
    if f.denominator == 1:
        return 2 * f.numerator
    if f.denominator == 2:
        return f.numerator
    raise MalformedPolynomial(f"exponent {exponent} is not a half-integer")


class LaurentPoly:
    """Immutable Laurent polynomial over Z in one variable.

    The variable is anonymous; choose its display name when formatting.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping = ()):  # exponent -> coefficient
        data: dict[int, int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for exp, c in items:
            c = int(c)
            if c:
                key = _to_halves(exp)
                data[key] = data.get(key, 0) + c
        object.__setattr__(self, "_coeffs", {k: v for k, v in data.items() if v})

    @classmethod
    def _raw(cls, halves: dict[int, int]) -> "LaurentPoly":
        p = object.__new__(cls)
        object.__setattr__(p, "_coeffs", {k: v for k, v in halves.items() if v})
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw({0: 1})

    @classmethod
    def term(cls, coeff: int, exponent) -> "LaurentPoly":
        return cls._raw({_to_halves(exponent): int(coeff)} if coeff else {})

    # -- interrogation ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, exponent) -> int:
        return self._coeffs.get(_to_halves(exponent), 0)

    def min_deg(self) -> Fraction:
        if not self._coeffs:
            raise ZeroPolynomial("the zero polynomial has no degrees")
        return Fraction(min(self._coeffs), 2)

    def max_deg(self) -> Fraction:
        if not self._coeffs:
            raise ZeroPolynomial("the zero polynomial has no degrees")
        return Fraction(max(self._coeffs), 2)

    def lead_coeff(self) -> int:
        if not self._coeffs:
            raise ZeroPolynomial("the zero polynomial has no leading coefficient")
        return self._coeffs[max(self._coeffs)]

    def terms(self) -> Iterator[tuple[Fraction, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        for k in sorted(self._coeffs):
            yield Fraction(k, 2), self._coeffs[k]

    def halves(self) -> list[tuple[int, int]]:
        """(exponent in half-steps, coefficient) pairs in ascending order:
        :meth:`terms` without building a Fraction per exponent."""
        return sorted(self._coeffs.items())

    def exponent_parities(self) -> set[int]:
        """Half-step parities present: 0 = integer, 1 = half-odd-integer."""
        return {k & 1 for k in self._coeffs}

    def evaluate_at_one(self) -> int:
        return sum(self._coeffs.values())

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({k: -v for k, v in self._coeffs.items()})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            out[k] = out.get(k, 0) + v
        return LaurentPoly._raw(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            out[k] = out.get(k, 0) - v
        return LaurentPoly._raw(out)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly._raw({k: v * other for k, v in self._coeffs.items()})
        out: dict[int, int] = {}
        for k1, v1 in self._coeffs.items():
            for k2, v2 in other._coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + v1 * v2
        return LaurentPoly._raw(out)

    __rmul__ = __mul__

    def __floordiv__(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient: raises ArithmeticError unless ``other`` divides
        this polynomial in Z[x, x^-1] (or in Z[x^(1/2), x^(-1/2)])."""
        top = max(other._coeffs)
        lead = other._coeffs[top]
        rest = dict(self._coeffs)
        low = min(rest, default=0) - min(other._coeffs)  # no quotient term is lower
        out = {}
        while rest:  # take off the top term of what is left
            k = max(rest) - top
            q, r = divmod(rest[k + top], lead)
            if r or k < low:
                raise ArithmeticError("inexact division of Laurent polynomials")
            out[k] = q
            for k2, v2 in other._coeffs.items():
                v = rest.pop(k + k2, 0) - q * v2
                if v:
                    rest[k + k2] = v
        return LaurentPoly._raw(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def substitute_inverse(self) -> "LaurentPoly":
        """x -> x^-1."""
        return LaurentPoly._raw({-k: v for k, v in self._coeffs.items()})

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self, 'x')!r})"


# --------------------------------------------------------------------------
# text form: signed monomial list, ascending exponents


def format_poly(p: LaurentPoly, var: str = "t") -> str:
    if p.is_zero:
        return "0"
    pieces = []
    for key, c in p.halves():
        mag = abs(c)
        if key == 0:
            body = str(mag)
        else:
            if key == 2:
                power = var
            elif key % 2 == 0:
                power = f"{var}^{key // 2}"
            else:
                power = f"{var}^({key}/2)"
            body = power if mag == 1 else f"{mag}{power}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


# the exponent token of every text grammar: an integer or n/2, bare or in
# one matched pair of brackets
_N = r"-?\d+(?:\s*/\s*2)?"
EXPONENT = rf"(?:{_N}|\(\s*{_N}\s*\)|\{{\s*{_N}\s*\}}|\[\s*{_N}\s*\])"


def exponent_halves(token: str) -> int:
    """The value of an :data:`EXPONENT` match, in half-steps."""
    num, _, half = token.strip("()[]{}").partition("/")
    return int(num) if half else 2 * int(num)


# compiled on first use, through re's cache: most runs read no polynomial text
_TERM = rf"""\s*(?P<sign>[+-])?\s*(?P<coeff>\d+)?\s*\*?\s*
    (?:(?P<var>[A-Za-z]+)(?:\s*\^\s*(?P<exp>{EXPONENT}))?)?\s*"""


def parse_poly(text: str, var: str = "t") -> LaurentPoly:
    """Inverse of :func:`format_poly`; also accepts unnormalized input
    (repeated exponents accumulate, '*' and exponent brackets are optional)."""
    s = text.strip()
    if s == "0":
        return LaurentPoly.zero()
    if not s:
        raise MalformedPolynomial("empty polynomial text")
    term = re.compile(_TERM, re.X).match
    out: dict[int, int] = {}
    pos = 0
    while pos < len(s):
        m = term(s, pos)
        sign, coeff, name, exp = m.group("sign", "coeff", "var", "exp")
        if coeff is None and name is None:
            raise MalformedPolynomial(f"cannot parse {s[pos:]!r}")
        if pos and sign is None:
            raise MalformedPolynomial(f"missing sign before {s[pos:]!r}")
        if name not in (None, var):
            raise MalformedPolynomial(f"expected variable {var!r}, got {name!r}")
        key = 0 if name is None else 2 if exp is None else exponent_halves(exp)
        value = int(coeff) if coeff is not None else 1
        out[key] = out.get(key, 0) + (-value if sign == "-" else value)
        pos = m.end()
    return LaurentPoly._raw(out)


# --------------------------------------------------------------------------
# Kauffman bracket and the Jones polynomial


def kauffman_bracket(d: Diagram) -> LaurentPoly:
    """Kauffman bracket in the variable A, by tangle contraction.

    Normalized so a single crossing-free circle has bracket 1.  Crossings
    join a tangle as :attr:`Diagram.contraction_crossings` lists them, in
    the order the diagram computes once and shares with the Khovanov tangle
    builder, with the arcs renumbered.  The tangle's smoothings are summed
    per planar matching of its open ends (:func:`_add_crossing`).  The
    bracket weighs a state by delta^(circles - 1), and every state closes
    at least one circle, so one delta is divided out at the end (exactly,
    by ``//``) or one fewer taken for the free circles.  The cost is c
    times the live matchings.  On the n-strand braid closures the tests
    check, up to 40 crossings, the order keeps at most 2n ends open, so at
    most Catalan(n) matchings.  The steps the diagram shares with the last
    one contracted come from the engine's chain
    (:func:`poslink.contraction.contract`).
    """
    crossings = d.contraction_crossings
    if not crossings:
        return _delta_power(d.free_circles - 1) if d.free_circles else LaurentPoly.one()
    (poly,) = contract(crossings, _add_crossing, lambda empty: {empty: {0: 1}}).values()
    if d.free_circles:
        return LaurentPoly._raw(poly) * _delta_power(d.free_circles - 1)
    return LaurentPoly._raw(poly) // _delta_power(1)


def _add_crossing(
    states: dict[int, dict[int, int]], local: tuple[int, ...], matchings: _Interned
) -> dict[int, dict[int, int]]:
    """The polynomials per matching with one more crossing: each matching
    splits into its A- and B-smoothing (:func:`_smoothings`), weighted A
    and A^-1, and each loop that closes multiplies by delta = -A^2 - A^-2."""
    joined: dict[int, dict[int, int]] = {}
    for m, poly in states.items():
        for (m2, loops), shift in zip(_smoothings(matchings, m, local), (2, -2)):
            acc = joined.setdefault(m2, {})
            for f, g in _DELTAS[len(loops)].items():
                f += shift
                for e, c in poly.items():
                    acc[e + f] = acc.get(e + f, 0) + c * g
    return joined


def _delta_power(n: int) -> LaurentPoly:
    delta = LaurentPoly({2: -1, -2: -1})
    return delta**n


# delta^0, delta^1 and delta^2 on half-step keys: the weights of the 0, 1
# or 2 loops one crossing closes
_DELTAS = tuple(_delta_power(m)._coeffs for m in range(3))


def jones_V(d: Diagram) -> LaurentPoly:
    """Jones polynomial V in t, normalized so the unknot maps to 1.

    Computed as (-A)^(-3w) <D> followed by A^-4 -> t.  Exponents are
    integers exactly when the component count is odd, half-odd-integers
    otherwise.
    """
    bracket = kauffman_bracket(d)
    w = crossing_signs(d).writhe
    out: dict[int, int] = {}
    sign = -1 if w % 2 else 1
    for key, coeff in bracket._coeffs.items():
        shifted = key - 6 * w  # A-exponent in half-steps after (-A)^(-3w)
        if shifted % 4:
            raise AssertionError("bracket exponent not divisible by 4 after writhe shift")
        out[-shifted // 4] = sign * coeff
    return LaurentPoly._raw(out)


def v_to_unnormalized(v: LaurentPoly) -> LaurentPoly:
    """(q + q^-1) * V with t^(1/2) -> -q; output has integer exponents."""
    parities = v.exponent_parities()
    if len(parities) > 1:
        raise MixedParity("Jones exponents mix integers and half-odd-integers")
    substituted: dict[int, int] = {}
    for key, coeff in v._coeffs.items():
        # t^(k/2) = (t^(1/2))^k -> (-q)^k
        substituted[2 * key] = coeff if key % 2 == 0 else -coeff
    hook = LaurentPoly._raw({2: 1, -2: 1})  # q + q^-1
    return LaurentPoly._raw(substituted) * hook


def unnormalized_to_v(j: LaurentPoly) -> LaurentPoly:
    """Divide by (q + q^-1), then q -> -t^(1/2).

    Raises NotDivisible when the quotient is inexact, which signals
    inconsistent homology input rather than a computation error here.
    """
    if j.is_zero:
        return LaurentPoly.zero()
    if j.exponent_parities() != {0}:
        raise MixedParity("unnormalized Jones polynomials have integer exponents")
    try:
        quotient = j // LaurentPoly._raw({2: 1, -2: 1})  # by q + q^-1
    except ArithmeticError:
        raise NotDivisible("polynomial is not divisible by (x + x^-1)") from None
    out: dict[int, int] = {}
    for key, coeff in quotient._coeffs.items():
        exp = key // 2  # integer exponent of q
        out[key // 2] = coeff if exp % 2 == 0 else -coeff
    return LaurentPoly._raw(out)


# --------------------------------------------------------------------------
# summaries and degree bounds


class JonesSummary(Value):
    """Degree data of a Jones polynomial; p1 is |second coefficient|."""

    __slots__ = ("min_deg", "max_deg", "second_coeff", "p1")

    def __init__(self, min_deg: Fraction, max_deg: Fraction, second_coeff: int, p1: int):
        if min_deg > max_deg:
            raise ValueError("min_deg must not exceed max_deg")
        if p1 != abs(second_coeff):
            raise ValueError("p1 must equal |second_coeff|")
        self.min_deg = min_deg
        self.max_deg = max_deg
        self.second_coeff = second_coeff
        self.p1 = p1


def jones_summary(v: LaurentPoly) -> JonesSummary:
    """Extract degrees and the coefficient one step above the minimum.

    The second coefficient is 0 when the t^(min+1) term is absent.
    """
    if v.is_zero:
        raise ZeroPolynomial("cannot summarize the zero polynomial")
    lo, hi = v.min_deg(), v.max_deg()
    second = v.coeff(lo + 1)
    return JonesSummary(lo, hi, second, abs(second))


def lickorish_bounds(d: Diagram) -> tuple[Fraction, Fraction]:
    """Degree window of V for a positive diagram.

    Returns ((c - |s_A| + 1)/2, (2c + |s_B| - 1)/2); the first equals
    min deg V exactly, the second only bounds max deg V from above.
    """
    if not is_positive(d):
        raise NotPositiveDiagram("degree bounds require an all-positive diagram")
    c = d.crossing_count
    return (
        Fraction(c - a_state_circles(d) + 1, 2),
        Fraction(2 * c + b_state_circles(d) - 1, 2),
    )
