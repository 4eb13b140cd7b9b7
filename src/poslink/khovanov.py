"""Integral Khovanov homology by Bar-Natan's local algorithm.

:func:`chain_slices` takes the complex that :mod:`poslink.tangle` builds
and reduces crossing by crossing, with the homology of the cube of
resolutions over Z and far fewer generators.  Gradings are fixed so the
crossing-free unknot has homology Z at (0, -1) and (0, 1), which makes the
graded Euler characteristic equal the unnormalized Jones polynomial:

    i = (#B-smoothings) - q(D)
    j = (#1-labels - #x-labels) + #B-smoothings + p(D) - 2 q(D)

The differential preserves j, so each quantum grading is an independent
chain complex of free abelian groups; homology is read off the Smith
normal form of its boundary maps, torsion included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

from .diagram import Diagram, a_state_circles, b_state_circles, crossing_signs
from .errors import (
    DEFAULT_CROSSING_CAP,
    CrossingCapExceeded,
    EmptyHomology,
    MalformedKhPolynomial,
    UnsupportedTorsionExponent,
)
from .laurent import LaurentPoly, parse_poly
from .snf import SparseRows, snf_divisors
from .tangle import reduced_complex


class BigradedGroups:
    """Map (homological grading i, quantum grading j) -> abelian group,
    stored as (free rank, sorted torsion orders).  Trivial groups are
    absent; all quantum gradings share one parity."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[tuple[int, int], tuple[int, Iterator[int]]] = ()):
        data: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (i, j), (rank, torsion) in items:
            torsion = tuple(sorted(int(t) for t in torsion))
            rank = int(rank)
            if rank < 0 or any(t < 2 for t in torsion):
                raise ValueError(f"invalid group data at ({i}, {j})")
            if rank or torsion:
                data[(int(i), int(j))] = (rank, torsion)
        parities = {j & 1 for _, j in data}
        if len(parities) > 1:
            raise ValueError("quantum gradings mix parities")
        self._entries = data

    def items(self) -> list[tuple[tuple[int, int], tuple[int, tuple[int, ...]]]]:
        return sorted(self._entries.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def rank(self, i: int, j: int) -> int:
        return self._entries.get((i, j), (0, ()))[0]

    def torsion(self, i: int, j: int) -> tuple[int, ...]:
        return self._entries.get((i, j), (0, ()))[1]

    def total_rank_at(self, i: int) -> int:
        return sum(rank for (ii, _), (rank, _) in self._entries.items() if ii == i)

    def j_range(self) -> tuple[int, int]:
        if not self._entries:
            raise EmptyHomology("no nonzero homology groups")
        js = [j for _, j in self._entries]
        return min(js), max(js)

    def mirror(self) -> "BigradedGroups":
        """Groups of the mirror diagram: free parts reflect through the
        origin, torsion shifts one homological degree (universal
        coefficients)."""
        free: dict[tuple[int, int], int] = {}
        tors: dict[tuple[int, int], list[int]] = {}
        for (i, j), (rank, torsion) in self._entries.items():
            if rank:
                free[(-i, -j)] = rank
            for t in torsion:
                tors.setdefault((1 - i, -j), []).append(t)
        keys = set(free) | set(tors)
        return BigradedGroups(
            {k: (free.get(k, 0), tuple(tors.get(k, ()))) for k in keys}
        )

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BigradedGroups):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        return f"BigradedGroups({format_kh_polynomial(self)!r})"


@dataclass(frozen=True)
class GradingSummary:
    """Extreme quantum gradings of the homology next to the diagram-level
    potential window that must contain them."""

    j_lower: int
    j_upper: int
    j_min_potential: int
    j_max_potential: int

    def __post_init__(self) -> None:
        if not (
            self.j_min_potential <= self.j_lower <= self.j_upper <= self.j_max_potential
        ):
            raise ValueError(
                "potential gradings must sandwich the realized gradings: "
                f"{self.j_min_potential} <= {self.j_lower} <= "
                f"{self.j_upper} <= {self.j_max_potential}"
            )


@dataclass
class ChainSlice:
    """The subcomplex at one quantum grading: generator counts per
    homological degree and the boundary maps between them.

    ``boundaries[i]`` is the map C^i -> C^(i+1) as sparse rows: a list of
    ``generator_counts[i + 1]`` dicts, one per generator of C^(i+1), each
    sending a generator index of C^i to its nonzero coefficient.  Absent
    columns are zero; a row with no entries is an empty dict.  A map with
    no nonzero entry is absent, so every map present holds one.
    """

    quantum_grading: int
    generator_counts: dict[int, int]
    boundaries: dict[int, SparseRows]


def chain_slices(d: Diagram, *, cap: int = DEFAULT_CROSSING_CAP) -> dict[int, ChainSlice]:
    """The Khovanov complex after Bar-Natan's local reduction
    (:func:`poslink.tangle.reduced_complex`), as independent
    per-quantum-grading complexes."""
    if d.crossing_count > cap:
        raise CrossingCapExceeded(
            f"{d.crossing_count} crossings exceed the homology cap of {cap}; "
            "raise the cap explicitly to go above it"
        )
    signs = crossing_signs(d)
    qn = signs.negative_count
    shift = signs.positive_count - 2 * qn
    generators, differential = reduced_complex(d)
    counts: dict[tuple[int, int], int] = {}
    index: dict[int, int] = {}
    for o, (h, q) in generators.items():
        key = (h - qn, q + shift)
        index[o] = counts.get(key, 0)
        counts[key] = index[o] + 1
    slices: dict[int, ChainSlice] = {}
    for (i, j), n in sorted(counts.items()):
        slices.setdefault(j, ChainSlice(j, {}, {})).generator_counts[i] = n
    for o, row in differential.items():
        if not row:
            continue
        h, q = generators[o]
        i, j = h - qn, q + shift
        rows = slices[j].boundaries.get(i)
        if rows is None:
            rows = slices[j].boundaries[i] = [{} for _ in range(counts[(i + 1, j)])]
        for t, coeff in row.items():
            rows[index[t]][index[o]] = coeff
    return slices


def khovanov_homology(d: Diagram, *, cap: int = DEFAULT_CROSSING_CAP) -> BigradedGroups:
    """Homology groups over Z per (i, j), via Smith normal form per slice."""
    slices = chain_slices(d, cap=cap)
    entries: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for j, sl in slices.items():
        divisors = {i: snf_divisors(rows) for i, rows in sl.boundaries.items()}
        for i, n in sl.generator_counts.items():
            rank_out = len(divisors.get(i, ()))
            incoming = divisors.get(i - 1, [])
            free = n - rank_out - len(incoming)
            torsion = tuple(t for t in incoming if t > 1)
            if free or torsion:
                entries[(i, j)] = (free, torsion)
    return BigradedGroups(entries)


def euler_characteristic(kh: BigradedGroups) -> LaurentPoly:
    """Alternating sum of free ranks per quantum grading; torsion ignored.

    Equals the unnormalized Jones polynomial of the link.
    """
    out = LaurentPoly.zero()
    for (i, j), (rank, _) in kh.items():
        if rank:
            out = out + LaurentPoly.term(-rank if i & 1 else rank, j)
    return out


def kh1_rank(kh: BigradedGroups) -> int:
    """Total free rank in homological grading 1."""
    return kh.total_rank_at(1)


def extreme_gradings(kh: BigradedGroups, d: Diagram) -> GradingSummary:
    """Realized extreme quantum gradings plus the diagram's potential window
    c - 3q - |s_A| .. -c + 3p + |s_B|."""
    if not kh:
        raise EmptyHomology("no nonzero homology groups; nonempty links always have some")
    j_lower, j_upper = kh.j_range()
    signs = crossing_signs(d)
    c = d.crossing_count
    return GradingSummary(
        j_lower=j_lower,
        j_upper=j_upper,
        j_min_potential=c - 3 * signs.negative_count - a_state_circles(d),
        j_max_potential=-c + 3 * signs.positive_count + b_state_circles(d),
    )


# --------------------------------------------------------------------------
# the t/q/T text form


def parse_kh_polynomial(text: str) -> BigradedGroups:
    """Parse a homology polynomial: ``a t^i q^j`` terms give Z^a at (i, j)
    and ``a t^i q^j T^2`` terms give (Z/2)^a; coefficients may be grouped
    as polynomials in t, e.g. ``(1 + t)q^3``."""
    s = text.strip()
    if not s:
        raise MalformedKhPolynomial("empty homology polynomial")
    if s == "0":
        return BigradedGroups({})
    free: dict[tuple[int, int], int] = {}
    torsion: dict[tuple[int, int], int] = {}
    for sign, body in _split_signed_terms(s):
        tpoly, j, torsion_part = _parse_kh_term(body)
        for exp, coeff in tpoly.terms():
            if exp.denominator != 1:
                raise MalformedKhPolynomial(f"homological grading {exp} is not an integer")
            kind = torsion if torsion_part else free
            key = (int(exp), j)
            kind[key] = kind.get(key, 0) + sign * coeff
    for name, table in (("rank", free), ("torsion multiplicity", torsion)):
        for key, mult in table.items():
            if mult < 0:
                raise MalformedKhPolynomial(f"negative {name} at {key}")
    try:
        return BigradedGroups(
            {
                key: (free.get(key, 0), (2,) * torsion.get(key, 0))
                for key in set(free) | set(torsion)
            }
        )
    except ValueError as exc:
        raise MalformedKhPolynomial(str(exc)) from None


_KH_TERM_RE = re.compile(
    r"""^(?P<coeff>\((?:[^()]|\([^()]*\))*\)|[^q]*?)\s*\*?\s*
        q(?:\s*\^\s*(?P<j>[({\[]?\s*-?\d+\s*[)}\]]?))?
        \s*(?P<tors>T(?:\s*\^\s*(?P<texp>[({\[]?\s*-?\d+\s*[)}\]]?))?)?\s*$""",
    re.X,
)


def _parse_kh_term(body: str) -> tuple[LaurentPoly, int, bool]:
    m = _KH_TERM_RE.match(body.strip())
    if not m:
        raise MalformedKhPolynomial(f"cannot parse term {body!r}")
    coeff, j_token, tors, texp = m.group("coeff", "j", "tors", "texp")
    coeff = (coeff or "").strip()
    if coeff.startswith("("):
        tpoly = parse_poly(coeff[1:-1], "t")
    elif coeff == "":
        tpoly = LaurentPoly.one()
    else:
        tpoly = parse_poly(coeff, "t")
    j = _int_token(j_token) if j_token is not None else 1
    if tors is not None:
        if texp is None or _int_token(texp) != 2:
            raise UnsupportedTorsionExponent(
                f"only T^2 torsion markers are supported: {body!r}"
            )
    return tpoly, j, tors is not None


def _int_token(token: str) -> int:
    return int(token.strip().strip("({[)}]").strip())


def _split_signed_terms(s: str) -> list[tuple[int, str]]:
    terms: list[tuple[int, str]] = []
    depth = 0
    sign = 1
    current: list[str] = []
    prev = ""
    for ch in s:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                raise MalformedKhPolynomial("unbalanced brackets")
        if ch in "+-" and depth == 0 and prev != "^":
            if current and "".join(current).strip():
                terms.append((sign, "".join(current).strip()))
                current = []
            sign = 1 if ch == "+" else -1
            prev = ch
            continue
        current.append(ch)
        if not ch.isspace():
            prev = ch
    if depth != 0:
        raise MalformedKhPolynomial("unbalanced brackets")
    tail = "".join(current).strip()
    if not tail:
        raise MalformedKhPolynomial("dangling sign")
    terms.append((sign, tail))
    return terms


def format_kh_polynomial(kh: BigradedGroups) -> str:
    """Canonical text: free part grouped by quantum grading, then torsion
    terms, both in ascending (j, i) order.  Bit-exact round trip with
    :func:`parse_kh_polynomial`."""
    by_j: dict[int, list[tuple[int, int]]] = {}
    torsion_terms: list[tuple[int, int, int]] = []
    for (i, j), (rank, torsion) in kh.items():
        if rank:
            by_j.setdefault(j, []).append((i, rank))
        if torsion:
            torsion_terms.append((j, i, len(torsion)))
    pieces = []
    for j in sorted(by_j):
        monomials = [_t_monomial(rank, i) for i, rank in sorted(by_j[j])]
        qpart = "q" if j == 1 else f"q^{j}"
        if len(monomials) == 1:
            mono = monomials[0]
            pieces.append(qpart if mono == "1" else f"{mono} {qpart}")
        else:
            pieces.append("(" + " + ".join(monomials) + ")" + qpart)
    for j, i, mult in sorted(torsion_terms):
        qpart = "q" if j == 1 else f"q^{j}"
        mono = _t_monomial(mult, i)
        head = qpart if mono == "1" else f"{mono} {qpart}"
        pieces.append(f"{head} T^2")
    return " + ".join(pieces) if pieces else "0"


def _t_monomial(coeff: int, i: int) -> str:
    if i == 0:
        return str(coeff)
    power = "t" if i == 1 else f"t^{i}"
    return power if coeff == 1 else f"{coeff}{power}"
