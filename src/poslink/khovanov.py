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
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Mapping

from .diagram import Diagram, a_state_circles, b_state_circles, crossing_signs
from .errors import (
    EmptyHomology, HomologyTooLarge, MalformedKhPolynomial, MalformedPolynomial, Value,
)
from .snf import SparseRows, invariant_factors, snf_divisors
from .tangle import reduced_complex

if TYPE_CHECKING:
    from .laurent import LaurentPoly


class BigradedGroups:
    """Map (homological grading i, quantum grading j) -> abelian group,
    stored as (free rank, invariant factors): the torsion orders, each
    dividing the next (:func:`poslink.snf.invariant_factors`), so that
    equal entries mean isomorphic groups.  The constructor takes a mapping
    or an iterable of ((i, j), (rank, torsion orders)) pairs and sums the
    groups given at one (i, j): Z/2 and Z/5 there make Z/10.  Trivial
    groups are absent; all quantum gradings share one parity."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping | Iterable = ()):
        sums: dict[tuple[int, int], tuple[int, list[int]]] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (i, j), (rank, torsion) in items:
            rank, torsion = int(rank), [int(t) for t in torsion]
            if rank < 0 or any(t < 2 for t in torsion):
                raise ValueError(f"invalid group data at ({i}, {j})")
            key = (int(i), int(j))
            total, orders = sums.get(key, (0, []))
            sums[key] = (total + rank, orders + torsion)
        data = {k: (r, tuple(invariant_factors(t))) for k, (r, t) in sums.items() if r or t}
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
        return BigradedGroups(
            group
            for (i, j), (rank, torsion) in self._entries.items()
            for group in (((-i, -j), (rank, ())), ((1 - i, -j), (0, torsion)))
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


class GradingSummary(Value):
    """Extreme quantum gradings of the homology next to the diagram-level
    potential window that must contain them."""

    __slots__ = ("j_lower", "j_upper", "j_min_potential", "j_max_potential")

    def __init__(self, j_lower: int, j_upper: int, j_min_potential: int, j_max_potential: int):
        if not j_min_potential <= j_lower <= j_upper <= j_max_potential:
            raise ValueError(
                "potential gradings must sandwich the realized gradings: "
                f"{j_min_potential} <= {j_lower} <= {j_upper} <= {j_max_potential}"
            )
        self.j_lower = j_lower
        self.j_upper = j_upper
        self.j_min_potential = j_min_potential
        self.j_max_potential = j_max_potential


class ChainSlice:
    """The subcomplex at one quantum grading: generator counts per
    homological degree and the boundary maps between them.

    ``boundaries[i]`` is the map C^i -> C^(i+1) as sparse rows: a list of
    ``generator_counts[i + 1]`` dicts, one per generator of C^(i+1), each
    sending a generator index of C^i to its nonzero coefficient.  Absent
    columns are zero; a row with no entries is an empty dict.  A map with
    no nonzero entry is absent, so every map present holds one.
    """

    __slots__ = ("quantum_grading", "generator_counts", "boundaries")

    def __init__(
        self,
        quantum_grading: int,
        generator_counts: dict[int, int],
        boundaries: dict[int, SparseRows],
    ):
        self.quantum_grading = quantum_grading
        self.generator_counts = generator_counts
        self.boundaries = boundaries


def chain_slices(d: Diagram) -> dict[int, ChainSlice]:
    """The Khovanov complex of the diagram's crossings, free circles left
    out, after Bar-Natan's local reduction
    (:func:`poslink.tangle.reduced_complex`), as independent
    per-quantum-grading complexes.  HomologyTooLarge when a crossing
    splits the builder's complex past its object budget
    (:data:`poslink.tangle.MAX_TANGLE_OBJECTS`), whatever the crossing
    count."""
    signs = crossing_signs(d)
    qn = signs.negative_count
    shift = signs.positive_count - 2 * qn
    generators, differential = reduced_complex(d)
    counts: dict[tuple[int, int], int] = {}
    index: dict[int, int] = {}
    for o, (_, h, q) in generators.items():
        key = (h - qn, q + shift)
        index[o] = counts.get(key, 0)
        counts[key] = index[o] + 1
    slices: dict[int, ChainSlice] = {}
    for (i, j), n in sorted(counts.items()):
        slices.setdefault(j, ChainSlice(j, {}, {})).generator_counts[i] = n
    for o, row in differential.items():
        if not row:
            continue
        _, h, q = generators[o]
        i, j = h - qn, q + shift
        rows = slices[j].boundaries.get(i)
        if rows is None:
            rows = slices[j].boundaries[i] = [{} for _ in range(counts[(i + 1, j)])]
        for t, f in row.items():
            rows[index[t]][index[o]] = f[0]
    return slices


def khovanov_homology(d: Diagram) -> BigradedGroups:
    """Homology groups over Z per (i, j), via Smith normal form per slice
    of :func:`chain_slices`.  Each free circle then tensors the homology
    with Z at q^-1 and q (Khovanov 2000): every group at (i, j) goes to
    both (i, j - 1) and (i, j + 1), torsion too, as the factor is free.
    Each circle so doubles the torsion factors, each stored on its own:
    HomologyTooLarge, before any circle, when they would outnumber
    :data:`MAX_TORSION_FACTORS`, and from :func:`chain_slices` past the
    builder's object budget."""
    groups = []
    for j, sl in chain_slices(d).items():
        divisors = {i: snf_divisors(rows) for i, rows in sl.boundaries.items()}
        for i, n in sl.generator_counts.items():
            incoming = divisors.get(i - 1, [])
            free = n - len(divisors.get(i, ())) - len(incoming)
            groups.append(((i, j), (free, [t for t in incoming if t > 1])))
    kh = BigradedGroups(groups)
    factors = sum(len(torsion) for _, (_, torsion) in kh.items())
    if factors << d.free_circles > MAX_TORSION_FACTORS:
        raise HomologyTooLarge(
            f"{factors} x 2^{d.free_circles} torsion factors, from "
            f"{d.free_circles} free circles, exceed the limit of {MAX_TORSION_FACTORS}"
        )
    for _ in range(d.free_circles):
        kh = BigradedGroups(((i, k), g) for (i, j), g in kh.items() for k in (j - 1, j + 1))
    return kh


def euler_characteristic(kh: BigradedGroups) -> LaurentPoly:
    """Alternating sum of free ranks per quantum grading; torsion ignored.

    Equals the unnormalized Jones polynomial of the link.
    """
    from .laurent import LaurentPoly  # computing homology needs no polynomial

    out: dict[int, int] = {}  # half-step key 2j -> coefficient of q^j
    for (i, j), (rank, _) in kh.items():
        out[2 * j] = out.get(2 * j, 0) + (-rank if i & 1 else rank)
    return LaurentPoly._raw(out)


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
    and ``a t^i q^j T^k`` terms give (Z/k)^a, for any integer k >= 2;
    coefficients may be grouped as polynomials in t, e.g. ``(1 + t)q^3``.
    The groups at one (i, j) are summed (:class:`BigradedGroups`).  A text
    whose torsion multiplicities add up to more than
    :data:`MAX_TORSION_FACTORS` is malformed."""
    s = text.strip()
    if not s:
        raise MalformedKhPolynomial("empty homology polynomial")
    if s == "0":
        return BigradedGroups({})
    from .laurent import EXPONENT, parse_poly

    # (i, j, k) -> multiplicity of Z/k at (i, j), with k = 0 for Z
    counts: dict[tuple[int, int, int], int] = {}
    term = re.compile(_KH_TERM.format(exponent=EXPONENT), re.X).match
    pos = 0
    while pos < len(s):
        m = term(s, pos)
        if not m:
            raise MalformedKhPolynomial(f"cannot parse {s[pos:]!r}")
        if pos and m["sign"] is None:
            raise MalformedKhPolynomial(f"missing sign before {s[pos:]!r}")
        group, mono, j, texp = m.group("group", "mono", "j", "texp")
        try:
            tpoly = parse_poly(group if group is not None else (mono.strip() or "1"), "t")
        except MalformedPolynomial as exc:
            raise MalformedKhPolynomial(f"in {m[0].strip()!r}: {exc}") from None
        order = _grading(texp) if texp else 0  # texp is matched only after a T
        if m["tors"] and order < 2:
            raise MalformedKhPolynomial(f"torsion markers are T^k, k >= 2: {m[0].strip()!r}")
        sign = -1 if m["sign"] == "-" else 1
        qj = 1 if j is None else _grading(j)
        for half, coeff in tpoly.halves():
            if half & 1:
                raise MalformedKhPolynomial(f"homological grading {half}/2 is not an integer")
            key = (half // 2, qj, order)
            counts[key] = counts.get(key, 0) + sign * coeff
        pos = m.end()
    for (i, qj, order), mult in counts.items():
        if mult < 0:
            group = f"Z/{order}" if order else "Z"
            raise MalformedKhPolynomial(f"negative multiplicity of {group} at {(i, qj)}")
    if sum(mult for (_, _, order), mult in counts.items() if order) > MAX_TORSION_FACTORS:
        raise MalformedKhPolynomial(f"more than {MAX_TORSION_FACTORS} torsion factors")
    try:
        return BigradedGroups(
            ((i, qj), (0, (order,) * mult) if order else (mult, ()))
            for (i, qj, order), mult in counts.items()
        )
    except ValueError as exc:
        raise MalformedKhPolynomial(str(exc)) from None


# the most torsion factors a homology text may list: each is stored, so a
# multiplicity like 10^19 is refused before anything is allocated
MAX_TORSION_FACTORS = 10**6

# one signed term: a t-part (a t-monomial, or a t-polynomial in one pair of
# parentheses), then a power of q, then an optional torsion marker T^k; the
# t-monomial takes a '*' only when the rest needs it, so '*q' is q.  Each
# token takes the spaces after it, so a run of spaces splits only one way.
# {exponent} is :data:`poslink.laurent.EXPONENT`, filled in and compiled on
# first use, through re's cache: computed homology reads no text.
_KH_TERM = r"""(?:(?P<sign>[+-])\s*)?
    (?:\((?P<group>(?:[^()]|\([^()]*\))*)\)\s*
      |(?P<mono>(?:\d+\s*)?(?:\*\s*)??(?:t\s*(?:\^\s*{exponent}\s*)?)?))
    (?:\*\s*)?q\s*(?:\^\s*(?P<j>{exponent})\s*)?
    (?:(?P<tors>T)\s*(?:\^\s*(?P<texp>{exponent})\s*)?)?"""


def _grading(token: str) -> int:
    from .laurent import exponent_halves

    if "/" in token:
        raise MalformedKhPolynomial(f"grading {token!r} is not an integer")
    return exponent_halves(token) // 2


def format_kh_polynomial(kh: BigradedGroups) -> str:
    """Canonical text: free part grouped by quantum grading, then one
    ``m t^i q^j T^k`` term for the m invariant factors Z/k at (i, j), in
    ascending (j, i, k) order.  :func:`parse_kh_polynomial` reads it back
    to an equal BigradedGroups, whatever the torsion."""
    # items() ascend in (j, i), and invariant factors ascend in k
    free: dict[int, list[str]] = {}
    pieces = []
    for (i, j), (rank, torsion) in kh.items():
        if rank:
            free.setdefault(j, []).append(_t_monomial(rank, i))
        pieces += [f"{_q_term(_t_monomial(m, i), j)} T^{k}" for k, m in Counter(torsion).items()]
    grouped = [_q_term(t[0] if len(t) == 1 else f"({' + '.join(t)})", j) for j, t in free.items()]
    return " + ".join(grouped + pieces) or "0"


def _q_term(t_part: str, j: int) -> str:
    q = "q" if j == 1 else f"q^{j}"
    if t_part == "1":
        return q
    return t_part + q if t_part.startswith("(") else f"{t_part} {q}"


def _t_monomial(coeff: int, i: int) -> str:
    if i == 0:
        return str(coeff)
    power = "t" if i == 1 else f"t^{i}"
    return power if coeff == 1 else f"{coeff}{power}"
