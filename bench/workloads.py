"""The three benchmark workloads: the poslink command lines each one runs,
and the checks every output record must pass.

Inputs depend on the seed only through the mixed-sign braid of
``kh_table``; the other entries are fixed so that their records, and the
five survey records that fail because of a known fault, are the same in
every run.  Every check compares against ``oracle``, which does not import
poslink.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass, field
from typing import Callable

import oracle as O

WORKLOADS = ("kh_table", "poly_table", "survey_3x8")
DEFAULT_SEED = 1

# 7_4 as in the published tables: PD code, Jones polynomial and the
# integral Khovanov chart (free ranks and Z/2 multiplicities).
SEVEN_4_PD = (
    "PD[X[5,14,6,1],X[13,6,14,7],X[7,12,8,13],X[1,8,2,9],"
    "X[9,4,10,5],X[3,10,4,11],X[11,2,12,3]]"
)
SEVEN_4_JONES = {2: 1, 4: -2, 6: 3, 8: -2, 10: 3, 12: -2, 14: 1, 16: -1}
SEVEN_4_KH = {
    (0, 1): (1, 0), (0, 3): (1, 0), (1, 3): (2, 0), (2, 5): (1, 2),
    (2, 7): (2, 0), (3, 7): (1, 1), (3, 9): (1, 0), (4, 9): (2, 1),
    (4, 11): (1, 0), (5, 11): (0, 2), (5, 13): (2, 0), (6, 13): (1, 0),
    (7, 15): (0, 1), (7, 17): (1, 0),
}

# Index word of the mixed-sign 4-braid.  Only the signs (five of each) and a
# cyclic rotation come from the seed: the rotation gives a conjugate braid
# and the signs only swap A- and B-smoothings, so every seed has the same
# 2^10 states with the same circle counts and the same 9,948 generators.
MIXED_STRANDS = 4
MIXED_INDICES = (3, 2, 3, 1, 2, 3, 1, 2, 1, 1)

Record = dict
Check = Callable[[Record], list[str]]


def braid_text(strands: int, letters) -> str:
    return f"strands={strands}; " + " ".join(str(k) for k in letters)


def torus_letters(p: int, q: int) -> list[int]:
    return [k for _ in range(q) for k in range(1, p)]


def mixed_braid(seed: int) -> list[int]:
    rng = random.Random(seed)
    signs = [1] * 5 + [-1] * 5
    rng.shuffle(signs)
    turn = rng.randrange(len(MIXED_INDICES))
    indices = MIXED_INDICES[turn:] + MIXED_INDICES[:turn]
    return [k * s for k, s in zip(indices, signs)]


@dataclass
class Workload:
    name: str
    seed: int
    commands: list[list[str]]  # poslink argv, without output options
    make_checks: Callable[[], dict[str, Check]]  # record name -> check
    survey: bool = False
    notes: list[str] = field(default_factory=list)

    @functools.cached_property
    def checks(self) -> dict[str, Check]:
        """Built on first use: the worker processes only need commands."""
        return self.make_checks()

    def check(self, record: Record) -> list[str]:
        if self.survey:
            return check_survey_record(record)
        check = self.checks.get(record.get("name"))
        if check is None:
            return [f"unexpected record {record.get('name')!r}"]
        return check(record)


# --------------------------------------------------------------------------
# reading one record


def _invariant(record: Record, key: str, parser) -> tuple[object, list[str]]:
    text = (record.get("invariants") or {}).get(key)
    if text is None:
        return None, [f"{key}: missing from the record"]
    try:
        return parser(text), []
    except ValueError as exc:
        return None, [f"{key}: unparseable output: {exc}"]


def _jones(record):
    return _invariant(record, "jones", lambda s: O.parse_poly(s, "t"))


def _conway(record):
    return _invariant(record, "conway", lambda s: O.parse_poly(s, "z"))


def _kh(record):
    return _invariant(record, "kh", O.parse_kh)


def _check_gradings(record: Record, kh: O.KhTable) -> list[str]:
    g = record.get("gradings") or {}
    js = [j for (_, j) in kh]
    if not js:
        return ["gradings: homology is empty"]
    want = (min(js), max(js))
    got = (g.get("j_lower"), g.get("j_upper"))
    if got != want:
        return [f"gradings: reported (j_lower, j_upper) = {got}, homology spans {want}"]
    return []


def _check_euler(kh: O.KhTable, v: O.Poly) -> list[str]:
    chi, want = O.euler_characteristic(kh), O.unnormalized(v)
    if chi != want:
        return [f"euler: chi(Kh) = {sorted(chi.items())} but (q+1/q)V = {sorted(want.items())}"]
    return []


# --------------------------------------------------------------------------
# kh_table


def _kh_check(v: O.Poly, *, chart: O.KhTable | None = None,
              positive_knot: tuple[int, int] | None = None) -> Check:
    """Homology check: chi(Kh) = (q+1/q)V for the independent V; the whole
    table against a published chart; Kh^0 for a positive braid knot given
    as (strands, crossings)."""

    def check(record: Record) -> list[str]:
        kh, problems = _kh(record)
        if kh is None:
            return problems
        problems += _check_gradings(record, kh)
        problems += _check_euler(kh, v)
        if chart is not None and kh != chart:
            diff = sorted(set(kh.items()) ^ set(chart.items()))
            problems.append(f"chart: differs from the published table at {diff}")
        if positive_knot is not None:
            bad = O.kh0_of_positive_braid_knot(kh, *positive_knot)
            if bad:
                problems.append(f"kh0: {bad}")
        return problems

    return check


def _kh_table(seed: int) -> Workload:
    mixed = mixed_braid(seed)
    ladder = [(3, torus_letters(3, 4)), (3, torus_letters(3, 5)),
              (MIXED_STRANDS, mixed), (3, [1, 2] * 5 + [1])]

    def make_checks() -> dict[str, Check]:
        checks = {SEVEN_4_PD: _kh_check(SEVEN_4_JONES, chart=SEVEN_4_KH)}
        for (strands, letters), (p, q) in zip(ladder[:2], ((3, 4), (3, 5))):
            checks[braid_text(strands, letters)] = _kh_check(
                O.torus_jones(p, q), positive_knot=(strands, len(letters))
            )
        for strands, letters in ladder[2:]:
            checks[braid_text(strands, letters)] = _kh_check(O.braid_jones(strands, letters))
        return checks

    argv = ["compute", "--kh", "--pd", SEVEN_4_PD]
    for strands, letters in ladder:
        argv += ["--braid", braid_text(strands, letters)]
    return Workload("kh_table", seed, [argv], make_checks,
                    notes=[f"mixed-sign braid: {braid_text(MIXED_STRANDS, mixed)}"])


# --------------------------------------------------------------------------
# poly_table


def _jones_check(*, exact: O.Poly | None = None, span: int | None = None,
                 determinant: int | None = None) -> Check:
    """Jones check: equality with a closed form, or the span and |V(-1)| of
    a reduced alternating diagram; J(q) must match (q+1/q)V throughout."""

    def check(record: Record) -> list[str]:
        v, problems = _jones(record)
        if v is None:
            return problems
        if exact is not None and v != exact:
            problems.append(f"torus-jones: {sorted(v.items())} != closed form {sorted(exact.items())}")
        if span is not None and O.span_halves(v) != 2 * span:
            problems.append(f"span: span V = {O.span_halves(v) / 2}, expected {span}")
        if determinant is not None and O.abs2(O.jones_at_i(v)) != determinant**2:
            problems.append(f"lucas: |V(-1)|^2 = {O.abs2(O.jones_at_i(v))}, expected {determinant}^2")
        j, more = _invariant(record, "unnormalized_jones", lambda s: O.parse_poly(s, "q"))
        problems += more
        if j is not None and j != O.unnormalized(v):
            problems.append("unnormalized: J(q) is not (q+1/q)V with t^(1/2) -> -q")
        return problems

    return check


def _conway_check(*, exact: O.Poly | None = None, determinant: int | None = None) -> Check:
    """Conway check: equality with the torus-knot closed form, or
    |nabla(2i)| = determinant and nabla(0) = 1 for a knot."""

    def check(record: Record) -> list[str]:
        nabla, problems = _conway(record)
        if nabla is None:
            return problems
        if exact is not None and nabla != exact:
            problems.append(f"torus-conway: {sorted(nabla.items())} != {sorted(exact.items())}")
        if determinant is not None:
            if O.abs2(O.conway_at_2i(nabla)) != determinant**2:
                problems.append(
                    f"lucas: |nabla(2i)|^2 = {O.abs2(O.conway_at_2i(nabla))}, expected {determinant}^2"
                )
            if nabla.get(0) != 1:
                problems.append(f"lucas: nabla(0) = {nabla.get(0, 0)}, a knot has 1")
        return problems

    return check


def _poly_table(seed: int) -> Workload:
    t37, t38 = braid_text(3, torus_letters(3, 7)), braid_text(3, torus_letters(3, 8))
    alt8, alt10 = braid_text(3, [1, -2] * 8), braid_text(3, [1, -2] * 10)
    t310 = braid_text(3, torus_letters(3, 10))

    def make_checks() -> dict[str, Check]:
        return {
            t37: _jones_check(exact=O.torus_jones(3, 7)),
            t38: _jones_check(exact=O.torus_jones(3, 8)),
            # (1 -2)^k is reduced alternating: span V = c = 2k, det = L_2k - 2
            alt8: _jones_check(span=16, determinant=O.lucas(16) - 2),
            alt10: _conway_check(determinant=O.lucas(20) - 2),
            t310: _conway_check(exact=O.torus_conway(3, 10)),
        }

    commands = [
        ["compute", "--jones", "--braid", t37, "--braid", t38, "--braid", alt8],
        ["compute", "--conway", "--braid", alt10, "--braid", t310],
    ]
    return Workload("poly_table", seed, commands, make_checks)


# --------------------------------------------------------------------------
# survey_3x8

SURVEY_NAME = re.compile(r"closure\((strands=\d+; [\d ]*)\)")


def check_survey_record(record: Record) -> list[str]:
    """Survey check: the word is a positive braid; V matches an independent
    state sum; chi(Kh) = (q+1/q)V; |V(-1)| = |nabla(2i)|; Kh^0 of a knot;
    reported gradings; and both inequalities of the paper hold, as they
    must on a positive diagram."""
    m = SURVEY_NAME.fullmatch(record.get("name", ""))
    if not m:
        return [f"name: cannot read a braid word from {record.get('name')!r}"]
    head, _, body = m.group(1).partition(";")
    strands = int(head.split("=")[1])
    letters = [int(k) for k in body.split()]
    if not letters or any(k < 1 or k >= strands for k in letters) or len(letters) > 8:
        return [f"name: {m.group(1)!r} is not a positive word of at most 8 letters"]
    v, problems = _jones(record)
    nabla, more = _conway(record)
    problems += more
    kh, more = _kh(record)
    problems += more
    if v is None or nabla is None or kh is None:
        return problems
    n = O.braid_components(strands, letters)
    if v != O.braid_jones(strands, letters):
        problems.append("bracket: V differs from the state sum on the braid")
    problems += _check_euler(kh, v)
    if O.abs2(O.jones_at_i(v)) != O.abs2(O.conway_at_2i(nabla)):
        problems.append("determinant: |V(-1)| != |nabla(2i)|")
    if n == 1:
        bad = O.kh0_of_positive_braid_knot(kh, strands, len(letters))
        if bad:
            problems.append(f"kh0: {bad}")
    problems += _check_gradings(record, kh)
    problems += [f"inequality: {b}" for b in O.inequality_violations(v, nabla, kh, n)]
    for report in record.get("reports") or []:
        if report.get("verdict") == "Fail":
            problems.append(f"verdict: {report.get('test')} fails on a positive diagram")
    return problems


def _survey(seed: int) -> Workload:
    argv = ["survey", "--strands", "3", "--max-length", "8"]
    return Workload("survey_3x8", seed, [argv], dict, survey=True)


def build(name: str, seed: int) -> Workload:
    builders = {"kh_table": _kh_table, "poly_table": _poly_table, "survey_3x8": _survey}
    return builders[name](seed)
