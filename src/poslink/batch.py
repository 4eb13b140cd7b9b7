"""Batch records: CSV ingestion, cross-validation against computed values,
obstruction runs, and the positive-braid survey.

The Khovanov stack (``khovanov``, ``tangle``, ``snf``) and ``obstruction``
are imported on the first call that needs them, not with this module: a
``compute --jones`` or ``--conway`` run never calls them, and compiling
them took about a quarter of its import time.  Their names stay bindings
of this module, looked up when called, because the benchmark's tracer
wraps ``poslink.batch.<name>`` by name to time each layer.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .conway import conway
from .diagram import (
    BraidWord,
    Diagram,
    braid_closure,
    components,
    is_positive,
    parse_braid,
    parse_pd,
)
from .errors import (
    DEFAULT_CROSSING_CAP,
    ColumnMissing,
    CrossingCapExceeded,
    FileUnreadable,
    PoslinkError,
)
from .laurent import (
    LaurentPoly,
    format_poly,
    jones_V,
    jones_summary,
    parse_poly,
    v_to_unnormalized,
)

if TYPE_CHECKING:
    from .khovanov import BigradedGroups
    from .obstruction import ObstructionReport, Strength


def _deferred(module: str, name: str) -> Callable:
    """A stand-in for ``poslink.<module>.<name>`` that imports the module
    on its first call; later calls find it in ``sys.modules``."""

    def call(*args, **kwargs):
        return getattr(import_module(f".{module}", __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


euler_characteristic = _deferred("khovanov", "euler_characteristic")
extreme_gradings = _deferred("khovanov", "extreme_gradings")
format_kh_polynomial = _deferred("khovanov", "format_kh_polynomial")
khovanov_homology = _deferred("khovanov", "khovanov_homology")
parse_kh_polynomial = _deferred("khovanov", "parse_kh_polynomial")
ObstructionInput = _deferred("obstruction", "ObstructionInput")
jones_test = _deferred("obstruction", "jones_test")
khovanov_test = _deferred("obstruction", "khovanov_test")
khovanov_test_from_kh1 = _deferred("obstruction", "khovanov_test_from_kh1")
strength_comparison = _deferred("obstruction", "strength_comparison")

SCHEMA_VERSION = "poslink.record/1"

COLUMN_ROLES = ("name", "pd", "braid", "jones", "conway", "kh", "components")
# the roles a record needs at least one of; ``components`` alone is not input
INPUT_ROLES = ("pd", "braid", "jones", "conway", "kh")


@dataclass
class LinkRecord:
    """One link worth of input: a diagram, ingested invariants, or both.

    A row that failed to parse carries its message in ``error`` instead,
    and its result reports that error.
    """

    name: str
    pd: Diagram | None = None
    braid: BraidWord | None = None
    jones: LaurentPoly | None = None
    conway: LaurentPoly | None = None
    kh: BigradedGroups | None = None
    components: int | None = None
    flags: list[str] = field(default_factory=list)
    error: str | None = None
    # the braid's closure, built on first use or handed over by the survey
    closure: Diagram | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.error is None and all(getattr(self, role) is None for role in INPUT_ROLES):
            raise ValueError(f"record {self.name!r} carries no diagram and no invariants")

    def diagram(self) -> Diagram | None:
        if self.pd is not None:
            return self.pd
        if self.braid is not None and self.closure is None:
            self.closure = braid_closure(self.braid)
        return self.closure


@dataclass
class RecordResult:
    """Outcome for one record; error is None unless something hard failed."""

    name: str
    source: str
    flags: list[str]
    error: str | None
    invariants: dict[str, str]
    gradings: dict[str, int | None] | None
    reports: list[ObstructionReport]
    comparison: Strength | None
    timing_ms: float

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "source": self.source,
            "flags": list(self.flags),
            "error": self.error,
            "invariants": dict(self.invariants),
            "gradings": dict(self.gradings) if self.gradings else None,
            "reports": [r.to_dict() for r in self.reports],
            "comparison": self.comparison.value if self.comparison else None,
            "timing_ms": round(self.timing_ms, 3),
        }


@dataclass
class BatchResult:
    results: list[RecordResult]

    @property
    def all_ok(self) -> bool:
        return all(r.error is None for r in self.results)

    def __iter__(self) -> Iterator[RecordResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


# --------------------------------------------------------------------------
# ingestion


def ingest_csv(path: str, column_map: dict[str, str]) -> list[LinkRecord]:
    """Read link records from a CSV file.

    column_map sends logical roles (name, pd, braid, jones, conway, kh,
    components) to header names.  Cell parse failures are flagged on the
    record, never fatal to the batch.  A row with filled cells but no
    diagram or invariant that parsed becomes a record carrying the parse
    messages as its error, and a row with no filled cell is dropped.
    """
    import csv  # only CSV input needs it

    for role in column_map:
        if role not in COLUMN_ROLES:
            raise ColumnMissing(f"unknown column role {role!r}; know {COLUMN_ROLES}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            for role, column in column_map.items():
                if column not in header:
                    raise ColumnMissing(f"column {column!r} (role {role!r}) not in header {header}")
            rows = list(reader)
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc

    parsers: dict[str, Callable[[str], object]] = {
        "pd": parse_pd,
        "braid": parse_braid,
        "jones": lambda s: parse_poly(s, "t"),
        "conway": lambda s: parse_poly(s, "z"),
        "kh": parse_kh_polynomial,
        "components": int,
    }
    records: list[LinkRecord] = []
    for rownum, row in enumerate(rows, start=2):
        name = None
        if "name" in column_map:
            name = (row.get(column_map["name"]) or "").strip()
        name = name or f"row{rownum}"
        fields: dict[str, object] = {}
        flags: list[str] = []
        for role, column in column_map.items():
            if role == "name":
                continue
            cell = (row.get(column) or "").strip()
            if not cell:
                continue
            try:
                fields[role] = parsers[role](cell)
            except (PoslinkError, ValueError) as exc:
                flags.append(f"{role}: cell parse error: {exc}")
        if any(role in fields for role in INPUT_ROLES):
            records.append(LinkRecord(name=name, flags=flags, **fields))
        elif fields or flags:
            # nothing usable parsed: keep the row as an error record so the
            # batch still reports one result per input row
            why = "; ".join(flags) or "no diagram and no invariants"
            records.append(LinkRecord(name=name, error="row unusable: " + why))
    return records


def records_from_lines(lines: Iterable[str]) -> list[LinkRecord]:
    """Diagram-per-line batch input: PD expressions or braid words."""
    records = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        name = f"line{lineno}"
        try:
            if text.startswith("PD["):
                records.append(LinkRecord(name=f"{name}: {text}", pd=parse_pd(text)))
            else:
                records.append(LinkRecord(name=f"{name}: {text}", braid=parse_braid(text)))
        except PoslinkError as exc:
            records.append(
                LinkRecord(name=f"{name}: {text}", error=f"input parse error: {exc}")
            )
    return records


# --------------------------------------------------------------------------
# per-record pipeline


def _conway_mirror(p: LaurentPoly) -> LaurentPoly:
    # mirror image sends z -> -z
    return LaurentPoly({exp: -c if exp.numerator % 2 else c for exp, c in p.terms()})


def _reconcile(name, computed, ingested, mirror_fn, mode, flags):
    """Prefer computed values; cross-check ingested ones, normalizing the
    mirror convention when allowed.  Returns (value, hard_error)."""
    if computed is None:
        return ingested, None
    if ingested is None:
        return computed, None
    candidates = [(ingested, False)]
    if mode == "always":
        candidates = [(mirror_fn(ingested), True)]
    elif mode == "auto":
        candidates.append((mirror_fn(ingested), True))
    for value, mirrored in candidates:
        if value == computed:
            if mirrored:
                flags.append(f"{name}: ingested value matched after mirror normalization")
            return computed, None
    return computed, f"{name}: computed and ingested values disagree"


_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _gaussian(terms: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Sum of w * i^k over (k, w) pairs, as an exact (real, imaginary) pair."""
    re = im = 0
    for k, w in terms:
        x, y = _I_POWERS[k % 4]
        re += x * w
        im += y * w
    return re, im


def _self_check(computed: dict[str, object]) -> str | None:
    """Compare invariants computed from one diagram by independent routes.

    At t^(1/2) = i the Jones skein relation becomes Conway's with
    z = -2i, so V(t^(1/2) = i) = nabla(-2i); and the graded Euler
    characteristic of Kh is (q + q^-1) V.
    """
    jones, nabla, kh = (computed.get(k) for k in ("jones", "conway", "kh"))
    if jones is not None and nabla is not None:
        v_at_i = _gaussian((int(2 * e), c) for e, c in jones.terms())
        nabla_at = _gaussian((int(e), c * (-2) ** int(e)) for e, c in nabla.terms())
        if v_at_i != nabla_at:
            return (
                f"self-check: V(t^(1/2) = i) = {v_at_i} but "
                f"nabla(-2i) = {nabla_at} (real, imaginary)"
            )
    if jones is not None and kh is not None:
        if euler_characteristic(kh) != v_to_unnormalized(jones):
            return "self-check: the Euler characteristic of Kh is not (q + q^-1) V"
    return None


def _component_count(
    jones: LaurentPoly | None, cell: int | None, d: Diagram | None
) -> tuple[int | None, str | None]:
    """The component count n, read from V(1) = (-2)^(n-1) when V is known,
    checked against the diagram and the ``components`` cell.  Returns
    (n or None, the disagreement or None)."""
    found: list[tuple[str, int]] = []
    if jones is not None:
        v = sum(c for _, c in jones.terms())
        n = abs(v).bit_length()
        if n == 0 or v != (-2) ** (n - 1):
            return None, f"components: V(1) = {v} is not a power of -2"
        found.append(("V(1)", n))
    if d is not None:
        found.append(("the diagram", components(d)))
    if cell is not None:
        found.append(("the components cell", cell))
    if len({n for _, n in found}) > 1:
        return None, "components: " + ", ".join(f"{src} gives {n}" for src, n in found)
    return (found[0][1] if found else None), None


def process_record(
    record: LinkRecord,
    *,
    want: frozenset[str] = frozenset({"jones", "conway", "kh"}),
    run_tests: bool = False,
    cap: int = DEFAULT_CROSSING_CAP,
    mirror: str = "auto",
) -> RecordResult:
    t0 = time.perf_counter()
    flags = list(record.flags)
    error = record.error
    invariants: dict[str, str] = {}
    gradings = None
    reports: list[ObstructionReport] = []
    comparison = None

    if record.pd is not None:
        source = "pd"
    elif record.braid is not None:
        source = "braid"
    else:
        source = "invariants"

    if error is not None:
        return RecordResult(
            name=record.name,
            source=source,
            flags=flags,
            error=error,
            invariants={},
            gradings=None,
            reports=[],
            comparison=None,
            timing_ms=(time.perf_counter() - t0) * 1000.0,
        )

    try:
        d = record.diagram()
        computed: dict[str, object] = {}
        if d is not None:
            need = set(want) | ({"jones", "conway", "kh"} if run_tests else set())
            if "jones" in need:
                computed["jones"] = jones_V(d)
            if "conway" in need:
                computed["conway"] = conway(d)
            if "kh" in need:
                try:
                    computed["kh"] = khovanov_homology(d, cap=cap)
                except CrossingCapExceeded as exc:
                    flags.append(f"kh: skipped: {exc}")

        jones, err1 = _reconcile(
            "jones", computed.get("jones"), record.jones,
            lambda p: p.substitute_inverse(), mirror, flags,
        )
        conway_poly, err2 = _reconcile(
            "conway", computed.get("conway"), record.conway,
            _conway_mirror, mirror, flags,
        )
        kh, err3 = _reconcile(
            "kh", computed.get("kh"), record.kh,
            lambda g: g.mirror(), mirror, flags,
        )
        inconsistent = _self_check(computed)
        n, err4 = _component_count(jones, record.components, d)
        error = inconsistent or err1 or err2 or err3 or err4

        if jones is not None:
            invariants["jones"] = format_poly(jones, "t")
            invariants["unnormalized_jones"] = format_poly(v_to_unnormalized(jones), "q")
        if conway_poly is not None:
            invariants["conway"] = format_poly(conway_poly, "z")
        if kh is not None:
            invariants["kh"] = format_kh_polynomial(kh)

        if kh is not None and inconsistent is None:
            if d is not None:
                summary = extreme_gradings(kh, d)
                gradings = {
                    "j_lower": summary.j_lower,
                    "j_upper": summary.j_upper,
                    "j_min_potential": summary.j_min_potential,
                    "j_max_potential": summary.j_max_potential,
                }
            else:
                j_lower, j_upper = kh.j_range()
                gradings = {
                    "j_lower": j_lower,
                    "j_upper": j_upper,
                    "j_min_potential": None,
                    "j_max_potential": None,
                }

        if run_tests and error is None:
            if jones is None:
                flags.append("tests: skipped, no Jones polynomial available")
            else:
                summary = jones_summary(jones)
                lead = conway_poly.lead_coeff() if conway_poly else None
                inp = ObstructionInput(
                    p1=summary.p1,
                    n=n,
                    lead_conway=lead,
                    jones_min=summary.min_deg,
                    jones_max=summary.max_deg,
                    j_lower=None if gradings is None else gradings["j_lower"],
                    j_upper=None if gradings is None else gradings["j_upper"],
                )
                jr = jones_test(inp)
                kr = khovanov_test(inp)
                reports = [jr, kr]
                if kh is not None:
                    reports.append(khovanov_test_from_kh1(kh, n, lead))
                if jr.applicable and kr.applicable:
                    comparison = strength_comparison(jr, kr)
                for r in reports:
                    if r.equality_attained:
                        flags.append(f"{r.test.value}: bound attained with equality")
    except Exception as exc:  # one bad record must not end the batch
        error = f"{type(exc).__name__}: {exc}"

    return RecordResult(
        name=record.name,
        source=source,
        flags=flags,
        error=error,
        invariants=invariants,
        gradings=gradings,
        reports=reports,
        comparison=comparison,
        timing_ms=(time.perf_counter() - t0) * 1000.0,
    )


def run_batch(
    records: Iterable[LinkRecord],
    fn: Callable[[LinkRecord], RecordResult],
    *,
    jobs: int = 1,
) -> BatchResult:
    """Apply fn to every record; output order always matches input order."""
    records = list(records)
    if jobs <= 1:
        results = [fn(r) for r in records]
    else:
        # loaded only here: it adds milliseconds to every serial start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(fn, records))
    return BatchResult(results)


def cmd_compute(
    records: Iterable[LinkRecord],
    *,
    want: frozenset[str] = frozenset({"jones", "conway", "kh"}),
    cap: int = DEFAULT_CROSSING_CAP,
    mirror: str = "auto",
    jobs: int = 1,
) -> BatchResult:
    return run_batch(
        records,
        lambda r: process_record(r, want=want, cap=cap, mirror=mirror),
        jobs=jobs,
    )


def cmd_test(
    records: Iterable[LinkRecord],
    *,
    cap: int = DEFAULT_CROSSING_CAP,
    mirror: str = "auto",
    jobs: int = 1,
) -> BatchResult:
    return run_batch(
        records,
        lambda r: process_record(r, run_tests=True, cap=cap, mirror=mirror),
        jobs=jobs,
    )


# --------------------------------------------------------------------------
# positive braid survey


def positive_braid_words(max_strands: int, max_length: int) -> Iterator[BraidWord]:
    """All positive words with 2..max_strands strands, 1..max_length letters."""
    for strands in range(2, max_strands + 1):
        for length in range(1, max_length + 1):
            for letters in itertools.product(range(1, strands), repeat=length):
                yield BraidWord(strands, letters)


def survey_corpus(max_strands: int, max_length: int) -> list[tuple[BraidWord, Diagram]]:
    """One positive braid word per conjugacy key, with its closure.

    The key of a word on n strands is n and the least word among the
    cyclic rotations of its letters and of their images under i -> n - i.
    Rotation conjugates by a letter and the flip by the Garside element, so
    every dropped word closes up to the same link as a kept one.  Words of
    one key share their length and come in lexicographic order, so the
    kept word is the least one.
    """
    seen: set[tuple[int, tuple[int, ...]]] = set()
    out = []
    for word in positive_braid_words(max_strands, max_length):
        n, letters = word.strand_count, word.letters
        flipped = tuple(n - k for k in letters)
        key = (n, min(w[i:] + w[:i] for w in (letters, flipped) for i in range(len(w))))
        if key in seen:
            continue
        seen.add(key)
        out.append((word, braid_closure(word)))
    return out


def cmd_survey(
    max_strands: int,
    max_length: int,
    *,
    cap: int = DEFAULT_CROSSING_CAP,
    jobs: int = 1,
) -> BatchResult:
    """Enumerate positive braid closures, dedupe, test, and assert that no
    positive diagram ever fails an applicable obstruction test."""
    records = []
    for word, diagram in survey_corpus(max_strands, max_length):
        letters = " ".join(str(k) for k in word.letters)
        name = f"closure(strands={word.strand_count}; {letters})"
        records.append(LinkRecord(name=name, braid=word, closure=diagram))
    result = run_batch(
        records,
        lambda r: process_record(r, run_tests=True, cap=cap),
        jobs=jobs,
    )
    for res, rec in zip(result.results, records):
        if res.error is not None:
            continue
        if not is_positive(rec.diagram()):
            res.error = "survey generated a non-positive diagram"
            continue
        for report in res.reports:
            if report.failed:
                res.error = (
                    f"{report.test.value} failed on a positive diagram; "
                    "this contradicts the obstruction theorems"
                )
    return result
