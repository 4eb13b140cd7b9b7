"""Batch records: CSV ingestion, cross-validation against computed values,
obstruction runs, and the positive-braid survey.

Records run one after another, in input order.  The work is pure Python
and holds the interpreter lock, so a thread pool gave no speed-up.
Homology past its limits (:class:`~poslink.errors.HomologyTooLarge`)
gives its record one ``kh: skipped: ...`` flag, and the record keeps its
other invariants and runs its tests without Kh.

Each computing layer is imported on the first call that needs it:
``laurent`` and ``burau`` for the Jones and Conway polynomials, the
Khovanov stack (``khovanov``, ``tangle``, ``snf``) for homology, and
``obstruction`` for the tests.  So ``compute --kh`` compiles no
polynomial layer and ``compute --jones`` no homology.  The names stay
bindings of this module, looked up when called, because the benchmark's
tracer wraps ``poslink.batch.<name>`` by name to time each layer.
"""

from __future__ import annotations

import io
import itertools
import time
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .diagram import (
    BraidWord,
    Diagram,
    a_state_circles,
    braid_closure,
    components,
    is_positive,
    parse_braid,
    parse_pd,
)
from .errors import ColumnMissing, FileUnreadable, HomologyTooLarge, PoslinkError

if TYPE_CHECKING:
    from .khovanov import BigradedGroups
    from .laurent import LaurentPoly


def _deferred(module: str, name: str) -> Callable:
    """A stand-in for ``poslink.<module>.<name>`` that imports the module
    on its first call and keeps the function it finds there."""
    target = None

    def call(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(import_module(f".{module}", __package__), name)
        return target(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


format_poly = _deferred("laurent", "format_poly")
jones_V = _deferred("laurent", "jones_V")
jones_summary = _deferred("laurent", "jones_summary")
lickorish_bounds = _deferred("laurent", "lickorish_bounds")
parse_poly = _deferred("laurent", "parse_poly")
v_to_unnormalized = _deferred("laurent", "v_to_unnormalized")
conway = _deferred("burau", "conway")
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


class LinkRecord:
    """One link worth of input: a diagram, ingested invariants, or both.

    A row that failed to parse carries its message in ``error`` instead,
    and its result reports that error.  ``source`` names what the record
    was read as: ``pd``, ``braid`` or ``invariants``.
    """

    __slots__ = (
        "name", "pd", "braid", "jones", "conway", "kh", "components", "flags", "error", "closure",
        "source",
    )

    def __init__(
        self,
        name,
        pd=None,
        braid=None,
        jones=None,
        conway=None,
        kh=None,
        components=None,
        flags=None,
        error=None,
        closure=None,
    ):
        self.name = name
        self.pd = pd
        self.braid = braid
        self.jones = jones
        self.conway = conway
        self.kh = kh
        self.components = components
        self.flags = [] if flags is None else flags
        self.error = error
        # the braid's closure, built on first use or handed over by the survey
        self.closure = closure
        self.source = "pd" if pd is not None else "braid" if braid is not None else "invariants"
        if error is None and all(getattr(self, role) is None for role in INPUT_ROLES):
            raise ValueError(f"record {name!r} carries no diagram and no invariants")

    def diagram(self) -> Diagram | None:
        if self.pd is not None:
            return self.pd
        if self.braid is not None and self.closure is None:
            self.closure = braid_closure(self.braid)
        return self.closure


class RecordResult:
    """Outcome for one record; error is None unless something hard failed."""

    __slots__ = (
        "name", "source", "flags", "error", "invariants", "gradings", "reports", "comparison",
        "timing_ms",
    )

    def __init__(
        self,
        name,
        source,
        flags=None,
        error=None,
        invariants=None,
        gradings=None,
        reports=None,
        comparison=None,
        timing_ms=0.0,
    ):
        self.name = name
        self.source = source
        self.flags = [] if flags is None else flags
        self.error = error
        self.invariants = {} if invariants is None else invariants
        self.gradings = gradings
        self.reports = [] if reports is None else reports
        self.comparison = comparison
        self.timing_ms = timing_ms

    def to_dict(self) -> dict:
        """The JSON record; text output shows its fields in this order."""
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "source": self.source,
            "invariants": dict(self.invariants),
            "gradings": dict(self.gradings) if self.gradings else None,
            "reports": [r.to_dict() for r in self.reports],
            "comparison": self.comparison.value if self.comparison else None,
            "flags": list(self.flags),
            "error": self.error,
            "timing_ms": round(self.timing_ms, 3),
        }


class BatchResult:
    __slots__ = ("results",)

    def __init__(self, results: list[RecordResult]):
        self.results = results

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
    reader = csv.DictReader(open_text(path, newline=""))
    try:
        header = reader.fieldnames or []
        for role, column in column_map.items():
            if column not in header:
                raise ColumnMissing(f"column {column!r} (role {role!r}) not in header {header}")
        rows = list(reader)
    except csv.Error as exc:
        raise FileUnreadable(f"cannot read {path}: line {reader.reader.line_num}: {exc}") from None

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


def open_text(path: str, newline: str | None = None) -> io.StringIO:
    """The whole file decoded as UTF-8, less a leading byte-order mark (as
    spreadsheet and Notepad exports write one), to read as from
    ``open(path, newline=newline)``.  Decoding it at once puts the file
    offset of a bad byte in the FileUnreadable message; a streamed decode
    knows only its offset within the chunk."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    try:
        return io.StringIO(data.decode("utf-8").removeprefix("\ufeff"), newline=newline)
    except UnicodeDecodeError as exc:
        raise FileUnreadable(
            f"cannot read {path}: byte offset {exc.start} is not UTF-8 ({exc.reason})"
        ) from None


def parsed_record(name: str, role: str, parse: Callable[[str], object], text: str) -> LinkRecord:
    """The record of the diagram ``parse(text)`` in its ``role`` (``pd``
    or ``braid``), or, when the text does not parse, one that carries the
    parse error and keeps the role as its source: a malformed diagram is a
    record error, never the batch's."""
    try:
        return LinkRecord(name=name, **{role: parse(text)})
    except PoslinkError as exc:
        record = LinkRecord(name=name, error=f"input parse error: {exc}")
        record.source = role
        return record


def records_from_lines(lines: Iterable[str]) -> list[LinkRecord]:
    """Diagram-per-line batch input: PD expressions or braid words."""
    records = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        role, parse = ("pd", parse_pd) if text.startswith("PD[") else ("braid", parse_braid)
        records.append(parsed_record(f"line{lineno}: {text}", role, parse, text))
    return records


# --------------------------------------------------------------------------
# per-record pipeline


def _conway_mirror(p: LaurentPoly) -> LaurentPoly:
    # mirror image sends z -> -z, which flips the odd powers: half-step
    # keys k with k % 4 == 2
    return type(p)._raw({k: -c if k % 4 == 2 else c for k, c in p.halves()})


# each invariant of the mirror image, from the invariant
_MIRRORS = {
    "jones": lambda p: p.substitute_inverse(),
    "conway": _conway_mirror,
    "kh": lambda g: g.mirror(),
}


def _reconcile(name, computed, ingested, mode, flags):
    """Prefer computed values; cross-check ingested ones, normalizing the
    mirror convention when allowed.  Returns (value, hard_error)."""
    if ingested is None:
        return computed, None
    if computed is None:
        if mode == "always":
            flags.append(f"{name}: ingested value mirrored")
            ingested = _MIRRORS[name](ingested)
        return ingested, None
    candidates = [] if mode == "always" else [ingested]
    if mode != "never":
        candidates.append(_MIRRORS[name](ingested))
    for value in candidates:
        if value == computed:
            if value is not ingested:
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


def _mismatch(name: str, jones: LaurentPoly, value: LaurentPoly | BigradedGroups) -> str | None:
    """Check a record's nabla or Kh against its Jones polynomial V.

    At t^(1/2) = i the Jones skein relation becomes Conway's with
    z = -2i, so V(t^(1/2) = i) = nabla(-2i).  On n components nabla has
    only powers z^k with k = n - 1 (mod 2), and V has integer exponents
    exactly when n is odd.  The graded Euler characteristic of Kh is
    (q + q^-1) V.
    """
    if name == "kh":
        if euler_characteristic(value) != v_to_unnormalized(jones):
            return "self-check: the Euler characteristic of Kh is not (q + q^-1) V"
        return None
    # on half-step keys: t^(k/2) at t^(1/2) = i is i^k, and z^(k/2) at
    # z = -2i is (-2)^(k/2) i^(k/2); z^k has key 2k, even with V's keys
    # when n is odd
    v_at_i = _gaussian(jones.halves())
    nabla_at = _gaussian((k // 2, c * (-2) ** (k // 2)) for k, c in value.halves())
    if v_at_i != nabla_at:
        return (
            f"self-check: V(t^(1/2) = i) = {v_at_i} but "
            f"nabla(-2i) = {nabla_at} (real, imaginary)"
        )
    if any((k - 2 * h) % 4 for k, _ in value.halves() for h in jones.exponent_parities()):
        return "self-check: nabla has a power z^k whose parity is not that of n - 1"
    return None


def _self_check(
    values: dict[str, object], mirrorable: Iterable[str] = (), flags: list[str] | None = None
) -> str | None:
    """The first mismatch (:func:`_mismatch`) in a record's invariants,
    computed or ingested; a record that has one gets no verdict.  A nabla
    or Kh named in ``mirrorable`` that fails while its mirror image
    passes is replaced by the mirror in ``values``, and flagged."""
    jones = values.get("jones")
    for name in ("conway", "kh") if jones is not None else ():
        value = values.get(name)
        problem = value is not None and _mismatch(name, jones, value)
        if problem and name in mirrorable:
            mirrored = _MIRRORS[name](value)
            if _mismatch(name, jones, mirrored) is None:
                values[name], problem = mirrored, None
                flags.append(f"{name}: ingested value fits V after mirror normalization")
        if problem:
            return problem
    return None


def _positive_check(
    d: Diagram, computed: dict[str, object], gradings: dict[str, int | None] | None
) -> str | None:
    """Compare the invariants computed from a positive diagram with what
    its crossing count c and all-A circle count s_A fix.  The all-A state
    of a positive diagram is its Seifert state, and it is adequate, so
    min deg V = (c - s_A + 1)/2 (Lickorish-Thistlethwaite) and
    j_lower = c - s_A, the lower potential (Khovanov, *Patterns in knot
    cohomology I*, 2003); a nonzero nabla has degree c - s_A + 1 and no
    negative coefficient (Cromwell, *Homogeneous links*, 1989)."""
    jones, nabla = computed.get("jones"), computed.get("conway")
    if jones is not None:
        low = lickorish_bounds(d)[0]
        if jones.min_deg() != low:
            return f"positive diagram: min deg V = {jones.min_deg()} but (c - s_A + 1)/2 = {low}"
    if nabla:
        degree = d.crossing_count - a_state_circles(d) + 1
        if nabla.max_deg() != degree:
            return f"positive diagram: deg nabla = {nabla.max_deg()} but c - s_A + 1 = {degree}"
        if any(coeff < 0 for _, coeff in nabla.halves()):
            return "positive diagram: nabla has a negative coefficient"
    # gradings are set whenever homology was computed and passed the self-check
    if "kh" in computed and gradings["j_lower"] != gradings["j_min_potential"]:
        return (
            f"positive diagram: j_lower = {gradings['j_lower']} but "
            f"c - s_A = {gradings['j_min_potential']}"
        )
    return None


def _component_count(
    jones: LaurentPoly | None, cell: int | None, d: Diagram | None
) -> tuple[int | None, str | None]:
    """The component count n, read from V(1) = (-2)^(n-1) when V is known,
    checked against the diagram and the ``components`` cell.  Returns
    (n or None, the disagreement or None)."""
    found: list[tuple[str, int]] = []
    if jones is not None:
        v = jones.evaluate_at_one()
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
    mirror: str = "auto",
) -> RecordResult:
    t0 = time.perf_counter()
    result = RecordResult(record.name, record.source, list(record.flags), record.error)
    if result.error is None:
        try:
            _evaluate(record, result, want, run_tests, mirror)
        except Exception as exc:  # one bad record must not end the batch
            result.error = f"{type(exc).__name__}: {exc}"
    result.timing_ms = (time.perf_counter() - t0) * 1000.0
    return result


def _evaluate(
    record: LinkRecord, result: RecordResult, want: frozenset[str], run_tests: bool, mirror: str
) -> None:
    """Fill ``result`` in place with the record's invariants, gradings,
    test reports and first hard error (:func:`process_record`)."""
    flags, invariants = result.flags, result.invariants
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
                computed["kh"] = khovanov_homology(d)
            except HomologyTooLarge as exc:
                flags.append(f"kh: skipped: {exc}")

    values: dict[str, object] = {}
    disagreements = []
    for name in ("jones", "conway", "kh"):
        values[name], err = _reconcile(
            name, computed.get(name), getattr(record, name), mirror, flags
        )
        disagreements.append(err)
    # under --mirror auto, an ingested nabla or Kh may be mirrored to fit V
    mirrorable = values.keys() - computed.keys() if mirror == "auto" else ()
    inconsistent = _self_check(values, mirrorable, flags)
    jones, conway_poly, kh = values["jones"], values["conway"], values["kh"]
    n, err4 = _component_count(jones, record.components, d)
    error = inconsistent or next(filter(None, disagreements), None) or err4

    if jones is not None:
        invariants["jones"] = format_poly(jones, "t")
        invariants["unnormalized_jones"] = format_poly(v_to_unnormalized(jones), "q")
    if conway_poly is not None:
        invariants["conway"] = format_poly(conway_poly, "z")
    if kh is not None:
        invariants["kh"] = format_kh_polynomial(kh)

    gradings = None
    if kh is not None and inconsistent is None:
        j_min = j_max = None  # the potential window belongs to a diagram
        if d is not None:
            window = extreme_gradings(kh, d)
            j_min, j_max = window.j_min_potential, window.j_max_potential
        j_lower, j_upper = kh.j_range()
        gradings = result.gradings = {
            "j_lower": j_lower,
            "j_upper": j_upper,
            "j_min_potential": j_min,
            "j_max_potential": j_max,
        }

    if error is None and d is not None and is_positive(d):
        error = _positive_check(d, computed, gradings)

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
            # a Jones-only failure raises before any report is kept
            if jr.applicable and kr.applicable:
                result.comparison = strength_comparison(jr, kr)
            reports = result.reports = [jr, kr]
            if kh is not None:
                reports.append(khovanov_test_from_kh1(kh, n, lead))
            for r in reports:
                if r.equality_attained:
                    flags.append(f"{r.test.value}: bound attained with equality")
                if r.failed and d is not None and is_positive(d):
                    error = (
                        f"{r.test.value} failed on a positive diagram; "
                        "this contradicts the obstruction theorems"
                    )
    result.error = error


def cmd_compute(
    records: Iterable[LinkRecord],
    *,
    want: frozenset[str] = frozenset({"jones", "conway", "kh"}),
    mirror: str = "auto",
) -> BatchResult:
    return BatchResult([process_record(r, want=want, mirror=mirror) for r in records])


def cmd_test(records: Iterable[LinkRecord], *, mirror: str = "auto") -> BatchResult:
    return BatchResult([process_record(r, run_tests=True, mirror=mirror) for r in records])


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
    every word left out closes up to the same link as a kept one.  The
    kept word is the key itself, so only words that are least among their
    own rotations are visited (:func:`_necklaces`), in lexicographic order
    per strand count and length, and one is kept when no rotation of its
    flip is less.  The corpus is the least word of each key of
    :func:`positive_braid_words`, in that function's order.
    """
    out = []
    for n in range(2, max_strands + 1):
        for length in range(1, max_length + 1):
            for letters in _necklaces(n - 1, length):
                flipped = tuple(n - k for k in letters)
                if all(letters <= flipped[i:] + flipped[:i] for i in range(length)):
                    word = BraidWord(n, letters)
                    out.append((word, braid_closure(word)))
    return out


def _necklaces(size: int, length: int) -> Iterator[tuple[int, ...]]:
    """The words of ``length`` >= 1 letters from 1..size that are least
    among their own rotations, in lexicographic order: the
    Fredricksen-Kessler-Maiorana algorithm (*Necklaces of beads in k
    colors*, Discrete Math. 1978), constant amortized time per word.  It
    steps through the prenecklaces, each the prefix of a repeated word of
    ``period`` letters, and a prenecklace is a necklace when its period
    divides its length."""
    word = [0]
    while word:
        word[-1] += 1
        period = len(word)
        while len(word) < length:
            word.append(word[-period])
        if length % period == 0:
            yield tuple(word)
        while word and word[-1] == size:
            word.pop()


def cmd_survey(max_strands: int, max_length: int) -> BatchResult:
    """Enumerate positive braid closures, dedupe, and test them; a failed
    test on a positive diagram is a record error, as in every command.

    The records are built in the sorted order of their renumbered
    crossings (:attr:`Diagram.contraction_crossings`), a depth-first walk
    of their prefixes, so each shares the longest prefix possible with
    the one built just before it, and the bracket and the tangle builder
    take that prefix from their chains (:mod:`poslink.contraction`).
    They are listed in word order."""
    records = []
    for word, diagram in survey_corpus(max_strands, max_length):
        letters = " ".join(str(k) for k in word.letters)
        name = f"closure(strands={word.strand_count}; {letters})"
        records.append(LinkRecord(name=name, braid=word, closure=diagram))
    built = {}
    for i in sorted(range(len(records)), key=lambda i: records[i].closure.contraction_crossings):
        built[i] = process_record(records[i], run_tests=True)
    result = BatchResult([built[i] for i in range(len(records))])
    for res, rec in zip(result.results, records):
        if res.error is None and not is_positive(rec.diagram()):
            res.error = "survey generated a non-positive diagram"
    return result
