"""Show that every output check rejects a deliberately corrupted record.

    python3 bench/selftest.py

Runs poslink on the cheap entries of each workload (the 11-crossing
homology is left out; its check is the same as the mixed braid's), checks
that the untouched records pass, then corrupts one field at a time and
checks that the named check fires.  Exits 1 if any clean record is
rejected or any corruption gets through.  Takes about ten seconds.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import oracle as O
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"


def format_poly(p: O.Poly, var: str) -> str:
    def power(k: int) -> str:
        if var != "t":
            return f"{var}^{k}"
        return f"t^({k}/2)" if k % 2 else f"t^{k // 2}"

    pieces = []
    for k in sorted(p):
        c = p[k]
        body = f"{abs(c)}{power(k)}"
        pieces.append(("-" if c < 0 else "") + body if not pieces else
                      ("- " if c < 0 else "+ ") + body)
    return " ".join(pieces) or "0"


def format_kh(kh: O.KhTable) -> str:
    free = [f"{r}t^{i} q^{j}" for (i, j), (r, _) in sorted(kh.items()) if r]
    tors = [f"{c}t^{i} q^{j} T^2" for (i, j), (_, c) in sorted(kh.items()) if c]
    return " + ".join(free + tors) or "0"


def edit(record: dict, key: str, change, parse, fmt) -> dict:
    rec = copy.deepcopy(record)
    value = parse(rec["invariants"][key])
    change(value)
    rec["invariants"][key] = fmt(value)
    return rec


def jones_edit(record, change):
    return edit(record, "jones", change, lambda s: O.parse_poly(s, "t"),
                lambda p: format_poly(p, "t"))


def unnormalized_edit(record, change):
    return edit(record, "unnormalized_jones", change, lambda s: O.parse_poly(s, "q"),
                lambda p: format_poly(p, "q"))


def conway_edit(record, change):
    return edit(record, "conway", change, lambda s: O.parse_poly(s, "z"),
                lambda p: format_poly(p, "z"))


def kh_edit(record, change):
    return edit(record, "kh", change, O.parse_kh, format_kh)


def bump(table, key, delta=1):
    table[key] = table.get(key, 0) + delta


def add_free(table, key, rank=1):
    r, t = table.get(key, (0, 0))
    table[key] = (r + rank, t)


def drop_torsion(table):
    key = max(k for k, (_, t) in table.items() if t)
    r, _ = table[key]
    if r:
        table[key] = (r, 0)
    else:
        del table[key]


def set_grading(record, key, value):
    rec = copy.deepcopy(record)
    rec["gradings"][key] = value
    return rec


def run_program(argv: list[str], tag: str) -> dict[str, dict]:
    from poslink import cli

    out = OUT / f"selftest-{tag}.jsonl"
    cli.main(argv + ["--format", "record", "--out", str(out)])
    records = [json.loads(line) for line in out.read_text().splitlines() if line.strip()]
    return {r["name"]: r for r in records}


def main() -> int:
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    kh_wl = workloads.build("kh_table", workloads.DEFAULT_SEED)
    poly_wl = workloads.build("poly_table", workloads.DEFAULT_SEED)
    survey_wl = workloads.build("survey_3x8", workloads.DEFAULT_SEED)

    seven4 = workloads.SEVEN_4_PD
    t34 = workloads.braid_text(3, workloads.torus_letters(3, 4))
    mixed = workloads.braid_text(workloads.MIXED_STRANDS, workloads.mixed_braid(workloads.DEFAULT_SEED))
    kh_recs = run_program(["compute", "--kh", "--pd", seven4, "--braid", t34, "--braid", mixed], "kh")
    t37 = workloads.braid_text(3, workloads.torus_letters(3, 7))
    alt8 = workloads.braid_text(3, [1, -2] * 8)
    alt10 = workloads.braid_text(3, [1, -2] * 10)
    t310 = workloads.braid_text(3, workloads.torus_letters(3, 10))
    poly_recs = run_program(["compute", "--jones", "--braid", t37, "--braid", alt8], "jones")
    poly_recs |= run_program(["compute", "--conway", "--braid", alt10, "--braid", t310], "conway")
    survey_recs = run_program(["survey", "--strands", "3", "--max-length", "5"], "survey")
    trefoil = survey_recs["closure(strands=2; 1 1 1)"]

    s34 = 8 - 3 + 1  # Kh^0 of T(3,4) sits at j = s - 1, s + 1
    cases = [
        # (workload, clean record, corrupted record, check that must fire, what was done)
        (kh_wl, kh_recs[seven4], kh_edit(kh_recs[seven4], drop_torsion),
         "chart", "7_4 with one Z/2 removed"),
        (kh_wl, kh_recs[t34], kh_edit(kh_recs[t34], lambda t: (add_free(t, (0, s34 + 3)), add_free(t, (1, s34 + 3)))),
         "kh0", "T(3,4) with a cancelling Z pair added at homological degrees 0 and 1"),
        (kh_wl, kh_recs[mixed], kh_edit(kh_recs[mixed], lambda t: add_free(t, min(t))),
         "euler", "mixed braid with one free rank added"),
        (kh_wl, kh_recs[t34], set_grading(kh_recs[t34], "j_upper", kh_recs[t34]["gradings"]["j_upper"] + 2),
         "gradings", "T(3,4) with j_upper raised by 2"),
        (poly_wl, poly_recs[t37], jones_edit(poly_recs[t37], lambda p: bump(p, max(p))),
         "torus-jones", "T(3,7) with its top coefficient changed"),
        (poly_wl, poly_recs[t37], unnormalized_edit(poly_recs[t37], lambda p: bump(p, min(p))),
         "unnormalized", "T(3,7) with J(q) changed and V left alone"),
        (poly_wl, poly_recs[alt8], jones_edit(poly_recs[alt8], lambda p: (bump(p, max(p) + 2), bump(p, max(p) + 4))),
         "span", "(1 -2)^8 with t^a + t^(a+1) added, which keeps V(-1)"),
        (poly_wl, poly_recs[alt8], jones_edit(poly_recs[alt8], lambda p: bump(p, min(p) + 4, 2)),
         "lucas", "(1 -2)^8 with an inner coefficient changed"),
        (poly_wl, poly_recs[alt10], conway_edit(poly_recs[alt10], lambda p: bump(p, 2)),
         "lucas", "(1 -2)^10 with its z^2 coefficient changed"),
        (poly_wl, poly_recs[t310], conway_edit(poly_recs[t310], lambda p: bump(p, max(p))),
         "torus-conway", "T(3,10) with its top coefficient changed"),
        (survey_wl, trefoil, jones_edit(trefoil, lambda p: p.update({k: -v for k, v in p.items()})),
         "bracket", "survey trefoil with V negated"),
        (survey_wl, trefoil, conway_edit(trefoil, lambda p: bump(p, 2)),
         "determinant", "survey trefoil with its z^2 coefficient changed"),
        (survey_wl, trefoil, set_grading(
            kh_edit(trefoil, lambda t: (add_free(t, (5, 41)), add_free(t, (6, 41)))), "j_upper", 41),
         "inequality", "survey trefoil with a cancelling Z pair at j = 41, past 4 j_lower + n + 4 + 2 gamma"),
        (survey_wl, trefoil, kh_edit(trefoil, lambda t: (add_free(t, (0, 5)), add_free(t, (1, 5)))),
         "kh0", "survey trefoil with a cancelling Z pair at homological degrees 0 and 1"),
    ]
    verdict_rec = copy.deepcopy(trefoil)
    verdict_rec["reports"][0]["verdict"] = "Fail"
    cases.append((survey_wl, trefoil, verdict_rec, "verdict", "survey trefoil with a Fail verdict"))

    bad = 0
    for wl, clean, corrupt, expected, what in cases:
        if wl.check(clean):
            print(f"WRONG   {wl.name}: clean record {clean['name']!r} rejected: {wl.check(clean)}")
            bad += 1
        problems = wl.check(corrupt)
        tags = {p.split(":")[0] for p in problems}
        if expected in tags:
            fired = next(p for p in problems if p.startswith(expected))
            print(f"REJECTS {wl.name}: {what}\n        {fired[:150]}")
        else:
            print(f"MISSES  {wl.name}: {what}; the {expected!r} check did not fire: {problems}")
            bad += 1
    print(f"self-test: {len(cases) - bad} of {len(cases)} corruptions rejected, clean records accepted"
          if not bad else f"self-test: {bad} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
