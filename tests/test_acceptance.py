"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

from poslink import (
    BigradedGroups,
    Strength,
    Verdict,
    a_state_circles,
    braid_closure,
    cmd_test,
    conway,
    euler_characteristic,
    extreme_gradings,
    ingest_csv,
    jones_summary,
    jones_V,
    kh1_rank,
    khovanov_homology,
    parse_poly,
    positive_braid_words,
    v_to_unnormalized,
)
from poslink.laurent import format_poly

from conftest import DATA_DIR
from reference import Skein


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.1f}s): {description}")


FIGURE_KH_74 = {
    (0, 1): (1, ()),
    (0, 3): (1, ()),
    (1, 3): (2, ()),
    (2, 5): (1, (2, 2)),
    (2, 7): (2, ()),
    (3, 7): (1, (2,)),
    (3, 9): (1, ()),
    (4, 9): (2, (2,)),
    (4, 11): (1, ()),
    (5, 11): (0, (2, 2)),
    (5, 13): (2, ()),
    (6, 13): (1, ()),
    (7, 15): (0, (2,)),
    (7, 17): (1, ()),
}


def test_criterion_01_khovanov_of_7_4(seven4):
    with criterion(1, "Kh(7_4) reproduces the published chart exactly, < 5s"):
        started = time.perf_counter()
        kh = khovanov_homology(seven4)
        elapsed = time.perf_counter() - started
        assert kh == BigradedGroups(FIGURE_KH_74)
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_categorification_round_trip(
    unknot, hopf, trefoil, seven4, survey_data
):
    with criterion(2, "graded Euler characteristic equals (q+1/q)V over the corpus"):
        for d in (unknot, hopf, trefoil, seven4):
            assert euler_characteristic(khovanov_homology(d)) == v_to_unnormalized(
                jones_V(d)
            )
        for entry in survey_data:
            assert entry.diagram.crossing_count <= 10
            assert euler_characteristic(entry.kh) == v_to_unnormalized(entry.jones)


def test_criterion_03_jones_fixtures(trefoil, seven4):
    with criterion(3, "Jones of the trefoil and of 7_4, exact"):
        assert jones_V(trefoil) == parse_poly("t + t^3 - t^4")
        assert jones_V(seven4) == parse_poly(
            "t - 2t^2 + 3t^3 - 2t^4 + 3t^5 - 2t^6 + t^7 - t^8"
        )


def test_criterion_04_headline_12n749():
    with criterion(4, "ingested 12n749: Jones passes (10<=12), homology fails (21>17)"):
        records = [
            r
            for r in ingest_csv(
                str(DATA_DIR / "knots.csv"),
                {"name": "Name", "components": "Components", "jones": "Jones", "kh": "Kh"},
            )
            if r.name == "12n749"
        ]
        assert len(records) == 1
        result = cmd_test(records).results[0]
        assert result.error is None
        jones_report, khovanov_report = result.reports[0], result.reports[1]
        assert jones_report.verdict is Verdict.PASS
        assert (jones_report.lhs, jones_report.rhs) == (10, 12)
        assert khovanov_report.verdict is Verdict.FAIL
        assert (khovanov_report.lhs, khovanov_report.rhs) == (21, 17)
        assert result.comparison is Strength.KHOVANOV_ONLY_FAILS


def test_criterion_05_positive_diagram_grading_laws(survey_data):
    with criterion(5, "positive closures: j_lower = c - |s_A|, min deg V = (c-|s_A|+1)/2"):
        j_lower_by_link = {
            (format_poly(e.jones), format_poly(e.conway, "z")): e.kh.j_range()[0]
            for e in survey_data
        }
        checked = 0
        for word in positive_braid_words(3, 8):
            d = braid_closure(word)
            v = jones_V(d)
            key = (format_poly(v), format_poly(conway(d), "z"))
            c, s_a = d.crossing_count, a_state_circles(d)
            assert jones_summary(v).min_deg == Fraction(c - s_a + 1, 2), word
            assert j_lower_by_link[key] == c - s_a, word
            checked += 1
        assert checked == 518  # every word with strands <= 3, length <= 8


def test_criterion_06_sandwich_property(
    unknot, hopf, trefoil, mirror_trefoil, seven4, perturbed_trefoil, survey_data
):
    with criterion(6, "j_min(D) <= j_lower <= j_upper <= j_max(D) for every diagram"):
        fixtures = [unknot, hopf, trefoil, mirror_trefoil, seven4, perturbed_trefoil]
        for d in fixtures:
            g = extreme_gradings(khovanov_homology(d), d)
            assert g.j_min_potential <= g.j_lower <= g.j_upper <= g.j_max_potential
        for entry in survey_data:
            g = extreme_gradings(entry.kh, entry.diagram)
            assert g.j_min_potential <= g.j_lower <= g.j_upper <= g.j_max_potential


def test_criterion_07_theorem_soundness(survey_data, seven4):
    with criterion(7, "both tests pass on every applicable positive closure; equalities hit"):
        from poslink import ObstructionInput, jones_test, khovanov_test, components

        def reports_for(d, v, nabla, kh):
            s = jones_summary(v)
            inp = ObstructionInput(
                p1=s.p1,
                n=components(d),
                # a split link has vanishing Conway polynomial; its leading
                # coefficient is undefined and those cases are inapplicable
                lead_conway=nabla.lead_coeff() if nabla else None,
                jones_min=s.min_deg,
                jones_max=s.max_deg,
                j_lower=kh.j_range()[0],
                j_upper=kh.j_range()[1],
            )
            return jones_test(inp), khovanov_test(inp)

        passes = 0
        equalities = {}
        for entry in survey_data:
            s = jones_summary(entry.jones)
            if s.p1 > 2:
                continue
            jr, kr = reports_for(entry.diagram, entry.jones, entry.conway, entry.kh)
            for report in (jr, kr):
                assert report.verdict is not Verdict.FAIL, entry.word
                if report.applicable:
                    assert report.verdict is Verdict.PASS, entry.word
                    passes += 1
            equalities[format_poly(entry.jones)] = (kr.lhs, kr.rhs, kr.equality_attained)
        assert passes > 20
        lhs, rhs, hit = equalities["t + t^3 - t^4"]
        assert hit and (lhs, rhs) == (9, 9)

        jr, kr = reports_for(
            seven4, jones_V(seven4), conway(seven4), khovanov_homology(seven4)
        )
        assert jr.verdict is Verdict.PASS and kr.verdict is Verdict.PASS
        assert kr.equality_attained and (kr.lhs, kr.rhs) == (17, 17)


def test_criterion_08_kh1_identification(survey_data):
    with criterion(8, "rank of homological grading 1 equals |second Jones coefficient|"):
        checked = 0
        for entry in survey_data:
            if entry.conway.is_zero:
                # split link: the second Jones coefficient no longer encodes
                # the cyclomatic number, so the rank identity does not apply
                continue
            assert kh1_rank(entry.kh) == jones_summary(entry.jones).p1, entry.word
            checked += 1
        assert checked >= 20


def test_criterion_09_conway_oracle(unknot, hopf, trefoil, seven4, perturbed_trefoil):
    with criterion(9, "Conway fixtures and the skein relation at every crossing"):
        assert conway(trefoil) == parse_poly("1 + z^2", "z")
        assert conway(hopf) == parse_poly("z", "z")
        assert conway(seven4) == parse_poly("1 + 4z^2", "z")
        z = parse_poly("z", "z")
        for d in (unknot, hopf, trefoil, seven4, perturbed_trefoil):
            od = Skein.of(d)
            for k in range(d.crossing_count):
                lhs = conway(d) - conway(od.switch(k).to_diagram())
                rhs = od.sign(k) * z * conway(od.resolve(k).to_diagram())
                assert lhs == rhs, (d, k)


def test_criterion_10_invariance_spot_checks(
    trefoil, perturbed_trefoil, stabilized_trefoil
):
    with criterion(10, "V, Conway, Kh agree across trefoil diagrams related by R1/R2"):
        v, nabla, kh = jones_V(trefoil), conway(trefoil), khovanov_homology(trefoil)
        for other in (perturbed_trefoil, stabilized_trefoil):
            assert other.crossing_count == 5
            assert jones_V(other) == v
            assert conway(other) == nabla
            assert khovanov_homology(other) == kh
