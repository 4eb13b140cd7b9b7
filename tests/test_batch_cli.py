from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from poslink import (
    Diagram,
    LinkRecord,
    Strength,
    Verdict,
    cmd_compute,
    cmd_survey,
    cmd_test,
    braid_closure,
    conway,
    format_kh_polynomial,
    format_poly,
    ingest_csv,
    is_positive,
    jones_V,
    khovanov_homology,
    parse_braid,
    parse_pd,
    parse_poly,
    positive_braid_words,
    survey_corpus,
)
from poslink.batch import _self_check, process_record, records_from_lines
from poslink.cli import _build_parser, main
from poslink.errors import ColumnMissing, FileUnreadable

from conftest import DATA_DIR, TREFOIL_PD
from polygon_diagrams import polygon_diagram
from reference import per_map_homology, survey_words

COLUMNS = {
    "name": "Name",
    "components": "Components",
    "pd": "PD Notation",
    "braid": "Braid Notation",
    "jones": "Jones",
    "conway": "Conway",
    "kh": "Kh",
}
COLUMNS_FLAG = ",".join(f"{k}={v}" for k, v in COLUMNS.items())
KNOTS_CSV = str(DATA_DIR / "knots.csv")
# rows whose ingested invariants do not fit together as written
INCONSISTENT_CSV = str(DATA_DIR / "inconsistent.csv")
INCONSISTENT_COLUMNS = {"name": "Name", "jones": "Jones", "conway": "Conway", "kh": "Kh"}
# the UTF-8 byte-order mark
BOM = b"\xef\xbb\xbf"


class TestIngest:
    def test_fixture_table(self):
        records = ingest_csv(KNOTS_CSV, COLUMNS)
        assert [r.name for r in records] == ["trefoil", "seven_4", "hopf_plus", "12n749"]
        r749 = records[-1]
        assert r749.pd is None and r749.braid is None
        assert r749.jones == parse_poly("t^3 + t^5 - t^6 + t^7 - t^8 + t^9 - t^10")
        assert r749.kh.j_range() == (3, 21)
        assert r749.components == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("Name,Jones\n")
        assert ingest_csv(str(path), {"name": "Name", "jones": "Jones"}) == []

    def test_missing_column(self):
        with pytest.raises(ColumnMissing):
            ingest_csv(KNOTS_CSV, {"jones": "NoSuchHeader"})

    def test_unknown_role(self):
        with pytest.raises(ColumnMissing):
            ingest_csv(KNOTS_CSV, {"genus": "Name"})

    def test_unreadable(self):
        with pytest.raises(FileUnreadable):
            ingest_csv("/no/such/file.csv", {"name": "Name"})

    def test_bad_cell_flagged_not_fatal(self, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text(
            "Name,Jones,Conway\n"
            "good,t + t^3 - t^4,1 + z^2\n"
            "bad,wibble wobble,z\n"
        )
        records = ingest_csv(
            str(path), {"name": "Name", "jones": "Jones", "conway": "Conway"}
        )
        assert len(records) == 2
        assert not records[0].flags
        assert records[1].conway == parse_poly("z", "z")
        assert any("jones" in f for f in records[1].flags)


    @pytest.mark.parametrize("mult", [10**19, 10**9])
    def test_oversized_kh_cell_is_flagged_not_fatal(self, tmp_path, capsys, mult):
        path = tmp_path / "kh.csv"
        path.write_text(
            "Name,Jones,Kh\n"
            f"big,t + t^3 - t^4,{mult} t^3 q^7 T^2\n"
            "trefoil,t + t^3 - t^4,q + q^3 + t^2 q^5 + t^3 q^9 + t^3 q^7 T^2\n"
        )
        records = ingest_csv(str(path), {"name": "Name", "jones": "Jones", "kh": "Kh"})
        assert [r.name for r in records] == ["big", "trefoil"]
        assert records[0].kh is None and records[1].kh is not None
        assert records[0].flags == ["kh: cell parse error: more than 1000000 torsion factors"]
        code = main(["test", "--file", str(path), "--columns", "name=Name,jones=Jones,kh=Kh"])
        out = capsys.readouterr().out
        assert code == 0
        assert "more than 1000000 torsion factors" in out and "trefoil" in out

    def test_misread_kh_cell_is_flagged_not_tested(self, tmp_path):
        # text between a group and its q: this cell was once read as
        # (1 + t^2)q^3, which moved a rank into Kh^0 and printed a verdict
        path = tmp_path / "kh.csv"
        path.write_text(
            "Name,Jones,Kh\n"
            "k,t^3 + t^5 - t^6 + t^7 - t^8 + t^9 - t^10,(1 + t^2)t q^3\n"
        )
        records = ingest_csv(str(path), {"name": "Name", "jones": "Jones", "kh": "Kh"})
        assert records[0].kh is None
        assert len(records[0].flags) == 1
        assert records[0].flags[0].startswith("kh: cell parse error")
        result = cmd_test(records).results[0]
        assert result.error is None
        assert "KhovanovFromKh1" not in [r.test.value for r in result.reports]


class TestCrossValidation:
    def test_shipped_fixtures_have_zero_flags(self):
        records = ingest_csv(KNOTS_CSV, COLUMNS)
        batch = cmd_compute(records)
        for result in batch:
            assert result.error is None, (result.name, result.error)
            assert not result.flags, (result.name, result.flags)

    def test_mismatch_is_hard_error(self, tmp_path):
        path = tmp_path / "wrong.csv"
        path.write_text(
            'Name,PD,Jones\ntrefoil,"{}",t + t^3 + t^4\n'.format(TREFOIL_PD)
        )
        batch = cmd_compute(
            ingest_csv(str(path), {"name": "Name", "pd": "PD", "jones": "Jones"})
        )
        assert not batch.all_ok
        assert "disagree" in batch.results[0].error

    def test_mirror_convention_normalized(self, tmp_path):
        path = tmp_path / "mirror.csv"
        path.write_text(
            'Name,PD,Jones\ntrefoil,"{}",-t^-4 + t^-3 + t^-1\n'.format(TREFOIL_PD)
        )
        records = ingest_csv(str(path), {"name": "Name", "pd": "PD", "jones": "Jones"})
        batch = cmd_compute(records)
        assert batch.all_ok
        assert any("mirror" in f for f in batch.results[0].flags)
        # with normalization off the same table is a hard error
        batch = cmd_compute(records, mirror="never")
        assert not batch.all_ok



class TestIngestedSelfChecks:
    """Ingested invariants are checked against the Jones polynomial too,
    so a table whose cells do not fit together gets no verdict."""

    def results(self, mirror):
        records = ingest_csv(INCONSISTENT_CSV, INCONSISTENT_COLUMNS)
        return {r.name: r for r in cmd_test(records, mirror=mirror)}

    def test_kh_whose_euler_characteristic_is_not_jones_is_the_record_error(self):
        # chi of this kh is q^-9 + q^-7 + q^23, and its j_upper = 23 alone
        # would make the Khovanov test fail
        for mirror in ("auto", "never", "always"):
            bogus = self.results(mirror)["bogus"]
            assert bogus.error == "self-check: the Euler characteristic of Kh is not (q + q^-1) V"
            assert bogus.reports == [] and bogus.comparison is None and bogus.gradings is None

    def test_mirrored_kh_and_conway_are_normalized_under_auto(self):
        results = self.results("auto")
        left = results["left_V_right_Kh"]
        assert left.error is None
        assert left.flags == ["kh: ingested value fits V after mirror normalization"]
        assert left.invariants["kh"] == (
            "t^-3 q^-9 + t^-2 q^-5 + q^-3 + q^-1 + t^-2 q^-7 T^2"
        )
        assert left.gradings["j_upper"] == -1 and left.reports
        hopf = results["negative_V_positive_nabla"]
        assert hopf.error is None and hopf.invariants["conway"] == "-z"
        assert hopf.flags == ["conway: ingested value fits V after mirror normalization"]

    def test_conway_with_powers_of_both_parities_is_the_record_error(self):
        # 1 + 4z + z^2 + z^3 passes V(t^(1/2) = i) = nabla(-2i) with the
        # trefoil's V, but a knot's nabla has even powers only
        for mirror in ("auto", "never", "always"):
            row = self.results(mirror)["odd_powers_on_a_knot"]
            assert row.error == (
                "self-check: nabla has a power z^k whose parity is not that of n - 1"
            )
            assert row.reports == []

    @pytest.mark.parametrize("mirror", ["never", "always"])
    def test_mirrored_cells_are_record_errors_without_auto(self, mirror):
        # always mirrors every cell of a row, V included, so the cells
        # still disagree, with the two values at i swapped
        results = self.results(mirror)
        at_i = ("(0, 2)", "(0, -2)") if mirror == "never" else ("(0, -2)", "(0, 2)")
        assert results["left_V_right_Kh"].error.startswith("self-check: the Euler")
        assert results["negative_V_positive_nabla"].error == (
            "self-check: V(t^(1/2) = i) = {} but nabla(-2i) = {} (real, imaginary)".format(*at_i)
        )
        assert all(not r.reports for r in results.values())
        for r in results.values():
            if mirror == "never":
                assert not r.flags
            else:
                assert r.flags and all(f.endswith(": ingested value mirrored") for f in r.flags)

    def test_cli_exits_1_and_prints_no_verdict(self, capsys):
        code = main([
            "test", "--file", INCONSISTENT_CSV, "--columns", "name=Name,jones=Jones,kh=Kh",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "KhovanovOnlyFails" not in out
        assert out.count("error: self-check") == 1

    def test_knots_table_is_consistent_as_ingested(self):
        # every cell of the shipped table, no diagram: nothing is mirrored
        columns = {k: v for k, v in COLUMNS.items() if k not in ("pd", "braid")}
        for mirror in ("auto", "never"):
            for result in cmd_test(ingest_csv(KNOTS_CSV, columns), mirror=mirror):
                assert result.error is None and result.reports, result.name
                assert not any("mirror" in flag for flag in result.flags), result.name


class TestMirrorAlways:
    """``--mirror always`` reads every ingested invariant as its mirror
    image, also when nothing computed is there to compare it with."""

    ARGS = [
        "test", "--file", str(DATA_DIR / "left_trefoil_jones.csv"),
        "--columns", "name=Name,jones=Jones",
    ]
    LEFT = [
        "== left_trefoil ==",
        "source: invariants",
        "jones: -t^-4 + t^-3 + t^-1",
        "unnormalized_jones: -q^-9 + q^-5 + q^-3 + q^-1",
    ] + [
        line
        for test in ("JonesTest", "KhovanovTest")
        for line in (
            "report:", f"  test: {test}", "  applicable: false", "  lhs: -", "  rhs: -",
            "  gamma: -", "  verdict: NotApplicable",
            "  note: p1 = 1 needs the leading Conway coefficient",
        )
    ]
    RIGHT = [
        "== left_trefoil ==",
        "source: invariants",
        "jones: t + t^3 - t^4",
        "unnormalized_jones: q + q^3 + q^5 - q^9",
        "report:", "  test: JonesTest", "  applicable: true", "  lhs: 4", "  rhs: 4",
        "  gamma: 0", "  verdict: Pass",
        "report:", "  test: KhovanovTest", "  applicable: false", "  lhs: -", "  rhs: -",
        "  gamma: -", "  verdict: NotApplicable", "  note: extreme quantum gradings unavailable",
        "flag: jones: ingested value mirrored",
        "flag: JonesTest: bound attained with equality",
    ]

    @pytest.mark.parametrize("mirror", ["never", "auto", "always"])
    def test_ingested_only_jones(self, mirror, capsys):
        assert main(self.ARGS + ["--mirror", mirror]) == 0
        expected = self.RIGHT if mirror == "always" else self.LEFT
        assert capsys.readouterr().out.splitlines() == expected

    def test_every_ingested_value_is_mirrored_and_flagged(self):
        columns = {k: v for k, v in COLUMNS.items() if k not in ("pd", "braid")}
        records = ingest_csv(KNOTS_CSV, columns)
        plain = {r.name: r for r in cmd_compute(records, mirror="never")}
        for result in cmd_compute(records, mirror="always"):
            assert result.error is None, result.name
            assert result.flags == [
                f"{name}: ingested value mirrored"
                for name in ("jones", "conway", "kh")
                if name in plain[result.name].invariants
            ]
        hopf = {r.name: r for r in cmd_compute(records, mirror="always")}["hopf_plus"]
        assert hopf.invariants["conway"] == "-z"
        assert hopf.invariants["jones"] == "-t^(-5/2) - t^(-1/2)"


class TestCmdTest:
    def test_12n749_headline(self):
        records = [r for r in ingest_csv(KNOTS_CSV, COLUMNS) if r.name == "12n749"]
        batch = cmd_test(records)
        result = batch.results[0]
        assert result.error is None
        jones_report, khovanov_report = result.reports[0], result.reports[1]
        assert jones_report.verdict is Verdict.PASS
        assert (jones_report.lhs, jones_report.rhs) == (10, 12)
        assert khovanov_report.verdict is Verdict.FAIL
        assert (khovanov_report.lhs, khovanov_report.rhs) == (21, 17)
        assert result.comparison is Strength.KHOVANOV_ONLY_FAILS

    def test_fail_on_a_positive_diagram_is_an_error(self, monkeypatch, capsys):
        import poslink.batch
        from poslink import ObstructionReport, TestKind

        fail = ObstructionReport(TestKind.KHOVANOV, True, 9, 1, 0, Verdict.FAIL)
        monkeypatch.setattr(poslink.batch, "khovanov_test", lambda inp: fail)
        expected = (
            "KhovanovTest failed on a positive diagram; "
            "this contradicts the obstruction theorems"
        )
        trefoil = LinkRecord(name="trefoil", pd=parse_pd(TREFOIL_PD))
        assert cmd_test([trefoil]).results[0].error == expected
        assert main(["test", "--pd", TREFOIL_PD]) == 1
        assert f"error: {expected}" in capsys.readouterr().out
        # the figure-eight knot has no positive diagram: a Fail is a verdict
        figure_eight = "strands=3; 1 -2 1 -2"
        result = cmd_test([LinkRecord(name="4_1", braid=parse_braid(figure_eight))]).results[0]
        assert result.error is None and fail in result.reports
        assert main(["test", "--braid", figure_eight]) == 0
        assert "error:" not in capsys.readouterr().out

    def test_trefoil_computed(self):
        batch = cmd_test([LinkRecord(name="trefoil", pd=__import__("poslink").parse_pd(TREFOIL_PD))])
        result = batch.results[0]
        assert result.comparison is Strength.NEITHER_FAILS
        assert all(r.equality_attained for r in result.reports)

    # the mirror of the Knot Atlas 5_2 code, plus the positive trefoil with
    # its arcs shifted by 10: a positive split diagram with p1 = 0
    SPLIT_5_2_3_1 = (
        "PD[X[5,2,4,1],X[9,4,8,3],X[1,6,10,5],X[3,8,2,7],X[7,10,6,9],"
        "X[11,14,12,15],X[13,16,14,11],X[15,12,16,13]]"
    )

    def test_split_positive_link_not_applicable(self):
        # V of a split union is -(t^(1/2) + t^(-1/2)) V1 V2, so p(5_2) = 1
        # and p(3_1) = 0 cancel; ungated, both inequalities would print Fail
        d = parse_pd(self.SPLIT_5_2_3_1)
        assert is_positive(d) and conway(d).is_zero
        result = cmd_test([LinkRecord(name="5_2+3_1", pd=d)]).results[0]
        assert result.error is None
        assert len(result.reports) == 3
        for report in result.reports:
            assert report.verdict is Verdict.NOT_APPLICABLE
            assert "may be split" in report.note
        assert result.comparison is None

    def test_ingested_link_without_conway_not_applicable(self, tmp_path):
        d = parse_pd(self.SPLIT_5_2_3_1)
        jones = format_poly(jones_V(d), "t")
        kh = format_kh_polynomial(khovanov_homology(d))
        path = tmp_path / "split.csv"
        path.write_text(f"Name,Components,Jones,Kh\nsplit,2,{jones},{kh}\n")
        columns = {"name": "Name", "components": "Components", "jones": "Jones", "kh": "Kh"}
        result = cmd_test(ingest_csv(str(path), columns)).results[0]
        assert result.error is None
        assert len(result.reports) == 3
        for report in result.reports:
            assert report.verdict is Verdict.NOT_APPLICABLE
            assert "may be split" in report.note

    def test_component_count_comes_from_jones(self, tmp_path, capsys):
        # V(1) = (-2)^(n-1) = 4 gives n = 3 for this positive 3-component
        # closure; taken for a knot (n = 1) it printed JonesTest Fail, 5 > 4
        d = braid_closure(parse_braid("strands=3; 1 1 2 2"))
        jones, nabla = format_poly(jones_V(d), "t"), format_poly(conway(d), "z")
        path = tmp_path / "three.csv"
        path.write_text(f"Name,Jones,Conway\nthree,{jones},{nabla}\n")
        records = ingest_csv(str(path), {"name": "Name", "jones": "Jones", "conway": "Conway"})
        assert records[0].components is None
        result = cmd_test(records).results[0]
        assert result.error is None
        jones_report = result.reports[0]
        assert jones_report.applicable and (jones_report.lhs, jones_report.rhs) == (5, 5)
        assert not any(r.failed for r in result.reports)
        code = main(["test", "--file", str(path), "--columns", "name=Name,jones=Jones,conway=Conway"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Fail" not in out and "assuming a knot" not in out

    def test_components_cell_disagreeing_is_the_record_error(self, tmp_path, capsys):
        # the split 5_2 + 3_1 labelled as a knot printed JonesTest Fail and
        # KhovanovTest Fail, and the run exited 0
        path = tmp_path / "split.csv"
        path.write_text(f'Name,Components,PD\nsplit,1,"{self.SPLIT_5_2_3_1}"\n')
        columns = {"name": "Name", "components": "Components", "pd": "PD"}
        result = cmd_test(ingest_csv(str(path), columns)).results[0]
        assert result.error == (
            "components: V(1) gives 2, the diagram gives 2, the components cell gives 1"
        )
        assert result.reports == []
        code = main(["test", "--file", str(path), "--columns", "name=Name,components=Components,pd=PD"])
        out = capsys.readouterr().out
        assert code == 1
        assert "Fail" not in out and result.error in out

    def test_jones_that_is_no_link_polynomial_is_the_record_error(self):
        # V(1) = (-2)^(n-1) for every link, so V(1) = -1 names no component count
        record = LinkRecord(name="odd", jones=parse_poly("t - 3t^2 + t^3"))
        result = cmd_test([record]).results[0]
        assert result.error == "components: V(1) = -1 is not a power of -2"
        assert result.reports == []

    def test_p1_three_not_applicable(self):
        # second coefficient 3: outside every obstruction family.  This is
        # V of the knot closing the 3-braid 1 1 -2 1 1 -2 1 -2, so V(1) = 1.
        jones = parse_poly("-t^-2 + 3t^-1 - 4 + 6t - 6t^2 + 6t^3 - 5t^4 + 3t^5 - t^6")
        record = LinkRecord(name="odd", jones=jones)
        batch = cmd_test([record])
        result = batch.results[0]
        assert result.error is None
        assert all(r.verdict is Verdict.NOT_APPLICABLE for r in result.reports)
        assert result.comparison is None


class TestSurvey:
    def test_small_survey_finds_trefoil(self):
        batch = cmd_survey(2, 3)
        assert batch.all_ok
        names = [r.name for r in batch]
        assert "closure(strands=2; 1 1 1)" in names
        trefoil_result = batch.results[names.index("closure(strands=2; 1 1 1)")]
        assert any("equality" in f for f in trefoil_result.flags)
        for result in batch:
            for report in result.reports:
                assert report.verdict is not Verdict.FAIL

    def test_survey_3x8_all_ok(self):
        # the split closures of sigma_1^k in B_3 have rank Kh^1 = 0 but
        # nonzero p1; without a Conway polynomial the Kh^1 test must stand down
        batch = cmd_survey(3, 8)
        assert batch.all_ok, [r.error for r in batch if r.error]
        assert len(batch) == 59  # one word per conjugacy key
        result = batch.results[[r.name for r in batch].index("closure(strands=3; 1 1)")]
        kh1_report = result.reports[2]
        assert kh1_report.verdict is Verdict.NOT_APPLICABLE
        assert "may be split" in kh1_report.note

    @staticmethod
    def conjugates(word):
        """Rotations of the letters and of their images under i -> n - i."""
        n, letters = word.strand_count, word.letters
        flipped = tuple(n - k for k in letters)
        return {(n, w[i:] + w[:i]) for w in (letters, flipped) for i in range(len(w))}

    def test_corpus_keeps_one_word_per_conjugacy_key(self):
        kept = [word for word, _ in survey_corpus(3, 6)]
        for a, b in itertools.combinations(kept, 2):
            assert (b.strand_count, b.letters) not in self.conjugates(a), (a, b)
        kept_keys = {(w.strand_count, w.letters) for w in kept}
        for word in positive_braid_words(3, 6):
            assert self.conjugates(word) & kept_keys, word

    @pytest.mark.parametrize(
        "max_strands, max_length", [(5, 7), (4, 7), (3, 7), (2, 7), (5, 1), (1, 4), (4, 0)]
    )
    def test_corpus_is_the_least_word_of_each_key(self, max_strands, max_length):
        # the necklace walk against keying every word by all its rotations
        corpus = survey_corpus(max_strands, max_length)
        assert [word for word, _ in corpus] == survey_words(max_strands, max_length)
        assert all(d == braid_closure(word) for word, d in corpus)

    def test_empty_bounds(self):
        assert len(cmd_survey(1, 0)) == 0
        assert len(cmd_survey(0, 5)) == 0

    def test_each_closure_is_built_once(self, monkeypatch):
        built = []
        init = Diagram.__init__

        def counted(d, *args, **kwargs):
            built.append(d)
            init(d, *args, **kwargs)

        monkeypatch.setattr(Diagram, "__init__", counted)
        batch = cmd_survey(3, 5)
        assert batch.all_ok
        assert len(built) == len(batch) == len(survey_corpus(3, 5))
        assert {r.source for r in batch} == {"braid"}

    def test_records_do_not_depend_on_the_chains(self, monkeypatch):
        # the bracket's and the tangle builder's chains, empty and then
        # holding diagrams outside the survey, some of which share a prefix
        # with its records
        from poslink import contraction, laurent, tangle

        monkeypatch.setattr(contraction, "_MATCHINGS", contraction._Interned())
        fresh = [{**r.to_dict(), "timing_ms": 0} for r in cmd_survey(3, 7)]
        rng = random.Random(3)
        for text in ("strands=3; 1 2 1 2 1 2 1 2 1 2", "strands=3; 1 1 2 -1 2", "strands=4; 1 -2 3 1 2"):
            d = braid_closure(parse_braid(text))
            jones_V(d)
            khovanov_homology(d)
        for _ in range(5):
            d = polygon_diagram(rng, max_crossings=8)
            jones_V(d)
            khovanov_homology(d)
        chains = contraction._MATCHINGS.chains
        assert chains[laurent._add_crossing] and chains[tangle._add_crossing]
        again = [{**r.to_dict(), "timing_ms": 0} for r in cmd_survey(3, 7)]
        assert again == fresh

    def test_build_order_does_not_reach_the_output(self, monkeypatch):
        from poslink import contraction

        monkeypatch.setattr(contraction, "_MATCHINGS", contraction._Interned())
        corpus = survey_corpus(3, 8)
        batch = cmd_survey(3, 8)
        assert [r.name for r in batch] == [
            f"closure(strands={w.strand_count}; {' '.join(map(str, w.letters))})" for w, _ in corpus
        ]
        # built again one by one in word order, from the survey's chain
        for result, (word, d) in zip(batch, corpus):
            alone = process_record(LinkRecord(name=result.name, braid=word, closure=d), run_tests=True)
            assert {**result.to_dict(), "timing_ms": 0} == {**alone.to_dict(), "timing_ms": 0}


class TestPerRecordIsolation:
    def test_malformed_rows_do_not_abort(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text(
            "{}\nthis is not a diagram\nstrands=2; 1 1\n".format(TREFOIL_PD)
        )
        code = main(["compute", "--file", str(path), "--format", "record",
                     "--out", str(tmp_path / "out.jsonl")])
        assert code == 1  # the bad row is a hard error, but ...
        lines = (tmp_path / "out.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3  # ... every row still yields a record
        good = [json.loads(line) for line in lines]
        assert good[0]["error"] is None
        assert good[1]["error"] is not None
        assert good[2]["error"] is None

    def test_malformed_line_is_an_error_record(self):
        records = records_from_lines(
            ["strands=2; 1 1 1", "this is not a diagram", "strands=2; 1 1"]
        )
        assert len(records) == 3
        bad = records[1]
        assert bad.error.startswith("input parse error: ")
        assert "expected 'strands=<n>; <letters>'" in bad.error
        batch = cmd_compute(records, want=frozenset({"jones"}))
        assert [r.error for r in batch] == [None, bad.error, None]
        assert [r.source for r in batch] == ["braid"] * 3
        assert batch.results[0].invariants["jones"] == "t + t^3 - t^4"
        assert batch.results[1].invariants == {}
        assert batch.results[2].invariants["jones"] == "-t^(1/2) - t^(5/2)"

    def test_csv_row_with_no_parsable_cell_is_an_error_record(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(
            "Name,Jones,Conway\n"
            "bad,wibble wobble,\n"
            "good,t + t^3 - t^4,1 + z^2\n"
        )
        records = ingest_csv(str(path), {"name": "Name", "jones": "Jones", "conway": "Conway"})
        assert [r.name for r in records] == ["bad", "good"]
        bad = records[0]
        assert bad.jones is None and bad.conway is None and bad.flags == []
        assert bad.error.startswith("row unusable: jones: cell parse error: ")
        batch = cmd_test(records)
        assert batch.results[0].error == bad.error
        assert batch.results[0].source == "invariants"
        assert batch.results[0].reports == []
        assert batch.results[1].error is None
        assert len(batch.results[1].reports) == 2

    def test_csv_row_with_only_components_is_an_error_record(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        path.write_text(
            "Name,Jones,Components\n"
            "count only,,2\n"
            "count and bad jones,wibble wobble,2\n"
            "good,t + t^3 - t^4,1\n"
        )
        records = ingest_csv(str(path), {"name": "Name", "jones": "Jones", "components": "Components"})
        assert [r.name for r in records] == ["count only", "count and bad jones", "good"]
        assert records[0].error == "row unusable: no diagram and no invariants"
        assert records[1].error.startswith("row unusable: jones: cell parse error: ")
        assert records[2].error is None and records[2].components == 1
        batch = cmd_test(records)
        assert [r.error for r in batch.results[:2]] == [records[0].error, records[1].error]
        assert batch.results[2].error is None
        # the command reports the bad rows instead of aborting the run
        code = main(["test", "--file", str(path), "--columns", "name=Name,jones=Jones,components=Components"])
        assert code == 1
        assert "row unusable: no diagram and no invariants" in capsys.readouterr().out

    def test_record_without_input_or_error_is_rejected(self):
        with pytest.raises(ValueError):
            LinkRecord(name="empty")

    def test_unexpected_exception_does_not_abort(self, monkeypatch):
        import poslink.batch

        real_jones = poslink.batch.jones_V

        def flaky_jones(d, **kwargs):
            if d.crossing_count == 2:
                raise RuntimeError("boom")
            return real_jones(d, **kwargs)

        monkeypatch.setattr(poslink.batch, "jones_V", flaky_jones)
        records = [
            LinkRecord(name=text, braid=parse_braid(text))
            for text in ("strands=2; 1 1 1", "strands=2; 1 1", "strands=3; 1 2 1 2")
        ]
        batch = cmd_compute(records, want=frozenset({"jones"}))
        assert [r.error for r in batch] == [None, "RuntimeError: boom", None]
        assert batch.results[0].invariants["jones"] == "t + t^3 - t^4"
        assert batch.results[2].invariants["jones"] == "t + t^3 - t^4"
        assert not batch.all_ok


class TestSelfChecks:
    """Invariants computed from one diagram are cross-checked before any
    verdict: V(t^(1/2) = i) = nabla(-2i), and chi(Kh) = (q + q^-1) V."""

    def records(self):
        return [
            LinkRecord(name="trefoil", pd=parse_pd(TREFOIL_PD)),
            LinkRecord(name="hopf", braid=parse_braid("strands=2; 1 1")),
            LinkRecord(name="mixed", braid=parse_braid("strands=3; 1 -2 1 -2 -2")),
        ]

    def test_consistent_invariants_pass(self):
        assert cmd_test(self.records()).all_ok

    def test_identities_hold_on_random_diagrams(self):
        rng = random.Random(3)
        for _ in range(30):
            d = polygon_diagram(rng, max_crossings=8)
            computed = {"jones": jones_V(d), "conway": conway(d), "kh": khovanov_homology(d)}
            assert _self_check(computed) is None, d

    def test_wrong_conway_is_the_record_error(self, monkeypatch):
        import poslink.batch

        # 1 + 4z^2 is the Conway polynomial of 7_4, not of the trefoil
        monkeypatch.setattr(poslink.batch, "conway", lambda d: parse_poly("1 + 4z^2", "z"))
        result = cmd_test(self.records()[:1]).results[0]
        assert result.error == (
            "self-check: V(t^(1/2) = i) = (-3, 0) but nabla(-2i) = (-15, 0) (real, imaginary)"
        )
        assert result.reports == [] and result.comparison is None
        # nothing to compare against without the Jones polynomial
        assert cmd_compute(self.records()[:1], want=frozenset({"conway"})).all_ok

    def test_wrong_khovanov_homology_is_the_record_error(self, monkeypatch):
        import poslink.batch

        hopf_kh = poslink.batch.khovanov_homology(braid_closure(parse_braid("strands=2; 1 1")))
        monkeypatch.setattr(poslink.batch, "khovanov_homology", lambda d, **kw: hopf_kh)
        results = cmd_test(self.records()).results
        expected = "self-check: the Euler characteristic of Kh is not (q + q^-1) V"
        assert [r.error for r in results] == [expected, None, expected]
        assert results[0].reports == [] and results[1].reports


class TestPositiveCertificates:
    """On a positive diagram the computed invariants must agree with what
    c and s_A fix: min deg V, deg nabla, the signs of nabla's coefficients
    and j_lower.  A disagreement is the record's error."""

    TREFOIL_KH_WITHOUT_LOWEST = "q^3 + t^2 q^5 + t^3 q^9 + t^3 q^7 T^2"

    @pytest.mark.parametrize("layer, value, want, expected", [
        ("jones_V", parse_poly("t^2 + t^4 - t^5", "t"), "jones",
         "positive diagram: min deg V = 2 but (c - s_A + 1)/2 = 1"),
        ("conway", parse_poly("1 + z^4", "z"), "conway",
         "positive diagram: deg nabla = 4 but c - s_A + 1 = 2"),
        ("conway", parse_poly("1 - z^2", "z"), "conway",
         "positive diagram: nabla has a negative coefficient"),
        ("khovanov_homology", TREFOIL_KH_WITHOUT_LOWEST, "kh",
         "positive diagram: j_lower = 3 but c - s_A = 1"),
    ])
    def test_violation_is_the_record_error(self, monkeypatch, layer, value, want, expected):
        import poslink.batch
        from poslink import parse_kh_polynomial

        if layer == "khovanov_homology":
            value = parse_kh_polynomial(value)
        monkeypatch.setattr(poslink.batch, layer, lambda d, **kw: value)
        trefoil = LinkRecord(name="trefoil", pd=parse_pd(TREFOIL_PD))
        assert cmd_compute([trefoil], want=frozenset({want})).results[0].error == expected
        # the same values on a diagram with a negative crossing are no error
        mixed = LinkRecord(name="mixed", braid=parse_braid("strands=2; 1 1 1 1 -1"))
        assert cmd_compute([mixed], want=frozenset({want})).results[0].error is None

    def test_each_diagram_fact_is_computed_once(self, monkeypatch):
        import poslink.diagram

        calls: Counter = Counter()
        for name in ("_contraction_order", "CrossingSigns", "state_circles"):
            def counted(*args, _name=name, _fn=getattr(poslink.diagram, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(poslink.diagram, name, counted)
        record = LinkRecord(name="t", braid=parse_braid("strands=3; 1 2 1 2 1 2 2"))
        result = process_record(record, run_tests=True)
        assert result.error is None and len(result.reports) == 3
        assert calls == {"_contraction_order": 1, "CrossingSigns": 1, "state_circles": 2}

    def test_positive_polygon_corpus(self):
        # switched polygon diagrams reach gamma != 0, which no positive
        # braid closure of the 4x9 survey does
        gammas = Counter()
        for seed in range(150):
            d = polygon_diagram(random.Random(seed), max_crossings=10, positive=True)
            assert is_positive(d), seed
            result = process_record(LinkRecord(name=str(seed), pd=d), run_tests=True)
            assert result.error is None, (seed, result.error)
            assert all(r.verdict is not Verdict.FAIL for r in result.reports), seed
            gammas.update(r.gamma for r in result.reports if r.applicable)
        assert set(gammas) - {0}, gammas


# found among random signed braids: p1 = 0 and j_lower = 1, two below
# 2 min deg V - 1, as for 12n749
KH_BEATS_JONES = "strands=4; -2 -3 1 2 2 3 3 -1 2 -3 1"
KH_BEATS_JONES_KH = (
    "(1 + t)q + q^3 + (2t^2 + t^3)q^5 + t^4 q^7 + (t^3 + t^4)q^9 + (t^5 + t^6)q^11"
    " + t^7 q^15 + t^2 q^3 T^2 + t^3 q^7 T^2 + t^4 q^7 T^2 + t^5 q^9 T^2 + t^7 q^13 T^2"
)


# a 12-crossing two-component link from the same search: V = -t^(7/2) -
# t^(11/2), so p1 = 0, and Kh reaches q^0 while (q + q^-1)V starts at q^6
KH_BEATS_JONES_LINK = "strands=4; -1 3 -2 3 2 -3 1 -3 -3 1 3 2"
KH_BEATS_JONES_LINK_KH = (
    "(1 + t)q^0 + (1 + t)q^2 + (t^2 + t^3)q^4 + t^2 q^6 + t^4 q^8 + t^6 q^10"
    " + t^6 q^12 + t^4 q^6 T^2"
)


class TestKhBeatsJones:
    """Diagrams whose Khovanov inequality certifies that they are not
    positive, while their Jones inequality holds: the paper's claim on
    computed diagrams, not ingested tables."""

    @staticmethod
    def khovanov_only_fails(word: str) -> tuple[dict[str, str], dict]:
        """The record's invariants and each test's (lhs, rhs, verdict)."""
        result = process_record(LinkRecord(name="s", braid=parse_braid(word)), run_tests=True)
        assert result.error is None and not result.flags
        assert result.comparison is Strength.KHOVANOV_ONLY_FAILS
        return result.invariants, {r.test.value: (r.lhs, r.rhs, r.verdict) for r in result.reports}

    def test_khovanov_only_fails(self):
        invariants, verdicts = self.khovanov_only_fails(KH_BEATS_JONES)
        assert invariants["jones"] == "t^2 + t^4 - t^5 + t^6 - t^7"
        assert invariants["conway"] == "1 + 3z^2 + z^4"
        assert invariants["kh"] == KH_BEATS_JONES_KH
        assert verdicts["JonesTest"] == (7, 8, Verdict.PASS)
        assert verdicts["KhovanovTest"] == (15, 9, Verdict.FAIL)
        # the full cube, each map reduced on its own, gives the same table
        kh = per_map_homology(braid_closure(parse_braid(KH_BEATS_JONES)))
        assert format_kh_polynomial(kh) == KH_BEATS_JONES_KH

    def test_khovanov_only_fails_on_a_link(self):
        # the link's full-cube check takes about 5 s: CI runs it in a step
        # of its own
        invariants, verdicts = self.khovanov_only_fails(KH_BEATS_JONES_LINK)
        assert invariants["jones"] == "-t^(7/2) - t^(11/2)"
        assert invariants["conway"] == "3z + z^3"
        assert invariants["kh"] == KH_BEATS_JONES_LINK_KH
        assert verdicts == {
            "JonesTest": (Fraction(11, 2), Fraction(29, 2), Verdict.PASS),
            "KhovanovTest": (12, 6, Verdict.FAIL),
            "KhovanovFromKh1": (12, 8, Verdict.FAIL),
        }


class TestCli:
    def test_skein_budget_option_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--braid", "strands=2; 1 1", "--skein-budget", "5"])
        assert exc.value.code == 2

    def test_compute_text(self, capsys):
        code = main(["compute", "--pd", TREFOIL_PD, "--all"])
        out = capsys.readouterr().out
        assert code == 0
        assert "jones: t + t^3 - t^4" in out
        assert "conway: 1 + z^2" in out
        assert "t^3 q^7 T^2" in out
        assert "j_lower=1" in out and "j_upper=9" in out

    def test_parser_is_built_once_and_keeps_no_input(self, capsys):
        # the second call gives no --pd: the first call's must not leak
        assert main(["compute", "--pd", TREFOIL_PD, "--jones"]) == 0
        assert main(["compute", "--braid", "strands=2; 1 1", "--jones"]) == 0
        out = capsys.readouterr().out
        assert out.count("== ") == 2 and out.count("source: pd") == 1
        assert _build_parser() is _build_parser()
        assert _build_parser().parse_args(["compute"]).pd == []

    def test_compute_selection(self, capsys):
        code = main(["compute", "--braid", "strands=2; 1 1", "--jones"])
        out = capsys.readouterr().out
        assert code == 0
        assert "jones: -t^(1/2) - t^(5/2)" in out
        assert "conway:" not in out

    def test_test_subcommand(self, capsys):
        code = main([
            "test", "--file", KNOTS_CSV, "--columns", COLUMNS_FLAG,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "comparison: KhovanovOnlyFails" in out
        assert "verdict: Fail" in out

    @pytest.mark.parametrize("word", [
        "strands=4; " + " ".join(["1 2 3"] * 5),  # T(4,5): Z/4
        "strands=5; " + " ".join(["1 2 3 4"] * 6),  # T(5,6): Z/3, Z/10
    ])
    def test_odd_torsion_reads_back_through_test(self, word, tmp_path):
        computed = tmp_path / "computed.jsonl"
        assert main([
            "compute", "--braid", word, "--jones", "--kh",
            "--format", "record", "--out", str(computed),
        ]) == 0
        invariants = json.loads(computed.read_text())["invariants"]
        table = tmp_path / "table.csv"
        table.write_text(f'Name,Jones,Kh\nk,{invariants["jones"]},{invariants["kh"]}\n')
        tested = tmp_path / "tested.jsonl"
        assert main([
            "test", "--file", str(table), "--columns", "name=Name,jones=Jones,kh=Kh",
            "--format", "record", "--out", str(tested),
        ]) == 0
        record = json.loads(tested.read_text())
        assert record["flags"] == [] and record["error"] is None
        assert record["invariants"]["kh"] == invariants["kh"]
        assert record["reports"]

    def test_ingest_subcommand(self, capsys):
        code = main(["ingest", "--file", KNOTS_CSV, "--columns", COLUMNS_FLAG])
        assert code == 0

    def test_test_on_20_crossings(self, capsys):
        # T(3,10): Jones comes from the linear-time bracket, and Khovanov
        # homology from a build that holds at most 38 objects
        code = main(["test", "--braid", "strands=3; " + " ".join(["1 2"] * 10)])
        out = capsys.readouterr().out
        assert code == 0
        assert "jones: t^9 + t^11 - t^20" in out
        assert "test: JonesTest\n  applicable: true" in out
        assert "\nkh: q^17 + q^19 + " in out
        assert "test: KhovanovTest\n  applicable: true" in out
        assert "skipped" not in out

    def test_survey_subcommand(self, capsys):
        code = main(["survey", "--strands", "2", "--max-length", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "closure(strands=2; 1 1 1)" in out

    @pytest.mark.parametrize(
        "args",
        [["--strands", "1"], ["--strands", "-2"], ["--max-length", "0"]],
    )
    def test_survey_that_enumerates_nothing_is_a_usage_error(self, args, capsys):
        # these ranges hold no braid word, so a run would print nothing and pass
        with pytest.raises(SystemExit) as exc:
            main(["survey", *args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "survey needs" in captured.err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["compute", "--braid", "strands=2; 1 1 1", "--kh", "--cap", "18"],
             "unrecognized arguments: --cap 18"),
            (["compute", "--braid", "strands=2; 1 1 1", "--jobs", "0"], "--jobs must"),
            (["test", "--braid", "strands=2; 1 1 1", "--jobs", "-3"], "--jobs must"),
            (["survey", "--max-length", "2", "--jobs", "2"], "--jobs must"),
        ],
    )
    def test_negative_cap_or_no_jobs_is_a_usage_error(self, args, message, capsys):
        # homology has no crossing cap to set, and any --jobs but 1 would
        # ask for workers that no longer exist
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_non_planar_code_exits_1(self, capsys):
        code = main(["compute", "--pd", "PD[X[1,2,3,4],X[2,3,4,1]]", "--jones", "--kh"])
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.out.splitlines()
        # the record reports the role its text was read as
        assert lines[1:3] == ["source: pd", "error: input parse error: PD code is not planar"]
        assert "jones:" not in captured.out

    def test_malformed_braid_is_a_record_error(self, capsys):
        # as for a malformed line of a --file, the good record still prints
        code = main(["compute", "--jones", "--braid", "strands=2; 1 1 1",
                     "--braid", "strands=2; 5"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines() == [
            "== strands=2; 1 1 1 ==",
            "source: braid",
            "jones: t + t^3 - t^4",
            "unnormalized_jones: q + q^3 + q^5 - q^9",
            "",
            "== strands=2; 5 ==",
            "source: braid",
            "error: input parse error: letter 5 needs at least 6 strands, have 2",
        ]

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unwritable_out_exits_1(self, where, tmp_path, capsys):
        path = tmp_path / "missing" / "x" if where == "missing" else tmp_path
        code = main(["compute", "--jones", "--braid", "strands=2; 1 1 1", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"poslink: cannot write {path}: ")
        assert "Traceback" not in captured.err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["compute"])  # no input given
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unreadable_file_exit_1(self, capsys):
        assert main(["compute", "--file", "/no/such/file"]) == 1

    def test_free_circles_are_not_crossings(self, capsys):
        # 1 crossing and 16 free circles: the circles are tensored in after
        # the build, so the builder never holds their 2^16 states
        assert main(["compute", "--kh", "--braid", "strands=18; 1"]) == 0
        out = capsys.readouterr().out
        assert "kh: q^-17 + 17 q^-15 + 136 q^-13" in out and "skipped" not in out

    @pytest.mark.parametrize(
        "content, args, where",
        [
            (b"Name,Jones\nk,t + t^3 - t^4\nbad,t\xff\n",
             ["test", "--columns", "name=Name,jones=Jones"], "byte offset 32 is not UTF-8"),
            (b"strands=2; 1 1 1\nstrands=2; 1\xfe\n",
             ["compute", "--jones"], "byte offset 29 is not UTF-8"),
            (b"Name,Jones\nbig," + b"t" * 140000 + b"\n",
             ["test", "--columns", "name=Name,jones=Jones"], "line 2: field larger than"),
            # the offset counts the byte-order mark, as a hex dump shows it
            (BOM + b"strands=2; 1 1 1\nstrands=2; 1\xfe\n",
             ["compute", "--jones"], "byte offset 32 is not UTF-8"),
        ],
        ids=["csv-byte", "lines-byte", "csv-field", "bom-byte"],
    )
    def test_bad_input_bytes_exit_1(self, tmp_path, capsys, content, args, where):
        path = tmp_path / "input"
        path.write_bytes(content)
        assert main([*args, "--file", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"poslink: cannot read {path}: {where}")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "content, args, expected",
        [
            (BOM + b"Name,Jones\nk,t + t^3 - t^4\n",
             ["ingest", "--columns", "name=Name,jones=Jones"], ["== k ==", "source: invariants"]),
            (BOM + b"strands=2; 1 1 1\n",
             ["compute", "--jones"], ["source: braid", "jones: t + t^3 - t^4"]),
        ],
        ids=["csv", "lines"],
    )
    def test_byte_order_mark_is_not_input(self, tmp_path, capsys, content, args, expected):
        # spreadsheet "CSV UTF-8" exports and Notepad files begin with one
        path = tmp_path / "input"
        path.write_bytes(content)
        assert main([*args, "--file", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line in lines for line in expected), lines

    def test_record_format_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (out1, out2):
            # --jobs 1 as the benchmark's worker passes it
            code = main([
                "test", "--file", KNOTS_CSV, "--columns", COLUMNS_FLAG,
                "--format", "record", "--jobs", "1", "--out", str(out),
            ])
            assert code == 0

        def stripped(path):
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            for row in rows:
                row.pop("timing_ms")
            return json.dumps(rows, sort_keys=True)

        assert stripped(out1) == stripped(out2)

    def test_record_schema(self, tmp_path):
        out = tmp_path / "r.jsonl"
        main(["compute", "--pd", TREFOIL_PD, "--format", "record", "--out", str(out)])
        row = json.loads(out.read_text().splitlines()[0])
        assert row["schema"] == "poslink.record/1"
        assert row["invariants"]["jones"] == "t + t^3 - t^4"
