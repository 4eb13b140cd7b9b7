from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import poslink


def test_every_export_resolves():
    assert [name for name in poslink.__all__ if not hasattr(poslink, name)] == []
    assert len(set(poslink.__all__)) == len(poslink.__all__)


def test_exports_are_the_56_names():
    # the table in __init__ names each export once; this list pins it
    assert set(poslink.__all__) == {
        "BatchResult", "BigradedGroups", "BraidWord", "ChainSlice", "CrossingSigns", "Diagram",
        "GradingSummary", "JonesSummary", "LaurentPoly", "LinkRecord", "ObstructionInput",
        "ObstructionReport", "RecordResult", "Strength", "TestKind", "Verdict",
        "a_state_circles", "all_a_state", "all_b_state", "b_state_circles", "braid_closure",
        "chain_slices", "cmd_compute", "cmd_survey", "cmd_test", "components", "conway",
        "crossing_signs", "euler_characteristic", "extreme_gradings", "format_kh_polynomial",
        "format_poly", "gamma", "ingest_csv", "is_positive", "jones_summary", "jones_test",
        "jones_V", "kauffman_bracket", "kh1_rank", "khovanov_homology", "khovanov_test",
        "khovanov_test_from_kh1", "lead_coeff_conway", "lickorish_bounds", "parse_braid",
        "parse_kh_polynomial", "parse_pd", "parse_poly", "positive_braid_words",
        "state_circles", "strength_comparison", "survey_corpus", "unnormalized_to_v",
        "v_to_unnormalized", "writhe",
    }


def test_star_import():
    namespace: dict = {}
    exec("from poslink import *", namespace)
    assert set(poslink.__all__) <= set(namespace)


def test_exports_are_the_submodules_own_objects():
    # a deferred export must resolve to the object its submodule defines,
    # never to a forwarding stand-in
    for name in poslink.__all__:
        obj = getattr(poslink, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("poslink."), name
        assert getattr(home, name) is obj, name
        if inspect.isfunction(obj):
            assert obj.__code__.co_name == name, name


def test_dir_lists_every_export_before_it_is_loaded():
    # in a fresh interpreter: this session has loaded every export already
    script = "import poslink; print(sorted(set(poslink.__all__) - set(dir(poslink))))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(Path(poslink.__file__).parent.parent)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unknown_attribute_is_an_attribute_error():
    assert not hasattr(poslink, "no_such_export")
