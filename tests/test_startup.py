"""Each command loads only the layers its records use, and no module that
generates class code.

Every check runs in a fresh interpreter, because this test session has
long since imported the whole package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
KNOTS = Path(__file__).resolve().parent / "data" / "knots.csv"
# no kh column: the homology and the obstruction tests are first loaded
# by the records, once the first diagram needs them
KNOTS_COLUMNS = (
    "name=Name,components=Components,pd=PD Notation,braid=Braid Notation,"
    "jones=Jones,conway=Conway"
)
HEAVY = {"poslink.khovanov", "poslink.tangle", "poslink.snf", "poslink.obstruction"}
# the polynomial layers, and the rationals that their degrees use
POLYNOMIAL = {"poslink.laurent", "poslink.burau", "poslink.seifert", "fractions"}
# ``dataclasses`` writes and execs source for every class it decorates, and
# imports ``inspect`` (with ``ast``, ``dis`` and ``tokenize``) to do it
CLASS_CODEGEN = {"dataclasses", "inspect"}
# the benchmark's tracer wraps poslink.batch.<name> before the first record:
# every call must still reach the wrapper once the module behind it loads
WRAPPED = ["khovanov_homology", "extreme_gradings", "ObstructionInput", "jones_test"]

RUN_COMMANDS = """
import contextlib, io, json, sys
from poslink import batch, cli
calls = {}
def counting(name, fn):
    def call(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    return call
for name in %r:
    setattr(batch, name, counting(name, getattr(batch, name)))
out = io.StringIO()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, (argv, code)
print(json.dumps({
    "modules": sorted(sys.modules),
    "output": out.getvalue(),
    "calls": calls,
}))
""" % WRAPPED


def python_fresh(script: str, *args: str) -> str:
    """What ``script`` prints, run with ``args`` in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_fresh(*commands: list[str]) -> dict:
    """``cli.main`` on each argv in a new interpreter: the modules loaded
    afterwards, everything the commands wrote, and the calls made
    through the ``WRAPPED`` names of ``poslink.batch``."""
    return json.loads(python_fresh(RUN_COMMANDS, json.dumps(commands)))


def test_polynomials_load_no_homology_and_no_obstruction():
    run = run_fresh(
        ["compute", "--braid", "strands=2; 1 1 1", "--jones"],
        ["compute", "--braid", "strands=3; 1 -2 1 -2", "--conway"],
    )
    assert "poslink.cli" in run["modules"]
    assert HEAVY.isdisjoint(run["modules"])
    assert "jones: " in run["output"] and "conway: " in run["output"]


def test_homology_loads_no_obstruction():
    run = run_fresh(["compute", "--braid", "strands=2; 1 1 1", "--kh"])
    assert "poslink.khovanov" in run["modules"]
    assert "poslink.obstruction" not in run["modules"]


def test_homology_loads_no_polynomial_layer():
    run = run_fresh([
        "compute", "--kh", "--braid", "strands=2; 1 1 1",
        "--pd", "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]",
    ])
    assert "poslink.khovanov" in run["modules"]
    assert POLYNOMIAL.isdisjoint(run["modules"])
    assert run["output"].count("kh: q + q^3 + t^2 q^5") == 2


def test_contraction_engine_loads_with_the_bracket_or_the_builder():
    # import poslink alone loads neither of the engine's two users
    assert "poslink.contraction" not in run_fresh()["modules"]
    for flag in ("--jones", "--kh"):
        run = run_fresh(["compute", "--braid", "strands=2; 1 1 1", flag])
        assert "poslink.contraction" in run["modules"], flag


def test_jones_loads_no_seifert_module():
    run = run_fresh(["compute", "--braid", "strands=2; 1 1 1", "--jones"])
    assert "poslink.laurent" in run["modules"]
    assert "poslink.seifert" not in run["modules"]
    assert "jones: t + t^3 - t^4" in run["output"]


def test_braid_conway_and_survey_load_no_seifert_module():
    # braid closures take the reduced Burau route, short words on many
    # strands too: 1 1 2 3 3 is two Hopf links
    run = run_fresh(
        ["compute", "--conway", "--braid", "strands=3; 1 -2 1 -2", "--braid", "strands=2; 1 1",
         "--braid", "strands=4; 1 1 2 3 3"],
        ["survey", "--strands", "4", "--max-length", "5"],
    )
    assert "poslink.burau" in run["modules"]
    assert "poslink.seifert" not in run["modules"]
    assert "conway: 1 - z^2" in run["output"] and "conway: z\n" in run["output"]
    assert "conway: z^2\n" in run["output"]


def test_pd_conway_loads_the_seifert_module():
    run = run_fresh(["compute", "--conway", "--pd", "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"])
    assert {"poslink.burau", "poslink.seifert"} <= set(run["modules"])
    assert "conway: 1 + z^2" in run["output"]


@pytest.mark.parametrize("first", [
    "import poslink.seifert, poslink.burau",
    # the batch layer loads the modules through its own stand-in: the
    # Burau route for the braid closure, the Seifert route for the PD code
    "from poslink import batch, braid_closure, parse_braid, parse_pd;"
    " batch.conway(braid_closure(parse_braid('strands=2; 1 1 1')));"
    " batch.conway(parse_pd('PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]'))",
], ids=["import", "batch"])
def test_conway_stays_the_function_once_its_module_is_loaded(first):
    script = first + """
import inspect, sys
import poslink
assert {"poslink.burau", "poslink.seifert"} <= set(sys.modules)
assert inspect.isfunction(poslink.conway), poslink.conway
assert poslink.conway is sys.modules["poslink.burau"].conway
from poslink import conway
assert conway is poslink.conway
print("ok")
"""
    assert python_fresh(script) == "ok\n"


def test_ingested_polynomials_load_no_homology():
    # Jones and Conway cells only: the obstruction tests run, but no record
    # has a diagram or a kh cell, so nothing computes or reads homology
    run = run_fresh(["test", "--file", str(KNOTS), "--columns", "name=Name,jones=Jones,conway=Conway"])
    assert "poslink.obstruction" in run["modules"]
    assert {"poslink.khovanov", "poslink.tangle", "poslink.snf"}.isdisjoint(run["modules"])
    assert "verdict: " in run["output"]


def test_deferred_bindings_are_looked_up_at_every_call():
    run = run_fresh(["test", "--braid", "strands=2; 1 1 1", "--braid", "strands=3; 1 2 1 2"])
    assert run["calls"] == {name: 2 for name in WRAPPED}


def test_table_records_load_deferred_layers():
    run = run_fresh(["test", "--file", str(KNOTS), "--columns", KNOTS_COLUMNS, "--format", "record"])
    assert HEAVY <= set(run["modules"])
    records = [json.loads(line) for line in run["output"].splitlines()]
    assert len(records) == 4
    assert sum(1 for r in records if r["reports"]) >= 2


@pytest.mark.parametrize("commands", [
    [],  # import poslink.cli alone
    [["compute", "--braid", "strands=2; 1 1 1", "--kh"]],
    [["test", "--braid", "strands=3; 1 2 1 2"]],
    [["survey", "--strands", "2", "--max-length", "3"]],
], ids=["import", "compute-kh", "test", "survey"])
def test_no_class_code_is_generated(commands):
    run = run_fresh(*commands)
    assert "poslink.cli" in run["modules"]
    assert CLASS_CODEGEN.isdisjoint(run["modules"])
