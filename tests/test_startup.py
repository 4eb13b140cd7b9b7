"""Each command loads only the layers its records use.

Every check runs in a fresh interpreter, because this test session has
long since imported the whole package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
KNOTS = Path(__file__).resolve().parent / "data" / "knots.csv"
# no kh column: the homology and the obstruction tests are first loaded
# by the records, from the pool's threads when --jobs is above 1
KNOTS_COLUMNS = (
    "name=Name,components=Components,pd=PD Notation,braid=Braid Notation,"
    "jones=Jones,conway=Conway"
)
HEAVY = {"poslink.khovanov", "poslink.tangle", "poslink.snf", "poslink.obstruction"}
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
    "modules": sorted(m for m in sys.modules if m.startswith("poslink")),
    "output": out.getvalue(),
    "calls": calls,
}))
""" % WRAPPED


def run_fresh(*commands: list[str]) -> dict:
    """``cli.main`` on each argv in a new interpreter: the poslink modules
    loaded afterwards, everything the commands wrote, and the calls made
    through the ``WRAPPED`` names of ``poslink.batch``."""
    proc = subprocess.run(
        [sys.executable, "-c", RUN_COMMANDS, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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


def test_deferred_bindings_are_looked_up_at_every_call():
    run = run_fresh(["test", "--braid", "strands=2; 1 1 1", "--braid", "strands=3; 1 2 1 2"])
    assert run["calls"] == {name: 2 for name in WRAPPED}


def test_threads_load_deferred_layers_like_one_thread():
    def records(jobs: int) -> list[dict]:
        argv = ["test", "--file", str(KNOTS), "--columns", KNOTS_COLUMNS,
                "--format", "record", "--jobs", str(jobs)]
        run = run_fresh(argv)
        assert HEAVY <= set(run["modules"])
        out = [json.loads(line) for line in run["output"].splitlines()]
        for record in out:
            del record["timing_ms"]
        return out

    serial = records(1)
    assert len(serial) == 4
    assert sum(1 for r in serial if r["reports"]) >= 2
    assert records(2) == serial
