"""The benchmark traces poslink from outside: it wraps functions by module
and attribute name.  A rename on the poslink side would silently turn the
benchmark's per-layer metrics into "missing", so the names it hooks are
pinned here.  The bench modules are imported read-only: no bytecode is
written next to them."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from poslink import batch, braid_closure, chain_slices, khovanov, khovanov_homology, parse_braid

BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_MODULES = ("tracer", "worker", "workloads", "oracle")


@pytest.fixture(scope="module")
def bench():
    saved = {name: sys.modules.pop(name) for name in BENCH_MODULES if name in sys.modules}
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracer"), importlib.import_module("worker")
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = dont_write
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def test_hook_targets_are_callable(bench):
    tracer, worker = bench
    targets = [(module, attr) for module, attr, *_ in tracer.HOOKS + tracer.YIELD_HOOKS]
    assert targets
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    for name in worker.FIRST_RECORD_HOOKS:
        assert callable(getattr(batch, name, None)), f"poslink.batch.{name}"


def test_snf_hook_sees_one_call_per_boundary_map(monkeypatch):
    # snf.calls, snf.rank and snf.torsion are read off the calls to
    # poslink.khovanov.snf_divisors and the lengths of their results
    snf_divisors = khovanov.snf_divisors
    results = []

    def counting(*args, **kwargs):
        results.append(snf_divisors(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(khovanov, "snf_divisors", counting)
    d = braid_closure(parse_braid("strands=3; 1 2 1 2 1 2 1 2"))  # T(3,4)
    kh = khovanov_homology(d)
    slices = chain_slices(d).values()
    assert len(results) == sum(len(sl.boundaries) for sl in slices)
    # sum over i of n_i = free rank + 2 * (rank of all boundary maps)
    generators = sum(sum(sl.generator_counts.values()) for sl in slices)
    free = sum(rank for _, (rank, _) in kh.items())
    assert sum(len(r) for r in results) == (generators - free) // 2
    torsion = sum(len(t) for _, (_, t) in kh.items())
    assert torsion > 0
    assert sum(1 for r in results for x in r if x > 1) == torsion
