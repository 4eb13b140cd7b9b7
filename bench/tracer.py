"""Per-layer tracing from outside the program.

Each hook replaces a poslink function in the module namespace where its
caller looks it up (``poslink.khovanov.snf_divisors`` is what
``khovanov_homology`` calls), records a span (name, start, end, parent)
around every call, and optionally adds counts read off the arguments and
the result.  Spans stay in memory until the round ends.  A hook whose
target no longer exists, or whose count cannot be read, marks the metrics
that depend on it as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable

ROOT = "cli.main"


def _cube_counts(args, kwargs, result) -> dict[str, int]:
    d = args[0] if args else kwargs["d"]
    generators = cells = 0
    for sl in result.values():
        counts = sl.generator_counts
        generators += sum(counts.values())
        cells += sum(n * counts.get(i + 1, 0) for i, n in counts.items())
    return {
        "khovanov.cube_states": 1 << d.crossing_count,
        "khovanov.generators": generators,
        "khovanov.matrix_cells": cells,
    }


def _snf_counts(args, kwargs, result) -> dict[str, int]:
    return {"snf.rank": len(result), "snf.torsion": sum(1 for x in result if x > 1)}


def _bracket_counts(args, kwargs, result) -> dict[str, int]:
    d = args[0] if args else kwargs["d"]
    return {"laurent.bracket_states": 1 << d.crossing_count}


# (module, attribute, span name, counts from (args, kwargs, result))
HOOKS: list[tuple[str, str, str, Callable | None]] = [
    ("poslink.cli", "parse_pd", "diagram", None),
    ("poslink.cli", "parse_braid", "diagram", None),
    ("poslink.batch", "braid_closure", "diagram", None),
    ("poslink.cli", "_emit", "cli.emit", None),
    ("poslink.batch", "survey_corpus", "batch.survey_corpus", None),
    ("poslink.batch", "process_record", "batch.process_record", None),
    ("poslink.batch", "jones_V", "laurent.jones", _bracket_counts),
    ("poslink.batch", "conway", "conway", None),
    ("poslink.batch", "khovanov_homology", "khovanov.homology", None),
    ("poslink.khovanov", "chain_slices", "khovanov.cube", _cube_counts),
    ("poslink.khovanov", "snf_divisors", "snf", _snf_counts),
    ("poslink.batch", "jones_test", "obstruction", None),
    ("poslink.batch", "khovanov_test", "obstruction", None),
    ("poslink.batch", "khovanov_test_from_kh1", "obstruction", None),
    ("poslink.batch", "strength_comparison", "obstruction", None),
]

# counter names each count function adds to
COUNTERS: dict[Callable, tuple[str, ...]] = {
    _cube_counts: ("khovanov.cube_states", "khovanov.generators", "khovanov.matrix_cells"),
    _snf_counts: ("snf.rank", "snf.torsion"),
    _bracket_counts: ("laurent.bracket_states",),
}

# generator functions whose yields are counted
YIELD_HOOKS = [("poslink.batch", "positive_braid_words", "batch.survey_words")]

# metric -> (unit, how it is derived, span or counter it needs)
#   "total": summed span durations; "self": summed self times;
#   "calls": number of spans; "count": a counter
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "snf.s": ("s", "total", "snf"),
    "snf.calls": ("count", "calls", "snf"),
    "snf.rank": ("count", "count", "snf.rank"),
    "snf.torsion": ("count", "count", "snf.torsion"),
    "khovanov.cube.s": ("s", "total", "khovanov.cube"),
    "khovanov.cube_states": ("count", "count", "khovanov.cube_states"),
    "khovanov.generators": ("count", "count", "khovanov.generators"),
    "khovanov.matrix_cells": ("count", "count", "khovanov.matrix_cells"),
    "khovanov.homology.self_s": ("s", "self", "khovanov.homology"),
    "laurent.jones.s": ("s", "total", "laurent.jones"),
    "laurent.jones.calls": ("count", "calls", "laurent.jones"),
    "laurent.bracket_states": ("count", "count", "laurent.bracket_states"),
    "conway.s": ("s", "total", "conway"),
    "conway.calls": ("count", "calls", "conway"),
    "batch.survey_corpus.s": ("s", "total", "batch.survey_corpus"),
    "batch.survey_words": ("count", "count", "batch.survey_words"),
    "batch.records": ("count", "calls", "batch.process_record"),
    "batch.process_record.self_s": ("s", "self", "batch.process_record"),
    "obstruction.s": ("s", "total", "obstruction"),
    "obstruction.calls": ("count", "calls", "obstruction"),
    "cli.emit.s": ("s", "total", "cli.emit"),
    "cli.main.self_s": ("s", "self", ROOT),
    "diagram.s": ("s", "total", "diagram"),
}


class Tracer:
    """Span recorder: ``spans`` holds [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.installed: set[str] = {ROOT}
        self.missing: set[str] = set()  # span or counter names
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def _count(self, counter: Callable, args, kwargs, result) -> None:
        try:
            found = counter(args, kwargs, result)
        except (AttributeError, KeyError, TypeError, IndexError):
            # the function's arguments or result changed shape
            self.missing.update(COUNTERS[counter])
            return
        for key, value in found.items():
            self.counters[key] += value

    def install(self) -> None:
        for module_name, attr, name, counter in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            setattr(module, attr, self._wrap(fn, name, counter))
            self.installed.add(name)
            for key in COUNTERS.get(counter, ()):
                self.counters.setdefault(key, 0)
        for module_name, attr, name in YIELD_HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            setattr(module, attr, self._wrap_yields(fn, name))
            self.installed.add(name)

    def _wrap(self, fn: Callable, name: str, counter: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                self._count(counter, args, kwargs, result)
            return result

        return traced

    def _wrap_yields(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counters[name] = self.counters.get(name, 0) + 1
                yield item

        self.counters.setdefault(name, 0)
        return counted

    # -- deriving ----------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Total duration, self time and call count per span name."""
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[index])
            calls[name] = calls.get(name, 0) + 1
        return total, self_time, calls

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer values and the names of metrics that could not be read."""
        total, self_time, calls = self.times()
        values: dict[str, float] = {}
        missing: list[str] = []
        for metric, (_, kind, source) in PER_LAYER.items():
            if kind == "count":
                hooked = source in self.counters
            else:
                hooked = source in self.installed
            if not hooked or source in self.missing:
                missing.append(metric)
                continue
            if kind == "total":
                values[metric] = total.get(source, 0.0)
            elif kind == "self":
                values[metric] = self_time.get(source, 0.0)
            elif kind == "calls":
                values[metric] = calls.get(source, 0)
            else:
                values[metric] = self.counters[source]
        values["trace.layers_self_s"] = sum(
            t for name, t in self_time.items() if name != ROOT
        )
        return values, missing
