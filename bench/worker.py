"""One round of a workload in a fresh process; prints one JSON line.

    python3 bench/worker.py --workload W --seed N --mode round|traced|setup

``round`` runs the workload untraced and reports its wall time, set-up time
and peak resident memory; ``traced`` runs it under the span tracer and
writes the spans to ``bench/out``; ``setup`` stops as soon as the first
record starts and reports only the set-up time.  The workload's records go
to ``bench/out`` for the parent to check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# The first of these calls marks the end of set-up: the survey's corpus
# pass, or the first record of a compute batch.
FIRST_RECORD_HOOKS = ("survey_corpus", "process_record")


# CPU speed on a shared machine drifts by tens of percent over seconds to
# minutes.  A fixed pure-Python loop is timed every SAMPLE_PERIOD_S during
# each round, on the same core and thread as the workload, and the round
# time is scaled by REFERENCE_LOOP_S / (median loop time).
SAMPLE_PERIOD_S = 0.25
REFERENCE_LOOP_S = 0.0015


class SetupDone(Exception):
    """Raised in setup mode when the first record starts."""


def reference_loop() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - start


class SpeedSampler:
    """Times ``reference_loop`` on entry, from a SIGALRM handler while
    active, and on exit, so even a short round has samples."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __enter__(self) -> "SpeedSampler":
        self.samples.append(reference_loop())
        signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(reference_loop()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(reference_loop())


def mark_first_record(batch, clock: dict, stop: bool) -> None:
    originals = {name: getattr(batch, name) for name in FIRST_RECORD_HOOKS
                 if callable(getattr(batch, name, None))}
    if not originals:
        raise SystemExit(f"poslink.batch has none of {FIRST_RECORD_HOOKS}; "
                         "set-up time cannot be measured")

    def hook(name):
        def first(*args, **kwargs):
            clock.setdefault("first_record", time.perf_counter())
            for other, fn in originals.items():
                setattr(batch, other, fn)
            if stop:
                raise SetupDone
            return originals[name](*args, **kwargs)

        return first

    for name in FIRST_RECORD_HOOKS:
        setattr(batch, name, hook(name))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("round", "traced", "setup"), required=True)
    args = ap.parse_args()
    wl = workloads.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    clock: dict[str, float] = {}

    sampler = SpeedSampler()
    with contextlib.ExitStack() as stack:
        if args.mode != "setup":
            stack.enter_context(sampler)
        t0 = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import poslink
        from poslink import batch, cli

        if not Path(poslink.__file__).resolve().is_relative_to(SRC):
            print(f"imported poslink from {poslink.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        tr = None
        if args.mode == "traced":
            tr = tracer.Tracer()
            tr.install()
        else:
            mark_first_record(batch, clock, stop=args.mode == "setup")

        exit_codes = []
        outputs = []
        for index, argv in enumerate(wl.commands):
            out = OUT / f"records-{wl.name}-s{wl.seed}-{index}.jsonl"
            argv = argv + ["--format", "record", "--jobs", "1", "--out", str(out)]
            try:
                if tr is not None:
                    code = tr.call(tracer.ROOT, cli.main, argv)
                else:
                    code = cli.main(argv)
            except SetupDone:
                break
            exit_codes.append(code)
            outputs.append(str(out))
        wall = time.perf_counter() - t0

    report: dict[str, object] = {"wall_s": wall}
    if sampler.samples:
        report["speed"] = REFERENCE_LOOP_S / statistics.median(sampler.samples)
        report["speed_samples"] = len(sampler.samples)
    if "first_record" in clock:
        report["setup_s"] = clock["first_record"] - t0
    if args.mode != "setup":
        report["exit_codes"] = exit_codes
        report["outputs"] = outputs
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tr is not None:
        values, missing = tr.metrics()
        report["layers"] = values
        report["missing"] = missing
        (OUT / f"trace-{wl.name}-s{wl.seed}.json").write_text(json.dumps({
            "workload": wl.name,
            "seed": wl.seed,
            "wall_s": wall,
            "spans": tr.spans,
            "counters": tr.counters,
            "missing": missing,
        }))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
