"""poslink benchmark: run one workload, check every output, print metrics.

    python3 bench/run.py --workload kh_table --seed 1 --seconds 20 --trace 0

Each round runs the whole workload through ``poslink.cli.main`` in a fresh
process (``bench/worker.py``), single-threaded, and this process checks the
records it wrote against ``bench/oracle.py``.  Rounds repeat until
``--seconds`` have passed; every run attempts whole rounds.  The last line
of standard output is one JSON object:

* ``--trace 0``: ``wall_ref_s`` and ``peak_rss_mb`` (medians over rounds)
  and ``setup_s`` (median over the rounds and twelve set-up-only
  processes, half before the rounds and half after).  ``wall_ref_s`` is
  the round's wall time times the CPU speed the worker measured during
  the round, relative to a fixed reference (see ``worker.SpeedSampler``);
  the raw wall time and the speed go to standard error and to the result
  file;
* ``--trace 1``: the per-layer metrics of ``bench/tracer.py`` from traced
  rounds, alternated with untraced ones so the tracing overhead is
  measured in the same run.

A record fails when poslink reports an error on it or a check rejects
it; ``correct`` turns false only when a check rejects a record poslink
reported no error for, or an expected record is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 6  # before the rounds, and again after them
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, mode: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_round(wl: workloads.Workload, report: dict) -> tuple[int, int, list[str]]:
    """Check one round's records: (attempted, failed, silent problems)."""
    attempted = failed = 0
    problems: list[str] = []
    seen: set[str] = set()
    for path, code in zip(report["outputs"], report["exit_codes"]):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines if line.strip()]
        errors = sum(1 for rec in records if rec.get("error"))
        if code != (1 if errors else 0):
            problems.append(f"{Path(path).name}: exit code {code} with {errors} record errors")
        for rec in records:
            name = rec.get("name")
            if name in seen:
                problems.append(f"{name}: duplicate record")
            seen.add(name)
            attempted += 1
            if rec.get("error"):
                failed += 1
                continue
            found = wl.check(rec)
            if found:
                failed += 1
                problems += [f"{name}: {p}" for p in found]
    missing = sorted(set(wl.checks) - seen)
    problems += [f"{name}: no record in the output" for name in missing]
    attempted += len(missing)
    failed += len(missing)
    if attempted == 0:
        problems.append("the workload produced no records")
        attempted = failed = 1
    return attempted, failed, problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "poslink" / "__init__.py").is_file():
        print(f"bench: no poslink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = workloads.build(args.workload, args.seed)
    for note in wl.notes:
        print(f"bench: {note}", file=sys.stderr)

    try:
        # warm-up: compiles bytecode and fills the file cache; not counted
        run_worker(wl.name, wl.seed, "setup")
        probes = 0 if args.trace else SETUP_PROBES
        setups = [run_worker(wl.name, wl.seed, "setup")["setup_s"] for _ in range(probes)]
        plain: list[dict] = []
        traced: list[dict] = []
        attempted = failed = 0
        problems: list[str] = []
        start = time.perf_counter()
        while True:
            mode = "traced" if args.trace and len(traced) < len(plain) else "round"
            report = run_worker(wl.name, wl.seed, mode)
            (traced if mode == "traced" else plain).append(report)
            a, f, p = check_round(wl, report)
            attempted, failed = attempted + a, failed + f
            problems += p
            done = time.perf_counter() - start >= args.seconds
            if done and (not args.trace or traced):
                break
        setups += [run_worker(wl.name, wl.seed, "setup")["setup_s"] for _ in range(probes)]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    for p in sorted(set(problems)):
        print(f"bench: check failed: {p}", file=sys.stderr)

    wall = statistics.median(r["wall_s"] for r in plain)
    wall_ref = statistics.median(r["wall_s"] * r["speed"] for r in plain)
    speed = statistics.median(r["speed"] for r in plain)
    print(f"bench: wall_s {wall:.3f} at CPU speed {speed:.3f} of the reference", file=sys.stderr)
    if args.trace:
        values: dict[str, list[float]] = {}
        missing: set[str] = set()
        for r in traced:
            missing.update(r["missing"])
            for name, v in r["layers"].items():
                values.setdefault(name, []).append(v)
        units = {name: unit for name, (unit, _, _) in tracer.PER_LAYER.items()}
        metrics = {
            name: metric(statistics.median(vs), units.get(name, "s"))
            for name, vs in values.items()
        }
        traced_ref = statistics.median(r["wall_s"] * r["speed"] for r in traced)
        metrics["trace.wall_s"] = metric(statistics.median(r["wall_s"] for r in traced), "s")
        metrics["trace.overhead_s"] = metric(traced_ref - wall_ref, "s")
        metrics["round.wall_s"] = metric(wall, "s")
        metrics["round.speed"] = metric(speed, "ratio")
        if missing:
            print(f"bench: missing per-layer metrics: {sorted(missing)}", file=sys.stderr)
    else:
        setups += [r["setup_s"] for r in plain]
        metrics = {
            "wall_ref_s": metric(wall_ref, "s"),
            "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
            "setup_s": metric(statistics.median(setups), "s"),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"result-{wl.name}-s{wl.seed}-t{args.trace}.json").write_text(
        json.dumps({"rounds": len(plain) + len(traced), "wall_s": wall, "speed": speed,
                    **result}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
