"""qtchar benchmark: one workload, measured end to end or layer by layer.

    python3 bench/run.py --workload frontier --seed 1 --seconds 35 --trace 0

Run from the repository root; the program is imported from `src/`.  Load
is a closed loop with one client: this process starts one child at a time,
and each child (child.py) sets up from a fresh interpreter and makes one
pass over the workload's jobs, serially and without threads.  A fresh
process per pass gives every pass the same start state, since the
algebras' caches and the process-global rank-1 algebra are rebuilt.

Children are started until --seconds have passed, and at least MIN_PASSES
of them.  With --trace 0 the result carries the end-to-end metrics, as
medians over the passes.  With --trace 1 untraced and traced passes
alternate, and the result carries the per-layer metrics of the traced
passes (medians) plus the tracing overhead.  Metric names and units are
those declared in BENCHMARK.json.  The last line of stdout is one JSON
object; failures are described on stderr.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("frontier", "product", "kl")
MIN_PASSES = 3
RUN_LIMIT_S = 160  # start no pass that is expected to end after this
KILL_AFTER_S = 170  # a pass still running then is stopped and the run fails


def run_child(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    # a fixed str hash repeats dict and set layouts from pass to pass; the
    # program must come from src/, not from another path
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), workload, str(seed),
             "1" if trace else "0", str(t0)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark pass stopped after {timeout:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark pass failed with exit code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["wall_s"] = (time.monotonic_ns() - t0) / 1e9
    print(f"{'traced' if trace else 'plain'} pass: setup {report['setup_s']:.3f} s, "
          f"solve {report['solve_s']:.3f} s, rss {report['rss_mb']:.1f} MiB", file=sys.stderr)
    for failure in report["failures"]:
        print(f"job failed: {failure}", file=sys.stderr)
    return report


def measure(workload: str, seed: int, seconds: int, trace: bool):
    """Alternate untraced/traced passes (traced only with trace) until time is up."""
    start = time.monotonic()
    plain, traced = [], []
    kinds = [False, True] if trace else [False]
    need = 1 if trace else MIN_PASSES
    k = 0
    while True:
        kind = kinds[k % len(kinds)]
        walls = [r["wall_s"] for r in (traced if kind else plain)] or [0.0]
        ends_at = time.monotonic() - start + statistics.median(walls)
        if plain and (traced or not trace) and (
                ends_at > RUN_LIMIT_S or (ends_at > seconds and len(plain) >= need)):
            return plain, traced
        timeout = KILL_AFTER_S - (time.monotonic() - start)
        (traced if kind else plain).append(run_child(workload, seed, kind, timeout))
        k += 1


def solve_time(reports) -> float:
    """Time of one pass: the sum over jobs of each job's median time.

    Summing per-job medians discards a slow spell of the machine in one job
    of one pass, which a median of pass totals keeps when passes are few.
    """
    return sum(statistics.median(r["job_s"][name] for r in reports)
               for name in reports[0]["job_s"])


def declared_units(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qtchar", "__init__.py")):
        print(f"no qtchar sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # byte-compile first, so that no pass pays for compiling the sources
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(BENCH, quiet=1)

    plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    reports = plain + traced
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(len(r["failures"]) for r in reports)
    med = lambda rs, key: statistics.median(r[key] for r in rs)
    if args.trace:
        # median_low keeps exact counts integers when the passes are even
        metrics = {name: statistics.median_low(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead"] = solve_time(traced) / solve_time(plain) - 1
    else:
        metrics = {
            "solve_s": solve_time(plain),
            "setup_s": med(plain, "setup_s"),
            "peak_rss_mb": med(plain, "rss_mb"),
            "ok_frac": 1 - failed / attempted,
        }
    units = declared_units(bool(args.trace))
    if set(metrics) != set(units):
        raise SystemExit(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
