"""One pass over a workload's jobs in a fresh process.

Started by run.py as `child.py WORKLOAD SEED TRACE T0_NS`, where T0_NS is
the parent's time.monotonic_ns() just before the start.  Set-up runs from
that instant through `import qtchar`, the algebras and `sl2_algebra()`; the
jobs then run serially, each timed from the call to its serialized JSON.
Every result is checked against expected.json outside the timed region.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def main(workload: str, seed: int, trace: bool, t0_ns: int) -> dict:
    sys.path.insert(0, SRC)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.hook_imports()
    import qtchar

    if not os.path.abspath(qtchar.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qtchar was imported from {qtchar.__file__}, not from {SRC}")
    if tracer:
        tracer.install()
    import jobs

    session = jobs.Session(workload, seed)
    setup_s = (time.monotonic_ns() - t0_ns) / 1e9

    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)[workload]
    times = {}
    failures = []
    for name in session.order:
        run = lambda: session.run(name)
        t = time.perf_counter()
        try:
            text = tracer.call("job", run) if tracer else run()
        except Exception:  # a job that raises is counted as failed
            failures.append(f"{name}: {traceback.format_exc()}")
            continue
        finally:
            times[name] = time.perf_counter() - t
        got = jobs.summary(text, session.shift)
        if got != expected[name]:
            failures.append(f"{name}: got {got}, expected {expected[name]}")

    report = {
        "setup_s": setup_s,
        "solve_s": sum(times.values()),
        "job_s": times,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(session.order),
        "failures": failures,
    }
    if tracer:
        report["layers"] = tracer.layer_metrics()
        out = os.path.join(ROOT, ".bench_out")
        os.makedirs(out, exist_ok=True)
        tracer.write(os.path.join(out, f"spans-{workload}.tsv"))
    return report


if __name__ == "__main__":
    workload, seed, trace, t0_ns = sys.argv[1:]
    print(json.dumps(main(workload, int(seed), trace == "1", int(t0_ns))))
