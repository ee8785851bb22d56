"""Record expected.json: digest, term count and t = 1 value of every job.

Run from the repository root at the commit whose outputs are the reference:

    python3 bench/record.py

Every later run of the benchmark compares its results with this file, so
re-record only when a change of output is intended and reviewed.
"""

from __future__ import annotations

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import jobs  # noqa: E402


def main():
    table = {}
    for workload in jobs.WORKLOADS:
        session = jobs.Session(workload, None)
        table[workload] = {name: jobs.summary(session.run(name), 0) for name in session.order}
        print(workload, {k: (v["terms"], v["t1"]) for k, v in table[workload].items()})
    with open(os.path.join(BENCH, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
