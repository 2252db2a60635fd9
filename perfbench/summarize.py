#!/usr/bin/env python3
"""Summarize benchmark runs: median, quartiles and spread of each metric.

    python3 perfbench/summarize.py verify-linked=runs_verify.jsonl closure-grow=runs_closure.jsonl

Each file holds the last output line of several runs of one workload, one
JSON object per line.  The spread is (q3 - q1) / median, with quartiles
from `statistics.quantiles(values, n=4)`.  Prints one JSON object keyed by
workload, then metric.
"""

import json
import statistics
import sys


def summarize(lines):
    runs = [json.loads(line) for line in lines if line.strip()]
    out = {
        "runs": len(runs),
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {},
    }
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out["metrics"][name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def main(argv):
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    result = {}
    for arg in argv:
        workload, _, path = arg.partition("=")
        with open(path, encoding="utf-8") as fh:
            result[workload] = summarize(fh)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
