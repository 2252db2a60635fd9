#!/usr/bin/env python3
"""Run one kwise benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify-linked --seed 1 --seconds 20 --trace 0

Run from anywhere: the package is imported from ``src/`` next to this
directory, never from an installed copy.  One process runs one workload,
single-threaded, so set-up time and peak memory belong to it alone;
``--workload all`` runs each workload in a fresh child process.

A run builds the workload's inputs from the seed (set-up), runs its
operation list once as a warm-up, then repeats the list in rounds for
``--seconds``.  Every operation's output is checked in every round.

--trace 0 prints the end-to-end metrics:
  setup_s      import of kwise (median over fresh interpreters) plus input
               building (median over repeated builds)
  wall_s       time to run and check the list: the sum over operations of
               each one's median time to run and check
  op_p50_ms    median over operations of each one's median latency
  peak_rss_mb  peak resident memory of this process
The three times are in reference seconds: each measured time is scaled
by PROBE_REF_S over the time of a speed probe (a fixed loop that runs no
kwise code) taken alongside it: the mean of the probes just before and
after an operation for its time, the probe just before a sample for
set-up.  On a shared machine other tenants slow everything down by up to
half for minutes at a time; the probe slows down with the program, so the
ratio keeps what the program costs.  Raw times are printed above the
result line.

--trace 1 alternates traced and untraced rounds and prints the per-layer
metrics, per traced round and in raw seconds, plus the tracing overhead
(median traced minus median untraced round); the spans are written to
``perfbench/out/spans-<workload>.csv``.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
fail_ratio = failed / attempted is printed above it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Single-threaded, numpy's BLAS included.  Set before numpy is imported,
# here and in the import-timing children, which inherit the environment;
# starting BLAS threads on a busy machine made import times swing by half
# in ways the speed probe does not follow.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

IMPORT_REPEATS = 9
BUILD_REPEATS = 3
# the speed probe runs before a round's first operation, then before any
# operation starting at least PROBE_EVERY_S after the last probe, and at
# the end of the round; PROBE_REF_S is a round figure for its time on the
# machine of the first baseline, which read 16-31 ms
PROBE_LOOP = 300_000
PROBE_EVERY_S = 0.8
PROBE_REF_S = 0.020
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import kwise, kwise.cli; print(time.perf_counter() - t)"
)

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

BITOPS_TIMED = ("project_intersect_bits", "up_close_bits", "reverse_index_bits")
CALLS_AND_SELF = (
    "core.is_k_wise_intersecting", "core.is_maximal_k_wise", "core.maximal_closure",
    "generator.coverage", "search.canonical_form",
)
LAYER_SELF = ("bitops", "core", "generator", "disjointness", "search", "cli")
SHARES = {
    "share.project_intersect_bits": ("bitops.project_intersect_bits",),
    "share.up_close_reverse": ("bitops.up_close_bits", "bitops.reverse_index_bits"),
    "share.canonical_form": ("search.canonical_form",),
}


def per_layer_units():
    """Name and unit of every per-layer metric, in print order."""
    units = {}
    for fn in BITOPS_TIMED:
        units[f"bitops.{fn}.calls"] = "count"
        units[f"bitops.{fn}.self_s"] = "s"
        units[f"bitops.{fn}.bytes_computed"] = "B"
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "core.kwise_calls_per_check": "count",
        "core.members_folded": "count",
        "search.canonical_perms": "count",
        "search.witness_yield": "ratio",
        "search.nodes_explored": "count",
        "search.nodes_per_s": "1/s",
        "disjointness.build_graph.self_s": "s",
        "disjointness.min_bipartization.self_s": "s",
        "disjointness.cuts_enumerated": "count",
        "constructions.self_s": "s",
        "cli.main.calls": "count",
        "cli.ledger_bytes": "B",
    })
    for layer in LAYER_SELF:
        units[f"{layer}.self_s"] = "s"
    for name in SHARES:
        units[name] = "%"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def import_kwise():
    """Import kwise from this checkout's src/, or exit 2 when it is not there."""
    init = SRC / "kwise" / "__init__.py"
    if not init.is_file():
        print(f"error: no kwise package at {init}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import kwise
    import kwise.cli  # noqa: F401  (the cli layer is not imported by the package)

    if Path(kwise.__file__).resolve() != init.resolve():
        print(f"error: imported kwise from {kwise.__file__}, not {init}", file=sys.stderr)
        sys.exit(2)
    return kwise


def speed_probe() -> float:
    """Time a fixed pure-Python loop that touches no kwise code.

    The loop is timed in three thirds and the reading is three times the
    median third, so that one preemption during the probe does not show.
    """
    thirds = []
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOP // 3):
            x += (i * 7) & 15
        thirds.append(time.perf_counter() - start)
    return 3 * statistics.median(thirds)


def set_up(workload, seed: int, workdir: Path):
    """Time the import of kwise in fresh interpreters and the building of
    the workload's inputs, each sample scaled by a speed probe taken just
    before it.  Returns (setup_s in reference seconds, raw setup seconds,
    probes, operations of the last build)."""
    imports, builds, probes = [], [], []
    for _ in range(IMPORT_REPEATS):
        probes.append(speed_probe())
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        imports.append(float(proc.stdout.strip().splitlines()[-1]))
    for _ in range(BUILD_REPEATS):
        probes.append(speed_probe())
        t = time.perf_counter()
        ops = workload.build(seed, workdir)
        builds.append(time.perf_counter() - t)
    raw = statistics.median(imports) + statistics.median(builds)
    scaled = [PROBE_REF_S * x / p for x, p in zip(imports + builds, probes)]
    setup_s = (statistics.median(scaled[:IMPORT_REPEATS])
               + statistics.median(scaled[IMPORT_REPEATS:]))
    return setup_s, raw, probes, ops


def run_round(ops, tracer=None):
    """Run and check every operation once, with speed probes in between.

    Returns (wall, latencies, costs, probes, failures).  The wall is in raw
    seconds and excludes the probes.  Each operation's latency (its call)
    and cost (its call and check) are in reference seconds, scaled by the
    mean of the probes just before and just after it.
    """
    latencies, costs, after, failures, probes = [], [], [], [], []
    start = time.perf_counter()
    last_probe = -PROBE_EVERY_S
    probing = 0.0
    for op in ops:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            t = time.perf_counter()
            probes.append(speed_probe())
            last_probe = time.perf_counter()
            probing += last_probe - t
        after.append(len(probes))  # index of the first probe after this operation
        t = time.perf_counter()
        try:
            out = op.call() if tracer is None else tracer.op(op.kind, op.call)
        except Exception:  # an operation that raises is counted as failed
            latencies.append(time.perf_counter() - t)
            costs.append(latencies[-1])
            failures.append(f"{op.label}: raised\n{traceback.format_exc()}")
            continue
        latencies.append(time.perf_counter() - t)
        try:
            err = op.check(out)
        except Exception:  # so is one whose output cannot be checked
            err = f"check raised\n{traceback.format_exc()}"
        costs.append(time.perf_counter() - t)
        if err:
            failures.append(f"{op.label}: {err}")
    wall = time.perf_counter() - start - probing
    probes.append(speed_probe())
    scales = [2 * PROBE_REF_S / (probes[i - 1] + probes[i]) for i in after]
    latencies = [x * k for x, k in zip(latencies, scales)]
    costs = [x * k for x, k in zip(costs, scales)]
    return wall, latencies, costs, probes, failures


def ledger_totals(workdir: Path):
    """Bytes, search nodes and witness classes over every ledger record written."""
    size = nodes = classes = 0
    for path in workdir.glob("*.jsonl"):
        size += path.stat().st_size
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if rec.get("command") == "search-min":
                nodes += rec["result"]["nodes"]
                classes += len(rec["result"]["witnesses"])
    return size, nodes, classes


def layer_metrics(summary, setup_summary, work, traced_rounds, all_rounds, workdir, overhead_s):
    """Per-layer metrics per traced round; ledger counts are per round of any kind."""
    r = traced_rounds
    m = {}
    for fn in BITOPS_TIMED:
        name = f"bitops.{fn}"
        m[f"{name}.calls"] = summary.calls[name] / r
        m[f"{name}.self_s"] = summary.self_s[name] / r
        m[f"{name}.bytes_computed"] = work[f"{name}.bytes_computed"] / r
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = summary.calls[name] / r
        m[f"{name}.self_s"] = summary.self_s[name] / r
    checks = summary.op_calls["check"]
    kwise_in_checks = summary.under_op[("check", "core.is_k_wise_intersecting")]
    ledger_bytes, nodes, classes = ledger_totals(workdir)
    nodes_per_round = nodes / all_rounds
    search_s = summary.total_s["search.search_min"] / r
    canonical_in_search = summary.canonical_in_search / r
    m.update({
        "core.kwise_calls_per_check": kwise_in_checks / checks if checks else 0.0,
        "core.members_folded": work["core.members_folded"] / r,
        "search.canonical_perms": work["search.canonical_perms"] / r,
        "search.witness_yield": (classes / all_rounds) / canonical_in_search if canonical_in_search else 0.0,
        "search.nodes_explored": nodes_per_round,
        "search.nodes_per_s": nodes_per_round / search_s if search_s else 0.0,
        "disjointness.build_graph.self_s": summary.self_s["disjointness.build_graph"] / r,
        "disjointness.min_bipartization.self_s": summary.self_s["disjointness.min_bipartization"] / r,
        "disjointness.cuts_enumerated": work["disjointness.cuts_enumerated"] / r,
        "constructions.self_s": setup_summary.layer_self_s["constructions"],
        "cli.main.calls": summary.calls["cli.main"] / r,
        "cli.ledger_bytes": ledger_bytes / all_rounds,
    })
    for layer in LAYER_SELF:
        m[f"{layer}.self_s"] = summary.layer_self_s[layer] / r
    total_self = summary.traced_self_s
    for name, fns in SHARES.items():
        m[name] = 100.0 * sum(summary.self_s[f] for f in fns) / total_self if total_self else 0.0
    m["trace.spans"] = summary.spans / r
    m["trace.overhead_s"] = overhead_s
    return m


def run_workload(kwise, workload, seed: int, seconds: float, trace: bool):
    """Set up, warm up and measure one workload; return the result object."""
    from tracing import SpanSummary, Tracer

    name = workload.name
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{name}-") as tmp:
        workdir = Path(tmp)
        setup_s, setup_raw, setup_probes, ops = set_up(workload, seed, workdir)
        setup_tracer = None
        if trace:
            setup_tracer = Tracer(kwise)
            with setup_tracer:
                ops = workload.build(seed, workdir)

        attempted = len(ops)
        failures = run_round(ops)[-1]  # warm-up: fills caches, computes references
        tracer = Tracer(kwise) if trace else None
        walls = {False: [], True: []}
        round_probes = {False: [], True: []}  # mean speed probe of each round
        per_op = [[] for _ in ops]  # latencies of each operation, untraced rounds
        per_op_cost = [[] for _ in ops]  # the same, with the output check
        start = time.perf_counter()
        while True:
            traced = trace and len(walls[True]) <= len(walls[False])
            if traced:
                with tracer:
                    wall, lat, cost, probes, fails = run_round(ops, tracer)
            else:
                wall, lat, cost, probes, fails = run_round(ops)
            if not traced:
                for samples, x in zip(per_op, lat):
                    samples.append(x)
                for samples, x in zip(per_op_cost, cost):
                    samples.append(x)
            walls[traced].append(wall)
            round_probes[traced].append(statistics.mean(probes))
            attempted += len(ops)
            failures += fails
            # start another round only if at least half of it fits in the time left
            done = time.perf_counter() - start + wall / 2 >= seconds
            if done and (not trace or (walls[True] and walls[False])):
                break
        all_rounds = 1 + len(walls[False]) + len(walls[True])
        if trace:
            overhead = statistics.median(walls[True]) - statistics.median(walls[False])
            metrics = layer_metrics(SpanSummary(tracer), SpanSummary(setup_tracer), tracer.work,
                                    len(walls[True]), all_rounds, workdir, overhead)
            tracer.write(OUT / f"spans-{name}.csv")
            units = per_layer_units()
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": setup_s,
                "wall_s": sum(statistics.median(c) for c in per_op_cost),
                "op_p50_ms": 1000.0 * statistics.median(statistics.median(s) for s in per_op),
                "peak_rss_mb": rss_kb * 1024 / 1e6,
            }
            units = END_TO_END

    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    rounds = f"{len(walls[False])} untraced" + (f", {len(walls[True])} traced" if trace else "")
    print(f"workload {name}  seed {seed}  {len(ops)} ops per round  rounds: 1 warm-up, {rounds}")
    for traced, times in walls.items():
        if times:
            kind = "traced" if traced else "untraced"
            print(f"  {kind} round walls, raw s: " + " ".join(f"{w:.3f}" for w in times))
            print(f"  {kind} speed probe, ms:    "
                  + " ".join(f"{1000 * p:.2f}" for p in round_probes[traced]))
    if not trace:
        print("  set-up speed probe, ms:    " + " ".join(f"{1000 * p:.2f}" for p in setup_probes))
        print(f"  {'raw setup_s':42s} {setup_raw:14.6g} s")
        print(f"  {'raw wall_s':42s} {statistics.median(walls[False]):14.6g} s")
    for key, value in metrics.items():
        print(f"  {key:42s} {value:14.6g} {units[key]}")
    print(f"  {'fail_ratio':42s} {len(failures) / attempted:14.6g} ({len(failures)}/{attempted})")
    if trace:
        share = metrics[workload.stress]
        print(f"  stress: {workload.stress} = {share:.1f}% of traced self time "
              f"({'most' if share > 50 else 'NOT most'})")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> int:
    """Run every workload in a fresh child process, one after another."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify-linked", "closure-grow", "search-small", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    kwise = import_kwise()
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    result = run_workload(kwise, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
