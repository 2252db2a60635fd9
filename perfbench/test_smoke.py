"""Reduced-size smoke tests of the benchmark itself.

    python3 -m pytest perfbench -q

Each workload runs at toy sizes through the same set-up, warm-up,
measurement and tracing path as a real run.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import kwise  # noqa: E402
import kwise.cli  # noqa: E402,F401
import run  # noqa: E402
from workloads import WORKLOADS, ClosureGrow, Op, SearchSmall, VerifyLinked  # noqa: E402

SMALL = {
    "verify-linked": VerifyLinked(ns=range(8, 11), punctured_ns=range(8, 10)),
    "closure-grow": ClosureGrow(families=((8, 1), (9, 1))),
    "search-small": SearchSmall(searches=((3, 3), (4, 3)), canonical_ns=(5,), graph_sizes=(10,)),
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_small_workload_runs_clean(name, trace, tmp_path):
    result = run.run_workload(kwise, SMALL[name], seed=7, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * len(SMALL[name].build(7, tmp_path))
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_follow_the_code():
    # 2 k-wise checks for a maximal verdict, 3 for a non-maximal one
    result = run.run_workload(kwise, VerifyLinked(ns=(8, 9), punctured_ns=(8,)),
                              seed=1, seconds=0, trace=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["core.kwise_calls_per_check"] == (2 + 2 + 3) / 3
    assert metrics["cli.main.calls"] == 3


def test_probes_are_not_counted():
    nap = Op("sleep", "sleep", lambda: time.sleep(0.9), lambda _: None)
    wall, latencies, costs, probes, failures = run.run_round([nap, nap])
    assert not failures and len(latencies) == len(costs) == 2
    assert len(probes) == 3  # before each operation 0.8 s apart, and at the end
    # counting the probes would add their sum; half of it leaves room for sleep overshoot
    assert 1.8 <= wall < 1.8 + 0.5 * sum(probes)


def test_spec_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


def test_same_seed_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for workload in SMALL.values():
        labels = [op.label for op in workload.build(3, a)]
        assert labels == [op.label for op in workload.build(3, b)]
    for path in a.glob("*.hex"):
        assert path.read_bytes() == (b / path.name).read_bytes()


def test_fails_without_the_package(tmp_path):
    # a checkout holding only the benchmark must exit nonzero, printing no result
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "search-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
