"""Acceptance gate: eleven criteria, one test and one verdict line each.

Run with -v to get a single PASSED/FAILED line per criterion.  Each test
pins the exact values and tolerances the package commits to, including
wall-clock limits where the contract states them.
"""

import json
import random
import time
from fractions import Fraction

from kwise import (
    KwiseMode,
    Partition,
    SearchConfig,
    SetFamily,
    audit_claim_counts,
    balanced_block,
    build_graph,
    canonical_form,
    coverage,
    enumerate_maximal_families,
    f_xy,
    is_k_wise_intersecting,
    linked_cubes,
    maximal_closure,
    min_bipartization,
    oracle_min,
    pair_of_cubes,
    product_bound_terms,
    search_min,
    series_of_cubes,
    verify_maximal_generator_correspondence,
)
from kwise.bitops import full_mask
from kwise.cli import main as cli_main
from kwise.search import _naive_is_kwise, _naive_is_maximal

from helpers import brute_force_max_cut

DISTINCT = KwiseMode.DISTINCT
REPETITION = KwiseMode.WITH_REPETITION


def test_criterion_01_construction_size_law():
    start = time.monotonic()
    for n in range(2, 27):
        want = (1 << ((n + 1) // 2)) + (1 << (n // 2)) - 3
        for a in {n // 2, (n + 1) // 2}:
            assert len(linked_cubes(n, full_mask(a))) == want, (n, a)
    # the law depends only on the block size, not which block
    assert len(linked_cubes(7, 0b1010100)) == (1 << 4) + (1 << 3) - 3
    assert time.monotonic() - start < 5


def test_criterion_02_three_wise_for_all_blocks():
    start = time.monotonic()
    for n in range(2, 11):
        for s in range(1, full_mask(n)):
            assert is_k_wise_intersecting(linked_cubes(n, s), 3, DISTINCT), (n, s)
    assert time.monotonic() - start < 30


def test_criterion_03_maximality_threshold(tmp_path):
    start = time.monotonic()
    ledger = tmp_path / "maximality.jsonl"
    for n in range(3, 15):
        fam_hex = linked_cubes(n, balanced_block(n)).to_hex()
        code = cli_main(
            ["check", "--n", str(n), "--k", "3", "--family", fam_hex,
             "--out", str(ledger), "--no-timestamp"]
        )
        assert code == 0
    verdicts = {}
    for line in ledger.read_text().splitlines():
        rec = json.loads(line)
        n = rec["params"]["n"]
        verdicts[n] = rec["result"]
        if not rec["result"]["maximal"]:
            # every false verdict carries a witness that re-validates
            w = rec["result"]["addable_witness"]
            assert isinstance(w, int)
            members = list(linked_cubes(n, balanced_block(n)))
            assert w not in members
            assert _naive_is_kwise(members + [w], 3, DISTINCT)
    assert sorted(verdicts) == list(range(3, 15))
    assert verdicts[3]["maximal"] is False
    stable_from = min(
        n for n in range(4, 15)
        if all(verdicts[m]["maximal"] for m in range(n, 15))
    )
    print(f"maximality becomes and stays true from n={stable_from} through 14")
    assert stable_from == 4
    assert time.monotonic() - start < 120


def test_criterion_04_oracle_equivalence():
    start = time.monotonic()
    for n in range(1, 5):
        for k in (2, 3, 4):
            for mode in (DISTINCT, REPETITION):
                got = search_min(SearchConfig(n=n, k=k, mode=mode))
                assert got.optimal
                assert got.f_value == oracle_min(n, k, mode), (n, k, mode)
    probe = search_min(SearchConfig(n=5, k=3, mode=DISTINCT))
    assert probe.optimal
    assert probe.f_value == oracle_min(5, 3, DISTINCT)
    assert time.monotonic() - start < 600


def test_criterion_05_minimum_witness_probe():
    start = time.monotonic()
    expected_classes = {5: 11, 7: 19}
    for n in (5, 7):
        report = search_min(SearchConfig(n=n, k=3, budget=3300.0))
        assert report.f_value == 2
        assert report.optimal
        # canonical-form deduplication is exact: witnesses are fixed
        # points of canonicalization and pairwise distinct
        assert len(report.witnesses) == expected_classes[n]
        assert len({w.bitmap for w in report.witnesses}) == expected_classes[n]
        for w in report.witnesses:
            assert canonical_form(w) == w
            assert _naive_is_maximal(n, list(w), 3, DISTINCT)
        # the desk-scale answer to the isomorphism question: at these
        # sizes the minimum witnesses are NOT balanced linked cubes
        assert not any(report.matched_linked_cubes)
    assert time.monotonic() - start < 3600


def test_criterion_06_generator_exactness():
    start = time.monotonic()
    for n in range(1, 9):
        for s in range(full_mask(n) + 1):
            assert coverage(pair_of_cubes(n, s), 2).count == 1 << n, (n, s)
    # coverage commutes with relabeling, so one block per size class
    # stands in for all blocks of that size on the larger grounds
    for n in range(9, 17):
        for a in range(n + 1):
            fam = pair_of_cubes(n, full_mask(a))
            assert coverage(fam, 2).count == 1 << n, (n, a)
    for n in range(2, 17):
        for k in range(2, n + 1):
            if n % k:
                continue
            fam = series_of_cubes(Partition.contiguous(n, k))
            assert coverage(fam, k).count == 1 << n, (n, k)
    assert time.monotonic() - start < 60


def test_criterion_07_correspondence():
    sizable = 0
    for n in range(1, 6):
        for fam in enumerate_maximal_families(n, 3, DISTINCT):
            if len(fam) >= 3:
                res = verify_maximal_generator_correspondence(fam, 3)
                assert res.ok, (n, fam.to_hex())
                sizable += 1
            else:
                # vacuity regime: the check must run and report rather
                # than crash; violations are allowed only here
                verify_maximal_generator_correspondence(fam, 3)
    assert sizable > 0
    for seed in range(20):
        n = 6 + seed % 5
        rng = random.Random(seed)
        anchor = 1 << rng.randrange(n)
        masks = {
            anchor | (rng.getrandbits(n) & full_mask(n))
            for _ in range(rng.randint(3, 8))
        }
        while len(masks) < 3:
            masks.add(anchor | (rng.getrandbits(n) & full_mask(n)))
        fam = SetFamily.from_masks(n, masks)
        closed = maximal_closure(fam, 3, DISTINCT)
        assert len(closed) >= 3
        res = verify_maximal_generator_correspondence(closed, 3)
        assert res.ok, (n, seed)


def test_criterion_08_f_xy_grid_maximum():
    top = Fraction(4, 9)
    argmax = []
    best = Fraction(0)
    for i in range(101):
        x = Fraction(i, 300)
        for j in range(101):
            y = Fraction(j, 300)
            v = f_xy(x, y)
            if v > best:
                best = v
                argmax = [(x, y)]
            elif v == best:
                argmax.append((x, y))
    assert best == top
    assert argmax == [(Fraction(1, 3), Fraction(1, 3))]


def test_criterion_09_bipartization_oracle():
    start = time.monotonic()
    rng = random.Random(2024)
    for trial in range(50):
        n = rng.choice([3, 4])
        m = rng.randint(2, min(14, 1 << n))
        fam = SetFamily.from_masks(n, rng.sample(range(1 << n), m))
        graph = build_graph(fam)
        edges = list(graph.edges())
        exact = min_bipartization(graph)
        assert exact.exact
        assert exact.deleted == len(edges) - brute_force_max_cut(m, edges)
        heur = min_bipartization(graph, mode="heuristic", seed=trial)
        assert heur.deleted >= exact.deleted
    assert time.monotonic() - start < 120


def test_criterion_10_audit_counting_chain():
    fam = linked_cubes(9, balanced_block(9))
    report = audit_claim_counts(fam, balanced_block(9), Fraction(1, 8))
    ell = report.ell
    assert ell == 4
    assert report.hypotheses_met
    assert report.family_size == 3 * (1 << ell) - 3 == 45
    chain = (1 << (2 * ell + 1)) - (3 * (1 << ell) - 1) - report.family_size
    assert report.chain_lower == chain
    assert chain == (1 << (2 * ell + 1)) - 6 * (1 << ell) + 4 == 420
    assert report.outside_count == 420
    assert report.pair_bound == report.product_bound == 420
    assert report.pair_bound_holds and report.product_bound_holds
    # forward direction on the real extremal instance
    assert report.g3_empty and report.product_bound_equality
    # both directions on constructed count instances: under the audit
    # hypotheses the outside part has at most one member (the symmetric
    # difference budget eps*2^ell = 2 already pays for the missing empty
    # set), and the inside parts fit in their punctured cubes
    eps = Fraction(1, 8)
    eq_instances = []
    for g1 in range(15):
        for g2 in range(31):
            for g3 in range(2):
                lhs, rhs = product_bound_terms(g1, g2, g3, ell, eps)
                if lhs == rhs:
                    eq_instances.append((g1, g2, g3))
                if g3 > 0 and lhs <= rhs:
                    assert lhs < rhs  # nonempty outside part never ties
    assert eq_instances == [(14, 30, 0)]


def run_script(entries, extra=("--no-timestamp",)):
    for argv in entries:
        code = cli_main([*argv, "--seed", "7", "--out", "runs.jsonl", *extra])
        assert code == 0


DETERMINISM_SCRIPT = None


def determinism_script():
    global DETERMINISM_SCRIPT
    if DETERMINISM_SCRIPT is None:
        linked4 = linked_cubes(4, balanced_block(4)).to_hex()
        linked9 = linked_cubes(9, balanced_block(9)).to_hex()
        pair6 = pair_of_cubes(6, 0b000111).to_hex()
        DETERMINISM_SCRIPT = [
            ["construct", "linked-cubes", "--n", "9"],
            ["construct", "pair-of-cubes", "--n", "6", "--s", "1,2,3"],
            ["construct", "series-of-cubes", "--n", "6", "--parts", "3"],
            ["check", "--n", "4", "--k", "3", "--family", linked4],
            ["closure", "--n", "3", "--k", "3", "--family", "02"],
            ["gen-coverage", "--n", "6", "--k", "2", "--family", pair6],
            ["disjointness", "--n", "3", "--family", "0f", "--elem", "1"],
            ["stats", "--n", "3", "--family", "0f", "--family", "11", "--ell", "2"],
            ["search-min", "--n", "4", "--k", "3"],
            ["search-min", "--n", "3", "--k", "3", "--mode", "repetition"],
            ["audit", "--n", "9", "--family", linked9, "--s", "1,2,3,4",
             "--eps", "1/8"],
            ["report", "runs.jsonl"],
        ]
    return DETERMINISM_SCRIPT


def test_criterion_11_ledger_determinism(tmp_path, monkeypatch):
    outputs = {}
    for label in ("a", "b"):
        workdir = tmp_path / label
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        run_script(determinism_script())
        outputs[label] = {
            p.name: p.read_bytes() for p in sorted(workdir.iterdir())
        }
    assert set(outputs["a"]) == {
        "runs.jsonl", "runs_f_table.csv", "runs_linked_cubes_maximality.csv",
    }
    assert outputs["a"] == outputs["b"]

    # timestamped runs agree once timestamps and timing fields are set aside
    stamped = {}
    for label in ("c", "d"):
        workdir = tmp_path / label
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        run_script(determinism_script()[:4] + [["search-min", "--n", "3", "--k", "3"]], extra=())
        records = []
        for line in (workdir / "runs.jsonl").read_text().splitlines():
            rec = json.loads(line)
            rec.pop("timestamp", None)
            rec.get("result", {}).pop("seconds", None)
            records.append(rec)
        stamped[label] = records
    assert stamped["c"] == stamped["d"]
