"""End-to-end CLI tests: records, ledgers, sidecars, reports, exit codes."""

import csv
import hashlib
import json
import random
import time
from pathlib import Path

import pytest

from kwise import (
    KwiseMode,
    SetFamily,
    balanced_block,
    is_k_wise_intersecting,
    linked_cubes,
    pair_of_cubes,
)
from kwise import cli
from kwise.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_record(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 1
    return json.loads(lines[0])


def test_construct_linked_cubes_record(capsys):
    rec = run_record(
        capsys, "construct", "linked-cubes", "--n", "9", "--no-timestamp"
    )
    assert rec["schema_version"] == 3
    assert rec["command"] == "construct"
    assert rec["seed"] == 0
    assert rec["params"] == {
        "construction": "linked-cubes",
        "n": 9,
        "s": [1, 2, 3, 4],
    }
    assert rec["result"]["size"] == 45
    assert "timestamp" not in rec
    fam = SetFamily.from_hex(9, rec["result"]["family"])
    assert fam == linked_cubes(9, balanced_block(9))


def test_construct_with_explicit_block_and_parts(capsys):
    rec = run_record(
        capsys, "construct", "pair-of-cubes", "--n", "4", "--s", "1,3",
        "--no-timestamp",
    )
    assert rec["params"]["s"] == [1, 3]
    assert rec["result"]["size"] == (1 << 2) + (1 << 2) - 1
    rec = run_record(
        capsys, "construct", "series-of-cubes", "--n", "6", "--parts", "3",
        "--no-timestamp",
    )
    assert rec["params"]["parts"] == 3
    assert rec["result"]["size"] == 10


def test_timestamp_controls(capsys):
    args = ("construct", "linked-cubes", "--n", "5")
    stamped = run_record(capsys, *args)
    assert "timestamp" in stamped
    a = run(capsys, *args, "--no-timestamp")
    b = run(capsys, *args, "--no-timestamp")
    assert a == b  # byte-identical reruns
    del stamped["timestamp"]
    assert stamped == json.loads(a[1])


def test_check_maximal_and_witness(capsys):
    good = linked_cubes(4, balanced_block(4)).to_hex()
    rec = run_record(
        capsys, "check", "--n", "4", "--k", "3", "--family", good,
        "--no-timestamp",
    )
    assert rec["result"] == {
        "size": 5,
        "kwise": True,
        "maximal": True,
        "addable_witness": None,
    }
    shaky = linked_cubes(3, 0b001).to_hex()
    rec = run_record(
        capsys, "check", "--n", "3", "--k", "3", "--family", shaky,
        "--no-timestamp",
    )
    assert rec["result"]["kwise"] is True
    assert rec["result"]["maximal"] is False
    assert isinstance(rec["result"]["addable_witness"], int)


def test_check_linked_cubes_sweep_n15_to_22(tmp_path, capsys):
    # beyond acceptance criterion 3 (n = 3..14): each intact family is
    # maximal in both modes, and a punctured copy names a witness that is a
    # non-member, no larger than the removed mask, and re-validates
    rng = random.Random(15)
    for n in range(15, 23):
        fam = linked_cubes(n, balanced_block(n))
        members = fam.member_list()
        removed = members[rng.randrange(len(members))]
        punctured = SetFamily(n, fam.bitmap & ~(1 << removed))
        for tag, f in (("intact", fam), ("punctured", punctured)):
            path = tmp_path / f"{tag}_{n}.hex"
            path.write_text(f.to_hex())
            for mode in KwiseMode:
                res = run_record(
                    capsys, "check", "--n", str(n), "--k", "3", "--mode", mode.value,
                    "--family", f"@{path}", "--no-timestamp",
                )["result"]
                assert res["size"] == len(f) and res["kwise"] is True
                if f is fam:
                    assert res["maximal"] is True and res["addable_witness"] is None
                    continue
                w = res["addable_witness"]
                assert res["maximal"] is False
                assert w not in punctured and w <= removed
                assert is_k_wise_intersecting(SetFamily(n, punctured.bitmap | 1 << w), 3, mode)


def test_closure_record(capsys):
    rec = run_record(
        capsys, "closure", "--n", "2", "--k", "3", "--family", "8",
        "--no-timestamp",
    )
    assert rec["result"]["input_size"] == 1
    assert rec["result"]["size"] == 2
    assert rec["result"]["added"] == 1
    assert rec["result"]["family"] == "9"


def test_search_min_record(capsys):
    rec = run_record(
        capsys, "search-min", "--n", "4", "--k", "3", "--no-timestamp"
    )
    assert rec["result"]["f"] == 2
    assert rec["result"]["optimal"] is True
    assert rec["result"]["lower_bound"] == 2
    assert "seconds" not in rec["result"]
    for hx in rec["result"]["witnesses"]:
        assert len(SetFamily.from_hex(4, hx)) == 2
    timed = run_record(capsys, "search-min", "--n", "3", "--k", "3")
    assert "seconds" in timed["result"]


def test_k_beyond_the_ground_answers_as_k_equal_to_9(capsys):
    """No collection on n = 3 has more than 8 distinct members, so k = 10^9
    gives the payloads of k = 9, without a reach layer per unit of k."""
    for mode in ("distinct", "repetition"):
        for family in ("ff", "fe", "f0", "01"):
            results = [
                run_record(
                    capsys, "check", "--n", "3", "--k", k, "--mode", mode,
                    "--family", family, "--no-timestamp",
                )["result"]
                for k in ("9", "1000000000")
            ]
            assert results[0] == results[1]
        results = [
            run_record(
                capsys, "search-min", "--n", "3", "--k", k, "--mode", mode, "--no-timestamp"
            )["result"]
            for k in ("9", "1000000000")
        ]
        assert results[0] == results[1]


def test_gen_coverage_record(capsys):
    fam = pair_of_cubes(4, 0b0011).to_hex()
    rec = run_record(
        capsys, "gen-coverage", "--n", "4", "--k", "2", "--family", fam,
        "--no-timestamp",
    )
    assert rec["result"]["count"] == 16
    assert rec["result"]["fraction"] == "1/1"
    assert rec["result"]["uncovered_sample"] == []


def test_disjointness_records(capsys):
    rec = run_record(
        capsys, "disjointness", "--n", "2", "--family", "f", "--elem", "1",
        "--no-timestamp",
    )
    assert rec["result"]["bipartite"] is False
    assert rec["result"]["edge_count"] == 4
    assert rec["result"]["edges"] == [[0, 1], [0, 2], [0, 3], [1, 2]]
    assert rec["result"]["edges_touching"] == 3
    rec = run_record(
        capsys, "disjointness", "--n", "2", "--family", "f", "--family", "f",
        "--no-timestamp",
    )
    assert rec["result"]["bipartite"] is True
    assert rec["result"]["edge_count"] == 9


def test_successive_calls_share_no_state(capsys):
    # one argparse tree serves every call in a process; nothing one call
    # parses may reach the next
    first = run_record(
        capsys, "disjointness", "--n", "3", "--family", "0f", "--family", "f0",
        "--elem", "2", "--seed", "5", "--no-timestamp",
    )
    second = run_record(capsys, "disjointness", "--n", "3", "--family", "7e")
    assert first["params"] == {"n": 3, "family": ["0f", "f0"], "elem": 2}
    assert second["params"] == {"n": 3, "family": ["7e"]}
    assert second["seed"] == 0 and "timestamp" in second
    assert cli._build_parser() is cli._build_parser()


def test_stats_record(capsys):
    rec = run_record(
        capsys, "stats", "--n", "3", "--family", "0f", "--family", "11",
        "--ell", "2", "--elem", "3", "--no-timestamp",
    )
    assert rec["result"]["alpha"] == "1/1"
    assert rec["result"]["beta"] == "1/2"
    assert rec["result"]["x_ratios"] == ["1/2", "1/2", "0/1"]
    assert rec["result"]["e_total"] == 8
    assert rec["result"]["e_elem"] == 4
    assert rec["result"]["theta"] == "1/1"
    assert rec["result"]["phi"] == "1/1"


def test_audit_record(capsys):
    fam = linked_cubes(9, balanced_block(9)).to_hex()
    rec = run_record(
        capsys, "audit", "--n", "9", "--family", fam, "--s", "1,2,3,4",
        "--eps", "1/8", "--no-timestamp",
    )
    assert rec["result"]["outside_count"] == 420
    assert rec["result"]["pair_bound"] == "420/1"
    assert rec["result"]["product_bound"] == 420
    assert rec["result"]["product_bound_equality"] is True
    assert rec["result"]["hypotheses_met"] is True


def test_family_from_file(tmp_path, capsys):
    hex_path = tmp_path / "fam.hex"
    hex_path.write_text(linked_cubes(4, 0b0011).to_hex() + "\n")
    rec = run_record(
        capsys, "check", "--n", "4", "--k", "3", "--family", f"@{hex_path}",
        "--no-timestamp",
    )
    assert rec["result"]["maximal"] is True


def test_sidecar_for_large_ground(tmp_path, capsys):
    ledger = tmp_path / "runs.jsonl"
    code, out, err = run(
        capsys, "construct", "pair-of-cubes", "--n", "21",
        "--out", str(ledger), "--no-timestamp",
    )
    assert code == 0 and out == ""
    rec = json.loads(ledger.read_text().strip())
    payload = rec["result"]["family"]
    assert set(payload) == {"path", "sha256"}
    sidecar = tmp_path / f"family_{payload['sha256'][:16]}.hex"
    assert str(sidecar) == payload["path"]
    text = sidecar.read_text().strip()
    assert hashlib.sha256(text.encode()).hexdigest() == payload["sha256"]
    assert rec["result"]["size"] == (1 << 10) + (1 << 11) - 1
    fam = SetFamily.from_hex(21, text)
    assert len(fam) == rec["result"]["size"]


def test_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "check", "--n", "2", "--k", "3", "--family", "zz")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "check", "--n", "2", "--k", "3")
    assert code == 2
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    code, _, err = run(capsys)
    assert code == 2
    code, _, err = run(capsys, "report", str(tmp_path / "missing.jsonl"))
    assert code == 1
    code, _, err = run(
        capsys, "check", "--n", "2", "--k", "3", "--family", "9",
        "--out", str(tmp_path / "missing" / "runs.jsonl"),
    )
    assert code == 1 and "error:" in err
    code, _, err = run(
        capsys, "audit", "--n", "5", "--family", "ff", "--s", "1", "--eps", "1/8"
    )
    assert code == 1
    fam = linked_cubes(5, balanced_block(5)).to_hex()
    ledger = tmp_path / "runs.jsonl"
    code, out, err = run(
        capsys, "audit", "--n", "5", "--family", fam, "--s", "1,2", "--eps", "1/0",
        "--out", str(ledger),
    )
    assert code == 1 and "error:" in err and "eps" in err
    assert out == "" and not ledger.exists()
    code, out, err = run(capsys, "check", "--n", "4", "--k", "3", "--family", "0x0f")
    assert code == 1 and "0-9a-f" in err and out == ""


def test_huge_eps_exponent_or_ell_exits_at_once(capsys):
    # Fraction would build 10^999999999 for this eps, and stats a
    # 2^4000000000 scale for this ell: both are refused before any work
    fam = linked_cubes(5, balanced_block(5)).to_hex()
    start = time.monotonic()
    code, out, err = run(
        capsys, "audit", "--n", "5", "--family", fam, "--s", "1,2", "--eps", "1e999999999"
    )
    assert code == 1 and "error:" in err and "eps" in err and out == ""
    code, out, err = run(
        capsys, "stats", "--n", "3", "--family", "0f", "--family", "11",
        "--ell", "4000000000",
    )
    assert code == 1 and "error:" in err and "ell" in err and out == ""
    assert time.monotonic() - start < 0.5


@pytest.mark.parametrize("construction", ["linked-cubes", "pair-of-cubes", "series-of-cubes"])
def test_construct_rejects_oversized_ground(capsys, construction):
    code, out, err = run(capsys, "construct", construction, "--n", "40", "--parts", "1")
    assert code == 1 and "ground size" in err and out == ""


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_search_min_rejects_non_finite_budget(tmp_path, capsys, budget):
    ledger = tmp_path / "runs.jsonl"
    code, out, err = run(
        capsys, "search-min", "--n", "3", "--k", "3", "--budget", budget,
        "--out", str(ledger),
    )
    assert code == 1 and "budget" in err
    assert out == ""
    assert not ledger.exists() or ledger.read_text() == ""


def build_ledger(path, capsys, entries):
    for argv in entries:
        code, out, err = run(capsys, *argv, "--out", str(path), "--no-timestamp")
        assert code == 0, err


def test_report_tables(tmp_path, capsys):
    ledger = tmp_path / "runs.jsonl"
    good4 = linked_cubes(4, balanced_block(4)).to_hex()
    good3 = linked_cubes(3, balanced_block(3)).to_hex()
    build_ledger(
        ledger,
        capsys,
        [
            ("search-min", "--n", "3", "--k", "3"),
            ("search-min", "--n", "4", "--k", "3"),
            ("search-min", "--n", "3", "--k", "3"),  # duplicate, consistent
            ("check", "--n", "4", "--k", "3", "--family", good4),
            ("check", "--n", "3", "--k", "3", "--family", good3),
            ("check", "--n", "4", "--k", "3", "--family", "0" * 4),  # not linked
        ],
    )
    with ledger.open("a") as fh:
        fh.write("not json at all\n\n")
    code, out, err = run(capsys, "report", str(ledger), "--no-timestamp")
    assert code == 0
    assert "skipped 1 malformed" in err

    f_table = tmp_path / "runs_f_table.csv"
    m_table = tmp_path / "runs_linked_cubes_maximality.csv"
    with f_table.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "n", "k", "mode", "f", "balanced_pair_size", "series_size", "janzer_size",
    ]
    assert rows[1:] == [
        ["3", "3", "distinct", "2", "3", "", ""],
        ["4", "3", "distinct", "2", "5", "7", "5"],
    ]
    with m_table.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "k", "mode", "size", "maximal"]
    assert rows[1:] == [
        ["3", "3", "distinct", "3", "False"],
        ["4", "3", "distinct", "5", "True"],
    ]
    rec = json.loads(out.strip())
    assert rec["command"] == "report"
    assert rec["result"]["f_rows"] == 2
    assert rec["result"]["maximality_rows"] == 2
    assert rec["result"]["skipped_lines"] == 1


def test_report_empty_ledger(tmp_path, capsys):
    ledger = tmp_path / "empty.jsonl"
    ledger.write_text("")
    code, out, err = run(capsys, "report", str(ledger), "--no-timestamp")
    assert code == 0
    with (tmp_path / "empty_f_table.csv").open() as fh:
        assert len(list(csv.reader(fh))) == 1


def test_report_integrity_violation(tmp_path, capsys):
    ledger = tmp_path / "bad.jsonl"
    base = {
        "schema_version": 3,
        "command": "search-min",
        "params": {"n": 3, "k": 3, "mode": "distinct", "budget": 60.0},
        "seed": 0,
    }
    with ledger.open("w") as fh:
        fh.write(json.dumps({**base, "result": {"f": 2}}) + "\n")
        fh.write(json.dumps({**base, "result": {"f": 3}}) + "\n")
    code, out, err = run(capsys, "report", str(ledger), "--no-timestamp")
    assert code == 1
    assert "integrity violation" in err
    assert out == ""
    assert not (tmp_path / "bad_f_table.csv").exists()
    assert not (tmp_path / "bad_linked_cubes_maximality.csv").exists()


def test_report_compares_records_within_one_schema_version(tmp_path, capsys):
    # the node count of search-min changed with schema version 2, so a
    # ledger that spans the change holds both counts for one run
    base = {
        "command": "search-min",
        "params": {"n": 4, "k": 3, "mode": "distinct", "budget": 60.0},
        "seed": 0,
    }
    v1 = {**base, "schema_version": 1, "result": {"f": 2, "nodes": 214}}
    v2 = {**base, "schema_version": 2, "result": {"f": 2, "nodes": 136}}
    v2_other = {**v2, "result": {"f": 2, "nodes": 137}}
    ledger = tmp_path / "spans.jsonl"
    ledger.write_text(json.dumps(v1) + "\n" + json.dumps(v2) + "\n")
    code, out, err = run(capsys, "report", str(ledger), "--no-timestamp")
    assert code == 0, err
    assert json.loads(out)["result"]["f_rows"] == 1
    ledger.write_text(json.dumps(v2) + "\n" + json.dumps(v2_other) + "\n")
    code, out, err = run(capsys, "report", str(ledger), "--no-timestamp")
    assert code == 1
    assert "integrity violation for search-min" in err


def test_report_skips_non_object_params_or_result(tmp_path, capsys):
    ledger = tmp_path / "odd.jsonl"
    records = [
        {"command": "search-min", "params": {"n": 3, "k": 3}, "result": None},
        {"command": "check", "params": [], "result": {"size": 3}},
        {"command": "search-min", "params": {"n": 3, "k": 3, "mode": "distinct"},
         "result": {"f": 2}},
    ]
    ledger.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    code, out, err = run(capsys, "report", str(ledger), "--no-timestamp")
    assert code == 0, err
    assert "skipped 2 malformed" in err
    rec = json.loads(out)
    assert rec["result"]["skipped_lines"] == 2
    assert rec["result"]["f_rows"] == 1


def test_report_skips_search_records_out_of_range(tmp_path, capsys):
    """Records with an n or k that search-min could not have written are
    left out of the f table; a huge n neither aborts nor allocates."""
    ledger = tmp_path / "forged.jsonl"
    bad = [(30000, 3), (-5, 3), (0, 3), (8, 3), (True, 3), (5, 1), (5, "3"), (5, 2.0)]
    records = [
        {"command": "search-min", "params": {"n": n, "k": k, "mode": "distinct"},
         "result": {"f": 2}}
        for n, k in bad + [(5, 3)]
    ]
    ledger.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    code, out, err = run(capsys, "report", str(ledger), "--no-timestamp")
    assert code == 0, err
    assert json.loads(out)["result"]["f_rows"] == 1
    with (tmp_path / "forged_f_table.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[1:] == [["5", "3", "distinct", "2", "9", "", ""]]


SEARCH_PARAMS = {"n": 3, "k": 3, "mode": "distinct", "budget": 60.0}
LC3_PARAMS = {"n": 3, "k": 3, "mode": "distinct", "family": linked_cubes(3, balanced_block(3)).to_hex()}


@pytest.mark.parametrize(
    "record, skipped, f_rows, maximality_rows",
    [
        ({"command": ["search-min"], "params": SEARCH_PARAMS, "result": {"f": 2}}, 1, 0, 0),
        ({"command": {"name": "check"}, "params": LC3_PARAMS, "result": {"size": 3}}, 1, 0, 0),
        ({"command": "search-min", "params": SEARCH_PARAMS, "seed": [0], "result": {"f": 2}}, 0, 1, 0),
        ({"command": "search-min", "params": SEARCH_PARAMS, "seed": {"a": 0}, "result": {"f": 2}}, 0, 1, 0),
        ({"command": "search-min", "params": {**SEARCH_PARAMS, "mode": ["distinct"]}, "result": {"f": 2}}, 0, 0, 0),
        ({"command": "search-min", "params": {**SEARCH_PARAMS, "mode": "bogus"}, "result": {"f": 2}}, 0, 0, 0),
        ({"command": "check", "params": {**LC3_PARAMS, "k": [3]}, "result": {"size": 3}}, 0, 0, 0),
        ({"command": "check", "params": {**LC3_PARAMS, "k": 1}, "result": {"size": 3}}, 0, 0, 0),
        ({"command": "check", "params": {**LC3_PARAMS, "mode": {"m": 1}}, "result": {"size": 3}}, 0, 0, 0),
        ({"command": "check", "params": LC3_PARAMS, "seed": [0], "result": {"size": 3}}, 0, 0, 1),
    ],
    ids=[
        "command-array", "command-object", "seed-array", "seed-object",
        "search-mode-array", "search-mode-bogus", "check-k-array", "check-k-one",
        "check-mode-object", "check-seed-array",
    ],
)
def test_report_survives_json_values_where_scalars_belong(
    tmp_path, capsys, record, skipped, f_rows, maximality_rows
):
    """A JSON array or object in a record's command, seed, k or mode skips
    the line or the row; the report still exits 0 with its counts."""
    ledger = tmp_path / "odd.jsonl"
    ledger.write_text(json.dumps(record) + "\n")
    code, out, err = run(capsys, "report", str(ledger), "--no-timestamp")
    assert code == 0, err
    assert "Traceback" not in err
    result = json.loads(out)["result"]
    assert result["skipped_lines"] == skipped
    assert (result["f_rows"], result["maximality_rows"]) == (f_rows, maximality_rows)


def test_report_ignores_volatile_divergence(tmp_path, capsys):
    ledger = tmp_path / "ok.jsonl"
    base = {
        "schema_version": 3,
        "command": "search-min",
        "params": {"n": 3, "k": 3, "mode": "distinct", "budget": 60.0},
        "seed": 0,
    }
    with ledger.open("w") as fh:
        fh.write(json.dumps({**base, "result": {"f": 2, "seconds": 0.1}}) + "\n")
        fh.write(json.dumps({**base, "result": {"f": 2, "seconds": 0.9}}) + "\n")
    code, out, err = run(capsys, "report", str(ledger), "--no-timestamp")
    assert code == 0


DATA = Path(__file__).parent / "data"
LC5 = linked_cubes(5, balanced_block(5)).to_hex()
LC7 = linked_cubes(7, balanced_block(7)).to_hex()
PINNED_SCRIPT = [
    ("construct", "linked-cubes", "--n", "5"),
    ("construct", "pair-of-cubes", "--n", "4", "--s", "1,3"),
    ("construct", "series-of-cubes", "--n", "6", "--parts", "3"),
    ("construct", "pair-of-cubes", "--n", "21"),  # family goes to a sidecar
    ("check", "--n", "5", "--k", "3", "--family", LC5),
    ("check", "--n", "5", "--k", "3", "--mode", "repetition", "--family", LC5),
    ("check", "--n", "3", "--k", "3", "--family", linked_cubes(3, 0b001).to_hex()),
    ("closure", "--n", "4", "--k", "3", "--family", "0028"),
    ("closure", "--n", "4", "--k", "3", "--mode", "repetition", "--family", "0028"),
    ("gen-coverage", "--n", "4", "--k", "2", "--family", "0116"),
    ("disjointness", "--n", "3", "--family", "7e", "--elem", "2"),
    ("disjointness", "--n", "3", "--family", "0f", "--family", "f0"),
    ("disjointness", "--n", "9", "--family", "f" * 128),  # edges truncated
    ("stats", "--n", "3", "--family", "0f", "--family", "11", "--ell", "2", "--elem", "2"),
    ("stats", "--n", "3", "--family", "0f", "--family", "11", "--ell", "2"),
    ("search-min", "--n", "4", "--k", "3"),
    ("search-min", "--n", "4", "--k", "3", "--mode", "repetition"),
    ("audit", "--n", "7", "--family", LC7, "--s", "1,2,3", "--eps", "1/4"),
    ("audit", "--n", "7", "--family", LC7, "--s", "4,5,6", "--eps", "1/4"),  # unmet
    ("report", "runs.jsonl"),
]


def test_ledger_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    # the ledger schema against frozen fixtures: every subcommand, both
    # modes, both disjointness forms, a sidecar; only the tmp path varies
    monkeypatch.chdir(tmp_path)
    for argv in PINNED_SCRIPT:
        code, out, err = run(
            capsys, *argv, "--seed", "7", "--no-timestamp", "--out", "runs.jsonl"
        )
        assert code == 0 and out == "", err
    ledger = (tmp_path / "runs.jsonl").read_text(encoding="utf-8")
    pinned = (DATA / "pinned_runs.jsonl").read_text(encoding="utf-8")
    assert ledger.replace(str(tmp_path.resolve()), "<tmp>") == pinned
    for table in ("f_table", "linked_cubes_maximality"):
        got = (tmp_path / f"runs_{table}.csv").read_bytes()
        assert got == (DATA / f"pinned_runs_{table}.csv").read_bytes()
    sidecars = list(tmp_path.glob("family_*.hex"))
    assert len(sidecars) == 1
    digest = hashlib.sha256(sidecars[0].read_text().strip().encode()).hexdigest()
    assert sidecars[0].name == f"family_{digest[:16]}.hex"


def test_params_are_the_parsed_arguments(tmp_path, monkeypatch):
    # a record's params is its command line as parsed, less the flags that
    # describe the ledger line and the optionals left unset; only a block
    # (construct, audit), construct's unread --s or --parts and the default
    # stats pivot are rewritten
    monkeypatch.chdir(tmp_path)
    for argv in PINNED_SCRIPT:
        assert main([*argv, "--no-timestamp", "--out", "runs.jsonl"]) == 0
    records = [json.loads(line) for line in Path("runs.jsonl").read_text().splitlines()]
    assert [rec["command"] for rec in records] == [argv[0] for argv in PINNED_SCRIPT]
    rewritten = {"construct": {"s", "parts"}, "stats": {"elem"}, "audit": {"s"}}
    for argv, rec in zip(PINNED_SCRIPT, records):
        parsed = vars(cli._build_parser().parse_args(argv))
        skip = {"command", "out", "seed", "no_timestamp", *rewritten.get(argv[0], ())}
        expected = {k: v for k, v in parsed.items() if k not in skip and v is not None}
        assert {k: v for k, v in rec["params"].items() if k not in skip} == expected
        if argv[0] == "construct":
            series = argv[1] == "series-of-cubes"
            assert ("parts" in rec["params"]) == series
            assert ("s" in rec["params"]) != series
