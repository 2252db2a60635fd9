"""Command-line surface with an append-only JSONL result ledger.

Each subcommand maps to one library operation and appends a single
record to the ledger (default stdout):

    {"schema_version": 3, "command": ..., "params": {...}, "seed": ...,
     "result": {...}, "timestamp": "..."}

params holds the command's parsed arguments, less the ledger-wide flags
and the optionals left unset; a block is recorded as its element list
and stats records its default pivot.  result holds only what the run
found: stats and audit write every field of their library result.
Identical (command, params, seed) runs produce identical result payloads
once timing fields are set aside; --no-timestamp drops those fields so
reruns are byte-identical.
Families whose bitmaps exceed the inline limit are written to sidecar
files and referenced by path plus content hash.  Exit codes: 0 success,
1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, Tuple

from .bitops import (
    check_ground,
    family_full_bitmap,
    iter_bits,
    mask_elements,
    mask_from_elements,
)
from .constructions import (
    Partition,
    balanced_block,
    janzer_size,
    linked_cubes,
    linked_cubes_size,
    pair_of_cubes,
    series_of_cubes,
    series_of_cubes_size,
)
from .core import KwiseMode, ReachState, SetFamily, _check_k, maximal_closure
from .disjointness import build_bipartite, build_graph, count_edges_touching, stability_stats
from .generator import coverage
from .search import (
    MAX_SEARCH_GROUND,
    SearchConfig,
    _first_below_k_size,
    audit_claim_counts,
    canonical_form,
    search_min,
)

SCHEMA_VERSION = 3
INLINE_FAMILY_BITS = 1 << 20
MAX_INLINE_EDGES = 4096
VOLATILE_RESULT_KEYS = ("seconds",)


def _encode(value: Any) -> str:
    """The one JSON encoding a ledger record needs beyond plain JSON types."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"{type(value).__name__} has no ledger encoding")


def _parse_family(n: int, text: str) -> SetFamily:
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
    return SetFamily.from_hex(n, text)


def _parse_elements(n: int, text: str) -> int:
    elems = [int(t) for t in text.split(",") if t.strip()]
    return mask_from_elements(elems, n)


def _family_payload(family: SetFamily, out: str | None) -> Any:
    """Inline hex for small grounds, path plus sha256 sidecar for large ones,
    written next to the ledger file out, or to the working directory."""
    text = family.to_hex()
    if (1 << family.n) <= INLINE_FAMILY_BITS:
        return text
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    sidecar_dir = Path(out).resolve().parent if out else Path.cwd()
    path = sidecar_dir / f"family_{digest[:16]}.hex"
    path.write_text(text + "\n", encoding="ascii")
    return {"path": str(path), "sha256": digest}


def _cmd_check(args, params: Dict[str, Any]) -> Dict[str, Any]:
    fam = _parse_family(args.n, args.family)
    state = ReachState.of(fam, args.k, KwiseMode(args.mode))
    kwise = state.intersecting()
    addable = state.addable() if kwise else 0
    maximal = kwise and not addable
    witness = (addable & -addable).bit_length() - 1 if addable else None
    return {
        "size": state.size,
        "kwise": kwise,
        "maximal": maximal,
        "addable_witness": witness,
    }


def _cmd_closure(args, params: Dict[str, Any]) -> Dict[str, Any]:
    fam = _parse_family(args.n, args.family)
    closed = maximal_closure(fam, args.k, KwiseMode(args.mode))
    return {
        "input_size": len(fam),
        "size": len(closed),
        "added": len(closed) - len(fam),
        "family": _family_payload(closed, args.out),
    }


def _cmd_construct(args, params: Dict[str, Any]) -> Dict[str, Any]:
    name = args.construction
    # each construction records the one of --s and --parts that it reads
    if name == "series-of-cubes":
        fam = series_of_cubes(Partition.contiguous(args.n, args.parts))
        params.pop("s", None)
    else:
        s = _parse_elements(args.n, args.s) if args.s is not None else balanced_block(args.n)
        fam = linked_cubes(args.n, s) if name == "linked-cubes" else pair_of_cubes(args.n, s)
        params["s"] = mask_elements(s)
        del params["parts"]
    return {"size": len(fam), "family": _family_payload(fam, args.out)}


def _cmd_gen_coverage(args, params: Dict[str, Any]) -> Dict[str, Any]:
    fam = _parse_family(args.n, args.family)
    cov = coverage(fam, args.k)
    uncovered = family_full_bitmap(args.n) & ~cov.covered.bitmap
    sample = list(itertools.islice(iter_bits(uncovered), 8))
    return {
        "count": cov.count,
        "fraction": cov.fraction,
        "uncovered_sample": sample,
    }


def _cmd_disjointness(args, params: Dict[str, Any]) -> Dict[str, Any]:
    fams = [_parse_family(args.n, f) for f in args.family]
    if len(fams) == 1:
        graph = build_graph(fams[0])
    elif len(fams) == 2:
        graph = build_bipartite(fams[0], fams[1])
    else:
        raise ValueError("disjointness expects one or two --family values")
    edge_count = graph.edge_count()
    result: Dict[str, Any] = {
        "bipartite": graph.bipartite,
        "left_size": len(graph.left),
        "right_size": len(graph.right),
        "edge_count": edge_count,
    }
    if edge_count <= MAX_INLINE_EDGES:
        result["edges"] = [[u, v] for u, v in graph.edges()]
    else:
        result["edges_truncated"] = True
    if args.elem is not None:
        result["edges_touching"] = count_edges_touching(graph, args.elem)
    return result


def _cmd_stats(args, params: Dict[str, Any]) -> Dict[str, Any]:
    if len(args.family) != 2:
        raise ValueError("stats expects exactly two --family values")
    x = _parse_family(args.n, args.family[0])
    y = _parse_family(args.n, args.family[1])
    params["elem"] = args.elem if args.elem is not None else args.n
    return dataclasses.asdict(stability_stats(x, y, args.ell, params["elem"]))


def _cmd_search_min(args, params: Dict[str, Any]) -> Dict[str, Any]:
    config = SearchConfig(n=args.n, k=args.k, mode=KwiseMode(args.mode), budget=args.budget)
    report = search_min(config)
    return {
        "f": report.f_value,
        "witnesses": [w.to_hex() for w in report.witnesses],
        "matched_linked_cubes": list(report.matched_linked_cubes),
        "nodes": report.nodes_explored,
        "seconds": round(report.elapsed, 6),
        "optimal": report.optimal,
        "lower_bound": report.lower_bound,
    }


def _cmd_audit(args, params: Dict[str, Any]) -> Dict[str, Any]:
    fam = _parse_family(args.n, args.family)
    s = _parse_elements(args.n, args.s)
    params["s"] = mask_elements(s)
    return dataclasses.asdict(audit_claim_counts(fam, s, args.eps))


def _stable_payload(result: Dict[str, Any]) -> str:
    trimmed = {k: v for k, v in result.items() if k not in VOLATILE_RESULT_KEYS}
    family = trimmed.get("family")
    if isinstance(family, dict):  # a sidecar's path names the directory the run wrote to
        trimmed["family"] = {k: v for k, v in family.items() if k != "path"}
    return json.dumps(trimmed, sort_keys=True)


def _ledger_record(line: str) -> Any:
    """A ledger line as a record, or None when the line is malformed."""
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError):  # a line nested too deeply to parse is malformed too
        return None
    if isinstance(rec, dict) and isinstance(rec.get("command"), str):
        if all(isinstance(rec.get(key), dict) for key in ("params", "result")):
            return rec
    return None


def _size_or_blank(size, *args: int) -> Any:
    """A construction's size, or "" where the construction is undefined."""
    try:
        return size(*args)
    except ValueError:
        return ""


def _search_fault(n: int, k: int, mode: KwiseMode, result: Dict[str, Any]) -> str | None:
    """Why a search-min result cannot be what the search wrote, or None
    when f is the floor and each witness is an inline family of f
    members, maximal and its own canonical form.  The floor is the
    minimum by the below-k rule, whatever schema version wrote the
    record."""
    floor = _first_below_k_size(n, k, mode)
    if result["f"] != floor:
        return f"f is {result['f']!r}, not the floor {floor}"
    witnesses = result.get("witnesses", [])
    if not isinstance(witnesses, list):
        return "witnesses are not a list"
    for text in witnesses:
        try:
            fam = SetFamily.from_hex(n, text)
        except (AttributeError, ValueError):  # a witness that is no string has no strip
            return f"witness {text!r} does not parse"
        if fam.size != result["f"]:
            return f"witness {text!r} does not have f members"
        if not ReachState.of(fam, k, mode).maximal():
            return f"witness {text!r} is not maximal"
        if canonical_form(fam) != fam:
            return f"witness {text!r} is not a canonical form"
    return None


def _write_table(path: Path, header, rows: Dict[Any, list]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows[key] for key in sorted(rows))


def _cmd_report(args, params: Dict[str, Any]) -> Dict[str, Any]:
    path = Path(args.ledger)
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    records = [rec for rec in map(_ledger_record, lines) if rec is not None]
    malformed = len(lines) - len(records)
    if malformed:
        print(f"warning: skipped {malformed} malformed ledger line(s)", file=sys.stderr)

    seen: Dict[str, str] = {}
    tables: Dict[str, Dict[Tuple[int, int, str], list]] = {"search-min": {}, "check": {}}
    balanced_hex = functools.cache(lambda n: linked_cubes(n, balanced_block(n)).to_hex())
    for rec in records:
        command, params, result = rec["command"], rec["params"], rec["result"]
        n, k, mode, family = (params.get(key) for key in ("n", "k", "mode", "family"))
        # a format version may change a result, so records agree only within
        # one; params do not fix what a report read from its ledger or an
        # @path family from its file, so those records are not compared
        families = family if isinstance(family, list) else [family]
        if command != "report" and not any(str(f).startswith("@") for f in families):
            identity = [command, params, rec.get("seed"), rec.get("schema_version")]
            key, payload = json.dumps(identity, sort_keys=True), _stable_payload(result)
            if seen.setdefault(key, payload) != payload:
                raise ValueError(f"ledger integrity violation for {command}: {key}")
        try:  # only an n, k and mode that the command itself could have written
            check_ground(n)
            _check_k(k)
            KwiseMode(mode)
        except ValueError:
            continue
        if command == "search-min" and n <= MAX_SEARCH_GROUND and result.get("f") is not None:
            fault = _search_fault(n, k, KwiseMode(mode), result)
            if fault:
                raise ValueError(f"ledger integrity violation for {command}: {fault}")
            sizes = [(linked_cubes_size, n // 2), (series_of_cubes_size, k - 1), (janzer_size, k)]
            row = [result["f"], *(_size_or_blank(size, n, j) for size, j in sizes)]
        elif command == "check" and n >= 2 and isinstance(family, str):
            if family.strip().lower() != balanced_hex(n):
                continue
            row = [result.get("size"), result.get("maximal")]
        else:
            continue
        tables[command].setdefault((n, k, mode), [n, k, mode, *row])

    base = path.with_suffix("")
    f_path = Path(f"{base}_f_table.csv")
    m_path = Path(f"{base}_linked_cubes_maximality.csv")
    f_header = ["n", "k", "mode", "f", "balanced_pair_size", "series_size", "janzer_size"]
    _write_table(f_path, f_header, tables["search-min"])
    _write_table(m_path, ["n", "k", "mode", "size", "maximal"], tables["check"])
    return {
        "f_table": str(f_path),
        "maximality_table": str(m_path),
        "f_rows": len(tables["search-min"]),
        "maximality_rows": len(tables["check"]),
        "skipped_lines": malformed,
    }


_HANDLERS = {
    "check": _cmd_check,
    "closure": _cmd_closure,
    "construct": _cmd_construct,
    "gen-coverage": _cmd_gen_coverage,
    "disjointness": _cmd_disjointness,
    "stats": _cmd_stats,
    "search-min": _cmd_search_min,
    "audit": _cmd_audit,
    "report": _cmd_report,
}


def _emit_record(args, params: Dict[str, Any], result: Dict[str, Any]) -> None:
    record: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "params": params,
        "seed": args.seed,
        "result": result,
    }
    if args.no_timestamp:
        for key in VOLATILE_RESULT_KEYS:
            result.pop(key, None)
    else:
        record["timestamp"] = datetime.now(timezone.utc).isoformat()
    line = json.dumps(record, sort_keys=True, separators=(",", ":"), default=_encode)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    else:
        print(line)


def _parent(flag: str, **spec: Any) -> argparse.ArgumentParser:
    """A help-less parser holding one argument, shared by subcommands as a parent."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(flag, **spec)
    return parent


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="kwise",
        description="Construct, check, and search maximal k-wise intersecting set families.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="ledger file to append to (default: stdout)")
    common.add_argument("--seed", type=int, default=0, help="recorded in every ledger line")
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timestamp and timing fields so reruns are byte-identical",
    )
    n_arg = _parent("--n", type=int, required=True)
    k_arg = _parent("--k", type=int, required=True)
    mode_arg = _parent("--mode", choices=[m.value for m in KwiseMode], default="distinct")
    family_arg = _parent("--family", required=True, help="hex bitmap, or @path to a hex file")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, text: str, *shared: argparse.ArgumentParser):
        return sub.add_parser(name, parents=[common, n_arg, *shared], help=text)

    command("check", "k-wise and maximality verdicts", k_arg, mode_arg, family_arg)
    command("closure", "grow a family to a maximal one", k_arg, mode_arg, family_arg)

    p = command("construct", "emit a reference construction")
    p.add_argument(
        "construction",
        choices=["pair-of-cubes", "linked-cubes", "series-of-cubes"],
    )
    p.add_argument("--s", help="comma-separated block elements (default: balanced block)")
    p.add_argument("--parts", type=int, default=2, help="block count for series-of-cubes")

    command("gen-coverage", "k-step coverage of a family", k_arg, family_arg)

    p = command("disjointness", "disjointness graph edge list")
    p.add_argument(
        "--family",
        action="append",
        required=True,
        help="hex bitmap or @path; give twice for the bipartite graph",
    )
    p.add_argument("--elem", type=int, help="also count edges touching this element")

    p = command("stats", "stability statistics for two families")
    p.add_argument("--family", action="append", required=True, help="give exactly twice")
    p.add_argument("--ell", type=int, required=True, help="scale exponent for the ratios")
    p.add_argument("--elem", type=int, help="pivot element (default: n)")

    p = command("search-min", "exact minimum maximal-family size", k_arg, mode_arg)
    p.add_argument("--budget", type=float, default=60.0, help="wall-clock seconds")

    p = command("audit", "exact counting audit for a cube split", family_arg)
    p.add_argument("--s", required=True, help="comma-separated block elements")
    p.add_argument("--eps", required=True, help="rational slack, e.g. 1/8")

    p = sub.add_parser("report", parents=[common], help="render CSV tables from a ledger")
    p.add_argument("ledger", help="path to a JSONL ledger")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    # the run's own arguments; the ledger-wide flags describe the line
    params = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "out", "seed", "no_timestamp") and value is not None
    }
    try:
        result = _HANDLERS[args.command](args, params)
        _emit_record(args, params, result)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
