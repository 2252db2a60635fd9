"""The benchmark's workloads: seeded inputs, operation lists, output checks.

Each workload turns a seed into inputs, then into a fixed list of
top-level operations.  An operation is one `kwise.cli.main` command or one
library call; each carries a check of its own output.  Library functions
are looked up on the `kwise` package when an operation runs, so the span
tracer sees the calls.

Why these three: each spends most of its time in a different layer, so an
optimisation of one layer has a workload that exercises it and one that
should not move.  A workload's `stress` names the share metric of the
traced run that should be above 50% on it.

- verify-linked: few, very large bitmaps.  `kwise check` on relabeled
  balanced linked cubes at n = 16..20; the reach-layer fold in
  `project_intersect_bits` dominates.
- closure-grow: the same core layer, writing.  `maximal_closure` adds
  thousands of members one at a time and recomputes the blocked set after
  each, so `up_close_bits` and `reverse_index_bits` dominate.  The only
  workload that reaches `generator`.
- search-small: many tiny bitmaps.  `kwise search-min` at n <= 7,
  `canonical_form` at n = 7..8 and exact `min_bipartization`; Python call
  overhead and the permutation scan dominate, bitops is close to zero.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import kwise
from kwise.core import KwiseMode

DISTINCT = KwiseMode.DISTINCT
REPETITION = KwiseMode.WITH_REPETITION
# the intersection order of verify-linked and closure-grow
K = 3
# ground-set size of search-small's disjointness graphs
GRAPH_N = 6


@dataclass
class Op:
    """One top-level operation and the check of what it returned.

    `check` returns None when the output is right, or a message saying
    what is wrong.
    """

    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


class Ledger:
    """A JSONL ledger file that CLI operations append to, read back one record at a time."""

    def __init__(self, path: Path):
        self.path = path
        path.write_text("")
        self.offset = 0

    def argv(self, *args: str) -> List[str]:
        return [*args, "--no-timestamp", "--out", str(self.path)]

    def size(self) -> int:
        return self.path.stat().st_size

    def take(self) -> Dict[str, Any]:
        """The record appended since the last call; exactly one is expected."""
        with self.path.open("rb") as fh:
            fh.seek(self.offset)
            data = fh.read()
        self.offset += len(data)
        lines = data.decode("utf-8").splitlines()
        if len(lines) != 1:
            raise ValueError(f"expected one new ledger record, got {len(lines)}")
        return json.loads(lines[0])


def cli_op(kind: str, label: str, ledger: Ledger, args: Sequence[str],
           check: Callable[[Dict[str, Any]], Optional[str]]) -> Op:
    argv = ledger.argv(*args)

    def run_check(code: int) -> Optional[str]:
        if code != 0:
            ledger.offset = ledger.size()
            return f"exit code {code}"
        return check(ledger.take()["result"])

    return Op(kind, label, lambda: kwise.cli.main(argv), run_check)


def relabel(masks, perm: Sequence[int]) -> List[int]:
    """Apply a coordinate permutation (bit i -> bit perm[i]) to each mask."""
    out = []
    for m in masks:
        r = 0
        for i, p in enumerate(perm):
            if (m >> i) & 1:
                r |= 1 << p
        out.append(r)
    return out


def interleave(*kinds: List[List[Op]]) -> List[Op]:
    """Round-robin over kinds of operation groups: the first group of each
    kind, then the second of each, and so on."""
    ops: List[Op] = []
    for i in range(max(len(groups) for groups in kinds)):
        for groups in kinds:
            if i < len(groups):
                ops.extend(groups[i])
    return ops


def expect(cond: bool, message: str) -> Optional[str]:
    return None if cond else message


class VerifyLinked:
    name = "verify-linked"
    stress = "share.project_intersect_bits"

    def __init__(self, ns: Sequence[int] = range(16, 21),
                 punctured_ns: Sequence[int] = range(16, 19)):
        # every n is checked intact, the smaller ones also punctured in the
        # other mode; n = 20 is the largest the dense fold reaches in seconds
        self.ns = tuple(ns)
        self.punctured_ns = tuple(punctured_ns)

    def build(self, seed: int, workdir: Path) -> List[Op]:
        rng = random.Random(seed)
        ledger = Ledger(workdir / "verify.jsonl")
        ops: List[Op] = []
        for n in self.ns:
            # a relabeling of the balanced linked cubes is the linked cubes
            # of the relabeled block
            perm = rng.sample(range(n), n)
            block = sum(1 << perm[i] for i in range(n // 2))
            fam = kwise.linked_cubes(n, block)
            size = (1 << -(-n // 2)) + (1 << (n // 2)) - 3
            mode = DISTINCT if n % 2 == 0 else REPETITION
            ops.append(self._check_op(ledger, workdir, fam, mode, size, None))
            if n in self.punctured_ns:
                members = fam.member_list()
                removed = members[rng.randrange(len(members))]
                punctured = kwise.SetFamily(n, fam.bitmap & ~(1 << removed))
                other = REPETITION if mode is DISTINCT else DISTINCT
                ops.append(self._check_op(ledger, workdir, punctured, other, size - 1, removed))
        return ops

    def _check_op(self, ledger: Ledger, workdir: Path, fam, mode: KwiseMode, size: int,
                  removed: Optional[int]) -> Op:
        n = fam.n
        tag = "intact" if removed is None else "punctured"
        path = workdir / f"linked_n{n}_{tag}.hex"
        path.write_text(fam.to_hex() + "\n", encoding="ascii")
        bitmap = fam.bitmap

        def check(res: Dict[str, Any]) -> Optional[str]:
            if res["size"] != size:
                return f"size {res['size']} != {size}"
            if res["kwise"] is not True:
                return "not k-wise"
            if removed is None:
                return expect(res["maximal"] is True and res["addable_witness"] is None,
                              "linked cubes not reported maximal")
            w = res["addable_witness"]
            if res["maximal"] is not False or not isinstance(w, int):
                return "punctured copy reported maximal"
            if (bitmap >> w) & 1:
                return f"witness {w} is a member"
            return expect(w <= removed, f"witness {w} > removed mask {removed}")

        args = ("check", "--n", str(n), "--k", str(K), "--mode", mode.value,
                "--family", f"@{path}")
        return cli_op("check", f"check n={n} {mode.value} {tag}", ledger, args, check)


class ClosureGrow:
    name = "closure-grow"
    stress = "share.up_close_reverse"

    # One seed family at n = 13 and four at n = 14, each closed in both
    # modes, so that the closures, and in them the blocked-set recompute,
    # take most of the round; the larger bitmaps at n = 14 are where
    # up_close_bits and reverse_index_bits outweigh the per-call overhead.
    # Of the 14 operations the eight closures at n = 14 are the slowest,
    # so op_p50_ms falls among them.
    def __init__(self, families: Sequence[Tuple[int, int]] = ((13, 1), (14, 4))):
        self.families = tuple(families)

    def build(self, seed: int, workdir: Path) -> List[Op]:
        rng = random.Random(seed)
        closures: List[List[List[Op]]] = []
        checks: List[Op] = []
        for n, count in self.families:
            closure_ops, check_ops = self._star_ops(rng, n, count)
            closures.append([[op] for op in closure_ops])
            checks.extend(check_ops)
        return interleave(*closures) + checks

    def _star_ops(self, rng: random.Random, n: int, count: int) -> Tuple[List[Op], List[Op]]:
        # Each seed family holds two members meeting in exactly {a}, which
        # forces every maximal 3-wise extension to be the star of a.  So
        # every closure adds 2^(n-1) - size members whatever the seed, and
        # the work per round does not swing with the random family as it
        # does for unconstrained seeds, whose closures land anywhere from
        # 2^(n-2) to 2^(n-1) members.  All seed families at one n share a,
        # so their closures agree and the common result is checked for
        # maximality and for the generator correspondence once.
        a = 1 << rng.randrange(n)
        rest = ((1 << n) - 1) & ~a
        star = sum(1 << m for m in range(1 << n) if m & a)
        state: Dict[str, Any] = {}
        closures: List[Op] = []
        for _ in range(count):
            b = rng.getrandbits(n) & rest
            masks = {a | b, a | (rest & ~b)}
            size = rng.randint(3, 8)
            while len(masks) < size:
                masks.add(a | (rng.getrandbits(n) & rest))
            seed_fam = kwise.SetFamily.from_masks(n, sorted(masks))
            for mode in (DISTINCT, REPETITION):
                closures.append(self._closure_op(seed_fam, mode, star, state))
        tag = f"n={n} star"
        checks = [
            Op("is_maximal", f"is_maximal {tag}",
               lambda: kwise.is_maximal_k_wise(state["closed"], K, DISTINCT),
               lambda out: expect(out is True, "closure not maximal")),
            Op("correspondence", f"correspondence {tag}",
               lambda: kwise.verify_maximal_generator_correspondence(state["closed"], K, REPETITION),
               lambda out: expect(out.ok and not out.violations, "correspondence violated")),
        ]
        return closures, checks

    def _closure_op(self, seed_fam, mode: KwiseMode, star: int, state: Dict[str, Any]) -> Op:
        def closure():
            state["closed"] = kwise.maximal_closure(seed_fam, K, mode)
            return state["closed"]

        def check(closed) -> Optional[str]:
            if closed.bitmap & seed_fam.bitmap != seed_fam.bitmap:
                return "closure lost a seed member"
            return expect(closed.bitmap == star, "closure is not the star of the planted element")

        label = f"closure n={seed_fam.n} {mode.value} size={len(seed_fam)}"
        return Op("closure", label, closure, check)


# f and the number of witness classes for each (n, k) searched, DISTINCT mode
SEARCH_EXPECTED = {(5, 3): (2, 11), (5, 4): (3, 82), (6, 3): (2, 15), (7, 3): (2, 19)}


def disjoint_pair_classes(n: int) -> int:
    """Isomorphism classes of maximal 3-wise families of size 2 on n points.

    They are the disjoint pairs {a, b}, classified by (|a|, |b|) with
    |a| <= |b| and |a| + |b| <= n, minus the pair of two empty sets.
    """
    return (n + 2) ** 2 // 4 - 1


class SearchSmall:
    name = "search-small"
    stress = "share.canonical_form"

    # op_p50_ms falls in the middle of the canonical forms at n = 7 (about
    # as fast as the (5, 3) search), and the list is interleaved so that
    # those are spread over the round and sample the machine's speed at
    # different times.
    def __init__(self, searches: Sequence[Tuple[int, int]] = ((5, 3), (7, 3), (5, 4), (6, 3)),
                 canonical_ns: Sequence[int] = (7, 8, 7, 7, 7),
                 graph_sizes: Sequence[int] = (20, 21, 22)):
        self.searches = tuple(searches)
        self.canonical_ns = tuple(canonical_ns)
        self.graph_sizes = tuple(graph_sizes)

    @cached_property
    def references(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """(f, classes) from the brute-force oracle and the exhaustive
        enumeration, for the searched (n, k) small enough to have them."""
        refs = {}
        for n, k in self.searches:
            if n > 5:
                continue
            f = kwise.oracle_min(n, k, DISTINCT)
            minimal = [fam for fam in kwise.enumerate_maximal_families(n, k, DISTINCT)
                       if len(fam) == f]
            classes = len({kwise.canonical_form(fam).bitmap for fam in minimal})
            refs[(n, k)] = (f, classes)
        return refs

    def build(self, seed: int, workdir: Path) -> List[Op]:
        rng = random.Random(seed)
        ledger = Ledger(workdir / "search.jsonl")
        canonical = [self._canonical_ops(rng, n) for n in self.canonical_ns]
        searches = [[self._search_op(ledger, n, k)] for n, k in self.searches]
        graphs = [self._bipartization_ops(rng, m) for m in self.graph_sizes]
        return interleave(canonical, searches, graphs)

    def _search_op(self, ledger: Ledger, n: int, k: int) -> Op:
        def check(res: Dict[str, Any]) -> Optional[str]:
            got = (res["f"], len(res["witnesses"]))
            if res["optimal"] is not True:
                return "search not optimal"
            if (n, k) in SEARCH_EXPECTED and got != SEARCH_EXPECTED[(n, k)]:
                return f"(f, classes) {got} != {SEARCH_EXPECTED[(n, k)]}"
            if k == 3 and got != (2, disjoint_pair_classes(n)):
                return f"(f, classes) {got} != (2, {disjoint_pair_classes(n)})"
            ref = self.references.get((n, k))
            return expect(ref is None or got == ref, f"(f, classes) {got} != reference {ref}")

        args = ("search-min", "--n", str(n), "--k", str(k), "--mode", "distinct",
                "--budget", "600")
        return cli_op("search-min", f"search-min n={n} k={k}", ledger, args, check)

    def _canonical_ops(self, rng: random.Random, n: int) -> List[Op]:
        # canonical_form's cost grows with the members' sizes, so the six
        # members have fixed sizes around n/2 and only their elements vary
        sizes = [n // 2 - 1, n // 2, n // 2 + 1] * 2
        masks: List[int] = []
        while len(masks) < len(sizes):
            mask = sum(1 << i for i in rng.sample(range(n), sizes[len(masks)]))
            if mask not in masks:
                masks.append(mask)
        perm = rng.sample(range(n), n)
        fam = kwise.SetFamily.from_masks(n, masks)
        twin = kwise.SetFamily.from_masks(n, relabel(masks, perm))
        state: Dict[str, Any] = {}

        def first():
            state["form"] = kwise.canonical_form(fam)
            return state["form"]

        def check_first(form) -> Optional[str]:
            if len(form) != len(fam):
                return "canonical form changed the family size"
            return expect(form.bitmap <= fam.bitmap, "canonical form is not the least relabeling")

        label = f"canonical n={n} size={len(fam)}"
        return [
            Op("canonical", label, first, check_first),
            Op("canonical", label + " relabeled", lambda: kwise.canonical_form(twin),
               lambda form: expect(form == state.get("form"),
                                   "relabeled family has another canonical form")),
        ]

    def _bipartization_ops(self, rng: random.Random, m: int) -> List[Op]:
        # The exact solver's cost is edges x 2^(m-1), so the edge count is
        # pinned to its mean over uniform random masks, C(m,2) (3/4)^n, and
        # only the graph's shape varies with the seed.
        n = GRAPH_N
        edges = round(m * (m - 1) / 2 * 0.75 ** n)
        for _ in range(100000):
            masks = rng.sample(range(1 << n), m)
            if sum(1 for i in range(m) for j in range(i) if masks[i] & masks[j] == 0) == edges:
                break
        else:
            raise RuntimeError(f"no {m}-vertex disjointness graph with {edges} edges found")
        fam = kwise.SetFamily.from_masks(n, masks)
        state: Dict[str, Any] = {}

        def build():
            state["graph"] = kwise.build_graph(fam)
            return state["graph"]

        def recount(res) -> int:
            side = {v: 0 for v in res.left_masks}
            side.update({v: 1 for v in res.right_masks})
            return sum(1 for u, v in state["graph"].edges()
                       if side[state["graph"].left[u]] == side[state["graph"].left[v]])

        def check_split(res) -> Optional[str]:
            if sorted(res.left_masks + res.right_masks) != sorted(masks):
                return "split is not a partition of the vertices"
            return expect(res.deleted == recount(res), "deleted count does not match the split")

        def heuristic():
            state["heuristic"] = kwise.min_bipartization(state["graph"], mode="heuristic", seed=m)
            return state["heuristic"]

        def check_exact(res) -> Optional[str]:
            if not res.exact:
                return "exact result not flagged exact"
            if res.deleted > state["heuristic"].deleted:
                return f"exact {res.deleted} > heuristic {state['heuristic'].deleted}"
            return check_split(res)

        label = f"graph m={m} edges={edges}"
        return [
            Op("build_graph", label, build,
               lambda g: expect(g.edge_count() == edges, "edge count differs from a naive recount")),
            Op("bipartization", f"heuristic {label}", heuristic, check_split),
            Op("bipartization", f"exact {label}",
               lambda: kwise.min_bipartization(state["graph"]), check_exact),
        ]


WORKLOADS = {w.name: w for w in (VerifyLinked(), ClosureGrow(), SearchSmall())}
