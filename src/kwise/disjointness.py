"""Disjointness graphs on set families and the statistics layered on them.

Vertices are member masks; edges join disjoint members.  The bipartite
variant takes an ordered pair of families and joins cross pairs.  All the
derived ratios are exact rationals.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .bitops import check_element, cube_bits, mask_complement
from .constructions import Partition
from .core import SetFamily, restrict_plus, _check_same_ground

# without a partition, coordinates whose ratio reaches this form the reference blocks
STABILITY_THRESHOLD = Fraction(1, 3)


@dataclass(frozen=True)
class DisjointnessGraph:
    """Adjacency between disjoint members.

    For the single-family graph, left and right hold the same member list
    and adjacency excludes the diagonal (edges need two distinct members).
    For the bipartite graph, adjacency is over ordered (left, right) pairs
    and a mask appearing on both sides may be joined to itself.
    """

    n: int
    left: Tuple[int, ...]
    right: Tuple[int, ...]
    adjacency: Tuple[int, ...]  # per left index, a bitset over right indices
    bipartite: bool

    def edge_count(self) -> int:
        total = sum(a.bit_count() for a in self.adjacency)
        return total if self.bipartite else total // 2

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Index pairs, ascending; unipartite edges reported once with u < v."""
        for u, bits in enumerate(self.adjacency):
            while bits:
                low = bits & -bits
                v = low.bit_length() - 1
                bits ^= low
                if self.bipartite or u < v:
                    yield (u, v)


def build_graph(family: SetFamily) -> DisjointnessGraph:
    """Disjointness graph of one family: edges are disjoint distinct pairs."""
    members = tuple(family.members())
    adjacency = _cross_adjacency(members, members, family.n, skip_diagonal=True)
    return DisjointnessGraph(family.n, members, members, adjacency, bipartite=False)


def build_bipartite(a: SetFamily, b: SetFamily) -> DisjointnessGraph:
    """Bipartite disjointness graph over an ordered pair of families."""
    _check_same_ground(a, b)
    left = tuple(a.members())
    right = tuple(b.members())
    adjacency = _cross_adjacency(left, right, a.n, skip_diagonal=False)
    return DisjointnessGraph(a.n, left, right, adjacency, bipartite=True)


def _cross_adjacency(
    left: Sequence[int], right: Sequence[int], n: int, skip_diagonal: bool
) -> Tuple[int, ...]:
    rows = []
    for u, mu in enumerate(left):
        bits = 0
        for v, mv in enumerate(right):
            if mu & mv == 0 and not (skip_diagonal and u == v):
                bits |= 1 << v
        rows.append(bits)
    return tuple(rows)


def count_edges_touching(graph: DisjointnessGraph, elem: int) -> int:
    """Edges whose two endpoint masks jointly contain the given element."""
    check_element(elem, graph.n)
    bit = 1 << (elem - 1)
    right_with = 0
    for v, mv in enumerate(graph.right):
        if mv & bit:
            right_with |= 1 << v
    total = 0
    for u, mu in enumerate(graph.left):
        row = graph.adjacency[u]
        total += row.bit_count() if mu & bit else (row & right_with).bit_count()
    return total if graph.bipartite else total // 2


@dataclass(frozen=True)
class StabilityStats:
    """Exact ratios describing how two families sit around a split."""

    n: int
    ell: int
    alpha: Fraction
    beta: Fraction
    x_ratios: Tuple[Fraction, ...]
    y_ratios: Tuple[Fraction, ...]
    e_total: int
    e_elem: int
    theta: Fraction
    phi: Fraction
    threshold_x: int  # mask of coordinates with x ratio at least STABILITY_THRESHOLD
    threshold_y: int


def stability_stats(
    x_family: SetFamily,
    y_family: SetFamily,
    ell: int,
    elem: int,
    partition: Optional[Partition] = None,
) -> StabilityStats:
    """Exact stability ratios for a pair of families.

    alpha and beta scale the family sizes by 2^ell.  The per-coordinate
    ratios divide the size of the keep-and-strip restriction by the family
    size.  theta and phi measure how much of each family lies inside the
    down cube of a reference block: the first two blocks of the partition
    when one is supplied, else the coordinates whose ratio is at least
    STABILITY_THRESHOLD (1/3).
    """
    _check_same_ground(x_family, y_family)
    n = x_family.n
    check_element(elem, n)
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if len(x_family) == 0 or len(y_family) == 0:
        raise ValueError("stability statistics need nonempty families")
    scale = 1 << ell
    alpha = Fraction(len(x_family), scale)
    beta = Fraction(len(y_family), scale)
    x_ratios = tuple(
        Fraction(len(restrict_plus(x_family, i)), len(x_family))
        for i in range(1, n + 1)
    )
    y_ratios = tuple(
        Fraction(len(restrict_plus(y_family, i)), len(y_family))
        for i in range(1, n + 1)
    )
    threshold_x = sum(
        1 << (i - 1) for i in range(1, n + 1) if x_ratios[i - 1] >= STABILITY_THRESHOLD
    )
    threshold_y = sum(
        1 << (i - 1) for i in range(1, n + 1) if y_ratios[i - 1] >= STABILITY_THRESHOLD
    )
    if partition is not None:
        if partition.n != n or len(partition.blocks) < 2:
            raise ValueError("partition must split the same ground set into two or more blocks")
        block_a, block_b = partition.blocks[0], partition.blocks[1]
    else:
        block_a, block_b = threshold_x, threshold_y
    theta = Fraction((x_family.bitmap & cube_bits(block_a)).bit_count(), len(x_family))
    phi = Fraction((y_family.bitmap & cube_bits(block_b)).bit_count(), len(y_family))
    graph = build_bipartite(x_family, y_family)
    return StabilityStats(
        n=n,
        ell=ell,
        alpha=alpha,
        beta=beta,
        x_ratios=x_ratios,
        y_ratios=y_ratios,
        e_total=graph.edge_count(),
        e_elem=count_edges_touching(graph, elem),
        theta=theta,
        phi=phi,
        threshold_x=threshold_x,
        threshold_y=threshold_y,
    )


def f_xy(x: Fraction, y: Fraction) -> Fraction:
    """The bilinear form x + y - 2xy, exact."""
    x = Fraction(x)
    y = Fraction(y)
    return x + y - 2 * x * y


@dataclass(frozen=True)
class PremiseCheck:
    label: str
    ratio: Fraction
    target: Fraction
    within: bool


@dataclass(frozen=True)
class PremiseReport:
    checks: Tuple[PremiseCheck, ...]

    @property
    def all_within(self) -> bool:
        return all(c.within for c in self.checks)


def audit_lemma_size_premises(
    x_family: SetFamily,
    y_family: SetFamily,
    ell: int,
    slack: Fraction,
    elem: Optional[int] = None,
) -> PremiseReport:
    """Compare the six size ratios of a family pair to their targets.

    Targets, all scaled by 2^ell: total size 3/2, size of the slice
    containing the designated element 1/2, size of the slice avoiding it 1.
    The designated element defaults to the last one.  A check passes when
    the ratio sits within the caller's slack of the target.
    """
    _check_same_ground(x_family, y_family)
    n = x_family.n
    if elem is None:
        elem = n
    check_element(elem, n)
    slack = Fraction(slack)
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    scale = 1 << ell
    bit = 1 << (elem - 1)
    checks: List[PremiseCheck] = []
    for name, fam in (("x", x_family), ("y", y_family)):
        with_elem = sum(1 for m in fam.members() if m & bit)
        without = len(fam) - with_elem
        for label, count, target in (
            (f"{name}_size", len(fam), Fraction(3, 2)),
            (f"{name}_with_elem", with_elem, Fraction(1, 2)),
            (f"{name}_without_elem", without, Fraction(1)),
        ):
            ratio = Fraction(count, scale)
            checks.append(
                PremiseCheck(label, ratio, target, abs(ratio - target) <= slack)
            )
    return PremiseReport(tuple(checks))


@dataclass(frozen=True)
class BipartizationResult:
    deleted: int
    left_masks: Tuple[int, ...]
    right_masks: Tuple[int, ...]
    exact: bool


MAX_EXACT_CUT_VERTICES = 24


def min_bipartization(
    graph: DisjointnessGraph,
    mode: str = "exact",
    budget: int = 20000,
    seed: int = 0,
) -> BipartizationResult:
    """Fewest edge deletions making the graph bipartite, with a witness split.

    Exact mode scores all cuts (vertex zero pinned to one side) in one
    packed int and is capped at 24 vertices.  Heuristic mode runs a seeded
    local search over single-vertex moves and stops at a local optimum or
    after the given number of move evaluations; its result is an upper
    bound.
    """
    if graph.bipartite:
        raise ValueError("bipartization applies to the single-family graph")
    m = len(graph.left)
    edges = list(graph.edges())
    if mode == "exact":
        if m > MAX_EXACT_CUT_VERTICES:
            raise ValueError(
                f"exact bipartization capped at {MAX_EXACT_CUT_VERTICES} vertices, got {m}"
            )
        assignment = _exact_max_cut(m, edges)
        exact = True
    elif mode == "heuristic":
        assignment = _local_search_cut(m, edges, budget, seed)
        exact = False
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'exact' or 'heuristic'")
    cut = sum(1 for u, v in edges if ((assignment >> u) ^ (assignment >> v)) & 1)
    left = tuple(graph.left[i] for i in range(m) if not (assignment >> i) & 1)
    right = tuple(graph.left[i] for i in range(m) if (assignment >> i) & 1)
    return BipartizationResult(len(edges) - cut, left, right, exact)


# Field width of the packed max-cut kernel: room for a cut of every edge
# of the largest exact graph, C(24, 2) = 276, plus a guard bit above it.
_CUT_FIELD = math.comb(MAX_EXACT_CUT_VERTICES, 2).bit_length() + 1


def _exact_max_cut(m: int, edges: List[Tuple[int, int]]) -> int:
    """Lowest-index maximum cut, vertex 0 pinned to the left side.

    Before vertex j is added, one int packs a _CUT_FIELD-bit field per
    assignment S of vertices 1..j-1 (vertex i on bit i-1), holding the cut
    value of S.  Adding j doubles the int: its lower half puts j on the
    left and gains a[S], the lower neighbours of j on the right in S; its
    upper half puts j on the right and gains the other lower neighbours.
    a is built by the same doubling, so vertex j costs O(2^j) bit work
    whatever its degree.  The maximum is found by a guard-bit threshold
    test, and the lowest field that holds it is the answer.
    """
    if m <= 1 or not edges:
        return 0
    w = _CUT_FIELD
    lower = [0] * m  # bitset of each vertex's lower neighbours
    for u, v in edges:
        lower[max(u, v)] |= 1 << min(u, v)
    ones = [1]  # ones[j]: a one in each of 2^j fields
    for j in range(1, m):
        ones.append(ones[-1] | ones[-1] << (w << (j - 1)))
    cut = 0
    for j in range(1, m):
        a = 0
        for u in range(1, j):
            a |= (a + ones[u - 1] if lower[j] >> u & 1 else a) << (w << (u - 1))
        cut = (cut + a) | (cut + lower[j].bit_count() * ones[j - 1] - a) << (w << (j - 1))
    # a field holds at least v exactly when adding 2^(w-1) - v sets its guard
    everywhere = ones[m - 1]
    guards = everywhere << (w - 1)

    def reaching(v: int) -> int:
        return (cut + ((1 << (w - 1)) - v) * everywhere) & guards

    lo, hi = (len(edges) + 1) // 2, len(edges)  # a maximum cut holds half the edges
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if reaching(mid):
            lo = mid
        else:
            hi = mid - 1
    hits = reaching(lo)
    return ((hits & -hits).bit_length() - 1) // w << 1


def _local_search_cut(m: int, edges: List[Tuple[int, int]], budget: int, seed: int) -> int:
    if m == 0:
        return 0
    rng = random.Random(seed)
    neighbors = [[] for _ in range(m)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    assignment = rng.getrandbits(m)
    spent = 0
    improved = True
    while improved and spent < budget:
        improved = False
        order = list(range(m))
        rng.shuffle(order)
        for vtx in order:
            spent += 1
            side = (assignment >> vtx) & 1
            same = other = 0
            for w in neighbors[vtx]:
                if ((assignment >> w) & 1) == side:
                    same += 1
                else:
                    other += 1
            if same > other:
                assignment ^= 1 << vtx
                improved = True
            if spent >= budget:
                break
    return assignment
