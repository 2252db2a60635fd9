"""Disjointness graphs on set families and the statistics layered on them.

Vertices are member masks; edges join disjoint members.  The bipartite
variant takes an ordered pair of families and joins cross pairs.  All the
derived ratios are exact rationals.
"""

from __future__ import annotations

__all__ = [
    "BipartizationResult",
    "DisjointnessGraph",
    "StabilityStats",
    "build_bipartite",
    "build_graph",
    "count_edges_touching",
    "f_xy",
    "min_bipartization",
    "stability_stats",
]

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple

from .bitops import check_element, cube_bits
from .core import SetFamily, restrict_plus, _check_same_ground

# coordinates whose ratio reaches this form the reference blocks
STABILITY_THRESHOLD = Fraction(1, 3)
# the adjacency rows test every member pair in Python: 2^24 pairs take about a second
MAX_GRAPH_PAIRS = 1 << 24


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
    """Disjointness graph of one family: edges are disjoint distinct pairs.

    Refused (ValueError) past MAX_GRAPH_PAIRS ordered member pairs.
    """
    _check_pairs(len(family), len(family))
    members = tuple(family.members())
    adjacency = _cross_adjacency(members, members, skip_diagonal=True)
    return DisjointnessGraph(family.n, members, members, adjacency, bipartite=False)


def build_bipartite(a: SetFamily, b: SetFamily) -> DisjointnessGraph:
    """Bipartite disjointness graph over an ordered pair of families,
    refused (ValueError) past MAX_GRAPH_PAIRS member pairs."""
    _check_same_ground(a, b)
    _check_pairs(len(a), len(b))
    left = tuple(a.members())
    right = tuple(b.members())
    adjacency = _cross_adjacency(left, right, skip_diagonal=False)
    return DisjointnessGraph(a.n, left, right, adjacency, bipartite=True)


def _check_pairs(left: int, right: int) -> None:
    if left * right > MAX_GRAPH_PAIRS:
        raise ValueError(
            f"disjointness graph capped at {MAX_GRAPH_PAIRS} member pairs, got {left * right}"
        )


def _cross_adjacency(
    left: Sequence[int], right: Sequence[int], skip_diagonal: bool
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
    x_family: SetFamily, y_family: SetFamily, ell: int, elem: int
) -> StabilityStats:
    """Exact stability ratios for a pair of families.

    alpha and beta scale the family sizes by 2^ell, for ell from 0 to n
    (ValueError otherwise): a family holds at most 2^n sets, so a larger
    ell only pushes both below 2^(n - ell), at the cost of a 2^ell-bit
    scale.  The per-coordinate ratios divide the size of the
    keep-and-strip restriction by the family size.  theta and phi measure how much of each family lies inside the
    down cube of its reference block, the coordinates whose ratio is at
    least STABILITY_THRESHOLD (1/3).
    """
    _check_same_ground(x_family, y_family)
    n = x_family.n
    check_element(elem, n)
    if type(ell) is not int or not 0 <= ell <= n:
        raise ValueError(f"ell must be an int in 0..{n}, got {ell!r}")
    if len(x_family) == 0 or len(y_family) == 0:
        raise ValueError("stability statistics need nonempty families")
    graph = build_bipartite(x_family, y_family)
    scale = 1 << ell
    alpha = Fraction(len(x_family), scale)
    beta = Fraction(len(y_family), scale)

    def ratios_and_threshold(family: SetFamily) -> Tuple[Tuple[Fraction, ...], int]:
        ratios = tuple(
            Fraction(len(restrict_plus(family, i)), len(family)) for i in range(1, n + 1)
        )
        threshold = sum(1 << i for i, r in enumerate(ratios) if r >= STABILITY_THRESHOLD)
        return ratios, threshold

    x_ratios, threshold_x = ratios_and_threshold(x_family)
    y_ratios, threshold_y = ratios_and_threshold(y_family)
    theta = Fraction((x_family.bitmap & cube_bits(threshold_x)).bit_count(), len(x_family))
    phi = Fraction((y_family.bitmap & cube_bits(threshold_y)).bit_count(), len(y_family))
    return StabilityStats(
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
class BipartizationResult:
    deleted: int
    left_masks: Tuple[int, ...]
    right_masks: Tuple[int, ...]
    exact: bool


MAX_EXACT_CUT_VERTICES = 24
MAX_HEURISTIC_MOVES = 20000


def min_bipartization(
    graph: DisjointnessGraph, mode: str = "exact", seed: int = 0
) -> BipartizationResult:
    """Fewest edge deletions making the graph bipartite, with a witness split.

    Exact mode peels the pendant trees off, whose edges every maximum cut
    cuts, and scores all cuts of the remaining 2-core (one vertex pinned to
    one side) in one packed int: O(2^c) bit work for a core of c vertices.
    It is capped at 24 vertices in all.  Heuristic mode runs a seeded
    local search over single-vertex moves and stops at a local optimum or
    after MAX_HEURISTIC_MOVES move evaluations; its result is an upper
    bound.
    """
    if graph.bipartite:
        raise ValueError("bipartization applies to the single-family graph")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    m = len(graph.left)
    if mode == "exact":
        if m > MAX_EXACT_CUT_VERTICES:
            raise ValueError(
                f"exact bipartization capped at {MAX_EXACT_CUT_VERTICES} vertices, got {m}"
            )
        assignment = _exact_max_cut(m, list(graph.edges()))
        exact = True
    elif mode == "heuristic":
        assignment = _local_search_cut(graph.adjacency, seed)
        exact = False
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'exact' or 'heuristic'")
    # a kept edge has both ends on one side and is counted from each
    kept = sum(
        (row & _side_of(assignment, u)).bit_count() for u, row in enumerate(graph.adjacency)
    )
    left = tuple(graph.left[i] for i in range(m) if not (assignment >> i) & 1)
    right = tuple(graph.left[i] for i in range(m) if (assignment >> i) & 1)
    return BipartizationResult(kept // 2, left, right, exact)


def _side_of(assignment: int, v: int) -> int:
    """The vertices on v's side of the split, as a bitset (negative for the left)."""
    return assignment if assignment >> v & 1 else ~assignment


# Field width of the packed max-cut kernel: room for a cut of every edge
# of the largest exact graph, C(24, 2) = 276, plus a guard bit above it.
_CUT_FIELD = math.comb(MAX_EXACT_CUT_VERTICES, 2).bit_length() + 1


def _exact_max_cut(m: int, edges: List[Tuple[int, int]]) -> int:
    """Lowest-index maximum cut, vertex 0 pinned to the left side.

    Vertices of degree <= 1 are peeled off first, repeatedly.  A peeled
    vertex with one remaining neighbour p sits opposite p in every maximum
    cut, since it adds a cut edge to any cut of the rest, so each vertex is a
    copy or a negation of a variable: a vertex of the 2-core, or the last
    vertex peeled from a tree component, which is free.  Read from the
    highest index down, the lowest-index rule prefers, for each variable,
    the value that puts its highest vertex on the left, variables ranked
    by that vertex.  The packed kernel finds every maximum cut of the core
    with one variable pinned: vertex 0's when it lies on the core, else the
    highest-ranked, at its preferred value, since complementing a cut keeps
    it maximum.  Its cost is O(2^c) in the core size c.
    """
    if not edges:
        return 0
    adjacent = [0] * m
    for u, v in edges:
        adjacent[u] |= 1 << v
        adjacent[v] |= 1 << u
    core = (1 << m) - 1
    peeled = []
    opposite = [-1] * m  # the neighbour a vertex had when it was peeled
    stack = [v for v in range(m) if adjacent[v].bit_count() <= 1]
    while stack:
        v = stack.pop()
        if not core >> v & 1:
            continue
        core ^= 1 << v
        peeled.append(v)
        rest = adjacent[v] & core
        if rest:
            p = opposite[v] = rest.bit_length() - 1
            if (adjacent[p] & core).bit_count() <= 1:
                stack.append(p)
    # vertex v holds the value of variable root[v], negated when flip[v]
    root = list(range(m))
    flip = [0] * m
    for v in reversed(peeled):
        p = opposite[v]
        if p >= 0:
            root[v], flip[v] = root[p], flip[p] ^ 1
    top = list(range(m))  # each variable's highest vertex
    for v in range(m):
        top[root[v]] = v
    value = [flip[top[r]] for r in range(m)]  # each variable's preferred value
    value[root[0]] = flip[0]
    if core:
        members = [v for v in range(m) if core >> v & 1]
        pin = root[0] if core >> root[0] & 1 else max(members, key=top.__getitem__)
        order = [pin] + sorted((v for v in members if v != pin), key=top.__getitem__)
        position = {v: i for i, v in enumerate(order)}
        core_edges = [(position[u], position[v]) for u, v in edges if core >> u & core >> v & 1]
        # the kernel pins its vertex 0 left: complement when pin goes right
        prefer = sum((value[v] ^ value[pin]) << i for i, v in enumerate(order))
        cut = _packed_max_cut(len(order), core_edges, prefer)
        for i, v in enumerate(order):
            value[v] = (cut >> i & 1) ^ value[pin]
    return sum((value[root[v]] ^ flip[v]) << v for v in range(m))


def _packed_max_cut(m: int, edges: List[Tuple[int, int]], prefer: int) -> int:
    """The maximum cut with vertex 0 left that agrees with prefer on the
    highest vertex, then on the next, as far as some maximum cut does.

    Before vertex j is added, one int packs a _CUT_FIELD-bit field per
    assignment S of vertices 1..j-1 (vertex i on bit i-1), holding the cut
    value of S.  Adding j doubles the int: its lower half puts j on the
    left and gains a[S], the lower neighbours of j on the right in S; its
    upper half puts j on the right and gains the other lower neighbours.
    a is built by the same doubling, so vertex j costs O(2^j) bit work
    whatever its degree.  The maximum is found by a guard-bit threshold
    test; halving the fields that reach it from the top vertex down picks
    the preferred one.
    """
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
    chosen = 0
    for j in range(m - 1, 0, -1):
        half = w << (j - 1)  # vertex j right: the upper half of the fields
        upper = hits >> half
        lower_half = hits & ((1 << half) - 1)
        if prefer >> j & 1 and upper or not lower_half:
            chosen |= 1 << j
            hits = upper
        else:
            hits = lower_half
    return chosen


def _local_search_cut(adjacency: Sequence[int], seed: int) -> int:
    m = len(adjacency)
    rng = random.Random(seed)
    assignment = rng.getrandbits(m)
    spent = 0
    improved = True
    while improved and spent < MAX_HEURISTIC_MOVES:
        improved = False
        order = list(range(m))
        rng.shuffle(order)
        for vtx in order:
            spent += 1
            row = adjacency[vtx]
            if 2 * (row & _side_of(assignment, vtx)).bit_count() > row.bit_count():
                assignment ^= 1 << vtx
                improved = True
            if spent >= MAX_HEURISTIC_MOVES:
                break
    return assignment
