"""Disjointness graphs, stability ratios, and bipartization."""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kwise import (
    SetFamily,
    build_bipartite,
    build_graph,
    count_edges_touching,
    cube_bits,
    f_xy,
    min_bipartization,
    stability_stats,
)
from kwise.disjointness import MAX_EXACT_CUT_VERTICES, _exact_max_cut


@st.composite
def families(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bm = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    return SetFamily(n, bm)


# ----------------------------------------------------------- graphs


def test_graph_of_full_powerset_n2():
    g = build_graph(SetFamily(2, 0b1111))
    assert g.left == (0, 1, 2, 3)
    assert g.edge_count() == 4
    assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2)]


def test_bipartite_self_pairing_identity():
    for bm in range(1, 1 << 8):
        fam = SetFamily(3, bm)
        uni = build_graph(fam).edge_count()
        bi = build_bipartite(fam, fam).edge_count()
        assert bi == 2 * uni + (1 if 0 in fam else 0)


@given(families(), families())
@settings(deadline=None, max_examples=40)
def test_bipartite_matches_naive(a, b):
    if a.n != b.n:
        return
    g = build_bipartite(a, b)
    want = sum(1 for ma in a for mb in b if ma & mb == 0)
    assert g.edge_count() == want
    assert len(list(g.edges())) == want


@given(families())
@settings(deadline=None, max_examples=40)
def test_edges_touching_matches_naive(fam):
    g = build_graph(fam)
    edges = list(g.edges())
    assert g.edge_count() == len(edges)
    for elem in range(1, fam.n + 1):
        bit = 1 << (elem - 1)
        want = sum(1 for u, v in edges if (g.left[u] | g.left[v]) & bit)
        assert count_edges_touching(g, elem) == want


def test_edges_touching_validation():
    g = build_graph(SetFamily(2, 0b1111))
    with pytest.raises(ValueError):
        count_edges_touching(g, 0)
    with pytest.raises(ValueError):
        count_edges_touching(g, 3)


# ------------------------------------------------------------ stats


def test_stability_stats_hand_example():
    x = SetFamily(3, cube_bits(0b011))
    y = SetFamily(3, cube_bits(0b100))
    stats = stability_stats(x, y, ell=2, elem=3)
    assert stats.alpha == 1
    assert stats.beta == Fraction(1, 2)
    assert stats.x_ratios == (Fraction(1, 2), Fraction(1, 2), 0)
    assert stats.y_ratios == (0, 0, Fraction(1, 2))
    assert stats.threshold_x == 0b011
    assert stats.threshold_y == 0b100
    assert stats.theta == 1
    assert stats.phi == 1
    assert stats.e_total == 8
    assert stats.e_elem == 4


def test_stability_stats_validation():
    x = SetFamily(3, cube_bits(0b011))
    with pytest.raises(ValueError):
        stability_stats(x, x, ell=-1, elem=1)
    with pytest.raises(ValueError, match="ell"):
        stability_stats(x, x, ell=4, elem=1)
    with pytest.raises(ValueError):
        stability_stats(x, x, ell=1, elem=4)
    with pytest.raises(ValueError):
        stability_stats(x, SetFamily(3, 0), ell=1, elem=1)


def test_f_xy_values():
    assert f_xy(Fraction(1, 3), Fraction(1, 3)) == Fraction(4, 9)
    assert f_xy(0, 0) == 0
    assert f_xy(Fraction(1, 2), Fraction(7, 13)) == Fraction(1, 2)
    assert f_xy(Fraction(1, 5), Fraction(1, 7)) == f_xy(Fraction(1, 7), Fraction(1, 5))


# --------------------------------------------------- bipartization


def brute_max_cut(m, edges):
    best = 0
    for asg in range(1 << max(m - 1, 0)):
        asg <<= 1
        cut = sum(1 for u, v in edges if ((asg >> u) ^ (asg >> v)) & 1)
        best = max(best, cut)
    return best


def cut_value(assignment, edges):
    return sum(1 for u, v in edges if ((assignment >> u) ^ (assignment >> v)) & 1)


@st.composite
def edge_lists(draw, max_m=12):
    m = draw(st.integers(min_value=0, max_value=max_m))
    pairs = list(itertools.combinations(range(m), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return m, sorted(chosen)


@given(edge_lists())
@settings(deadline=None, max_examples=150)
@example((0, []))
@example((1, []))
@example((7, []))
@example((2, [(0, 1)]))
def test_exact_max_cut_is_lowest_maximising_assignment(graph):
    """The packed kernel returns the lowest-index maximum cut, vertex 0 left."""
    m, edges = graph
    assignments = [s << 1 for s in range(1 << max(m - 1, 0))]
    best = max(cut_value(a, edges) for a in assignments)
    want = next(a for a in assignments if cut_value(a, edges) == best)
    assert _exact_max_cut(m, edges) == want


@pytest.mark.parametrize("m", range(MAX_EXACT_CUT_VERTICES + 1))
def test_exact_max_cut_complete_graphs(m):
    """K_m splits floor(m/2) : ceil(m/2); the lowest such assignment puts
    vertices 1..floor(m/2) on the right."""
    edges = list(itertools.combinations(range(m), 2))
    got = _exact_max_cut(m, edges)
    assert got == ((1 << m // 2) - 1) << 1
    assert cut_value(got, edges) == (m // 2) * ((m + 1) // 2)


def lowest_max_cut(m, edges):
    """The lowest assignment, vertex 0 left, that cuts the most edges."""
    return -max((cut_value(s << 1, edges), -(s << 1)) for s in range(1 << max(m - 1, 0)))[1]


def path(*vertices):
    return list(zip(vertices, vertices[1:]))


# Graphs whose vertices of degree <= 1 peel off before the packed kernel runs.
PEELED_GRAPHS = {
    "path": (9, path(*range(9))),
    "path, scrambled labels": (9, path(3, 7, 0, 5, 8, 1, 6, 2, 4)),
    "star at 0": (8, [(0, v) for v in range(1, 8)]),
    "star at the top vertex": (8, [(v, 7) for v in range(7)]),
    "forest": (11, [(0, 5), (5, 9), (2, 5), (1, 3), (3, 8), (8, 10), (4, 7)]),
    "isolated vertices and one edge": (6, [(2, 4)]),
    "isolated vertex 0": (6, [(1, 2), (2, 3), (1, 3), (4, 5)]),
    "cycle with pendant paths": (
        13,
        path(3, 6, 9, 12, 4, 3) + path(6, 10, 0) + path(12, 1, 8, 11) + [(2, 4)] + path(4, 5, 7),
    ),
    "two cores": (
        12,
        path(1, 3, 5, 7, 9, 1) + path(2, 6, 11, 2) + path(9, 10, 0) + [(4, 11)],
    ),
    "even cycle, pendants at both ends": (10, path(2, 4, 6, 8, 2) + path(8, 9, 1) + [(0, 2), (3, 4)]),
    "vertex 0 a leaf of a hanging tree": (8, path(5, 6, 7, 5) + [(0, 7), (1, 6), (1, 2), (3, 5)]),
    "vertex 0 in a tree of its own": (
        10,
        path(2, 4, 6, 8, 9, 2) + [(0, 5), (1, 5), (5, 7), (3, 9)],
    ),
    "vertex 0 in a tree, core above and below it": (
        11,
        path(1, 2, 3, 1) + path(6, 8, 10, 6) + [(0, 4), (4, 9), (5, 9), (7, 3)],
    ),
}


@pytest.mark.parametrize("name", sorted(PEELED_GRAPHS))
def test_exact_max_cut_peels_pendant_trees(name):
    """Peeling pendant trees keeps the lowest-index maximum cut."""
    m, edges = PEELED_GRAPHS[name]
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    assert len(set(edges)) == len(edges) and all(u != v for u, v in edges)
    assert _exact_max_cut(m, edges) == lowest_max_cut(m, edges)


@st.composite
def sparse_edge_lists(draw, max_m=14):
    m = draw(st.integers(min_value=0, max_value=max_m))
    pairs = list(itertools.combinations(range(m), 2))
    if not pairs:
        return m, []
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=m + 2))
    return m, sorted(chosen)


@given(sparse_edge_lists())
@settings(deadline=None, max_examples=60)
def test_exact_max_cut_on_sparse_graphs(graph):
    """Sparse graphs are mostly pendant trees around a small core, if any."""
    m, edges = graph
    assert _exact_max_cut(m, edges) == lowest_max_cut(m, edges)


def test_exact_max_cut_small_core_at_the_cap():
    """A 5-cycle with a pendant path up to vertex 23: the kernel runs on the
    five cycle vertices, so it builds no 2^23-field int."""
    m = MAX_EXACT_CUT_VERTICES
    edges = sorted(path(0, 1, 2, 3, 4) + [(0, 4)] + path(*range(4, m)))
    tracemalloc.start()
    try:
        got = _exact_max_cut(m, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the path alternates down from vertex 23 on the left, which puts 4 on
    # the right; the cycle then cuts four edges, lowest with 1 right
    assert got == 0b1010_1010_1010_1010_1010_010
    assert cut_value(got, edges) == len(edges) - 1
    assert peak < 1 << 20


def workload_graph(seed, m, n=6):
    """A disjointness graph of m random masks on n elements with its edge
    count pinned to the mean over uniform masks, C(m,2) (3/4)^n."""
    rng = random.Random(seed)
    edges = round(m * (m - 1) / 2 * 0.75 ** n)
    while True:
        masks = rng.sample(range(1 << n), m)
        if sum(1 for i in range(m) for j in range(i) if masks[i] & masks[j] == 0) == edges:
            return build_graph(SetFamily.from_masks(n, masks))


@pytest.mark.parametrize(
    "m,want",
    [
        (20, (7, (2, 10, 11, 16, 31, 48, 51, 54, 59, 63), (4, 5, 15, 28, 29, 37, 41, 45, 52, 53))),
        (21, (4, (2, 11, 13, 15, 33, 35, 38, 40, 42, 44, 59), (16, 17, 18, 19, 21, 23, 24, 26, 52, 57))),
        (22, (8, (0, 5, 9, 13, 25, 40, 44), (6, 7, 18, 23, 28, 29, 30, 36, 42, 43, 50, 51, 54, 58, 60))),
    ],
)
def test_bipartization_frozen_anchors(m, want):
    """Splits of 20..22-vertex graphs, out of brute force's reach, as the
    whole-graph packed kernel returned them."""
    res = min_bipartization(workload_graph(m, m))
    assert res.exact
    assert (res.deleted, res.left_masks, res.right_masks) == want


@pytest.mark.parametrize(
    "m,want",
    [
        (20, (8, (2, 4, 10, 11, 15, 31), (5, 16, 28, 29, 37, 41, 45, 48, 51, 52, 53, 54, 59, 63))),
        (21, (4, (2, 11, 13, 15, 33, 35, 38, 40, 42, 44, 59), (16, 17, 18, 19, 21, 23, 24, 26, 52, 57))),
        (22, (11, (5, 9, 13, 23, 25, 28, 29, 30, 40, 43, 44, 51, 60), (0, 6, 7, 18, 36, 42, 50, 54, 58))),
    ],
)
def test_bipartization_heuristic_frozen_anchors(m, want):
    """Seeded local-search splits of the same graphs: a change to the RNG
    calls or to the move rule shows up here."""
    res = min_bipartization(workload_graph(m, m), mode="heuristic", seed=m)
    assert not res.exact
    assert (res.deleted, res.left_masks, res.right_masks) == want


def test_import_loads_no_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import kwise, kwise.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_bipartization_triangle():
    fam = SetFamily.from_masks(3, [1, 2, 4])
    g = build_graph(fam)
    assert g.edge_count() == 3
    res = min_bipartization(g)
    assert res.exact and res.deleted == 1
    assert sorted(res.left_masks + res.right_masks) == [1, 2, 4]


@given(families(max_n=3))
@settings(deadline=None, max_examples=40)
def test_bipartization_exact_matches_brute(fam):
    g = build_graph(fam)
    edges = list(g.edges())
    res = min_bipartization(g)
    assert res.deleted == len(edges) - brute_max_cut(len(g.left), edges)
    # the reported split is consistent with the deletion count
    sides = {m: 0 for m in res.left_masks}
    sides.update({m: 1 for m in res.right_masks})
    inside = sum(1 for u, v in edges if sides[g.left[u]] == sides[g.left[v]])
    assert inside == res.deleted


@given(families(max_n=3), st.integers(min_value=0, max_value=3))
@settings(deadline=None, max_examples=30)
def test_bipartization_heuristic_is_upper_bound(fam, seed):
    g = build_graph(fam)
    exact = min_bipartization(g)
    heur = min_bipartization(g, mode="heuristic", seed=seed)
    assert not heur.exact
    assert heur.deleted >= exact.deleted
    # same seed, same answer
    again = min_bipartization(g, mode="heuristic", seed=seed)
    assert again == heur


def test_bipartization_validation():
    fam = SetFamily(2, 0b1111)
    with pytest.raises(ValueError):
        min_bipartization(build_bipartite(fam, fam))
    with pytest.raises(ValueError):
        min_bipartization(build_graph(fam), mode="anneal")
    big = build_graph(SetFamily(5, (1 << 32) - 1))
    with pytest.raises(ValueError):
        min_bipartization(big)
