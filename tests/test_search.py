"""Canonicalization, exhaustive enumeration, minimum search, count audits."""

import hashlib
import itertools
import operator
import random
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kwise import (
    ClaimCountsReport,
    KwiseMode,
    SearchConfig,
    SetFamily,
    addable_sets,
    audit_claim_counts,
    balanced_block,
    canonical_form,
    complement_family,
    enumerate_maximal_families,
    enumerate_upsets,
    is_k_wise_intersecting,
    is_maximal_k_wise,
    linked_cubes,
    maximal_closure,
    oracle_min,
    partition_relative_to_cubes,
    product_bound_terms,
    search_min,
    verify_maximal_generator_correspondence,
)
from kwise.bitops import (
    _heap_order,
    _min_relabeling,
    _relabeling_bound,
    cube_bits,
    full_mask,
    supercube_bits,
    up_close_bits,
)
from kwise.core import ReachState, _exact_eps
from kwise import search
from kwise.search import _first_below_k_size, _naive_is_maximal

from helpers import is_min_relabeling

DISTINCT = KwiseMode.DISTINCT
REPETITION = KwiseMode.WITH_REPETITION


def relabel(family, perm):
    """Apply a coordinate permutation given as a tuple of images of 0..n-1."""
    masks = []
    for m in family:
        out = 0
        for i in range(family.n):
            if (m >> i) & 1:
                out |= 1 << perm[i]
        masks.append(out)
    return SetFamily.from_masks(family.n, masks)


# -------------------------------------------------- canonical forms


@given(
    st.integers(min_value=0, max_value=(1 << 16) - 1),
    st.permutations(range(4)),
)
@settings(deadline=None, max_examples=60)
def test_canonical_form_is_relabeling_invariant(bm, perm):
    fam = SetFamily(4, bm)
    assert canonical_form(fam) == canonical_form(relabel(fam, tuple(perm)))


def test_canonical_form_idempotent_and_separating():
    two_block = canonical_form(linked_cubes(5, 0b00011))
    assert canonical_form(two_block) == two_block
    assert two_block == canonical_form(linked_cubes(5, 0b11000))
    assert two_block != canonical_form(linked_cubes(5, 0b00001))


def brute_canonical(family):
    return min(
        (relabel(family, perm) for perm in itertools.permutations(range(family.n))),
        key=lambda fam: fam.bitmap,
    )


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))
    )
)
@example((1, 0b01))
@example((1, 0b10))
@example((1, 0b11))
@example((4, 0))
@example((4, (1 << 16) - 1))
@example((5, (1 << 32) - 1))
@settings(deadline=None, max_examples=60)
def test_canonical_form_is_least_relabeling(case):
    n, bm = case
    fam = SetFamily(n, bm)
    assert canonical_form(fam) == brute_canonical(fam)


def family_of_columns(n, rows, columns):
    """The family whose rows masks have coordinate i's bits given by the
    rows-bit column columns[i]; equal columns are twin coordinates."""
    return SetFamily.from_masks(
        n, [sum((col >> r & 1) << i for i, col in enumerate(columns)) for r in range(rows)]
    )


@st.composite
def twin_heavy_families(draw, n):
    """1-4 masks whose n columns come from a palette of at most three."""
    rows = draw(st.integers(1, 4))
    palette = draw(st.lists(st.integers(0, (1 << rows) - 1), min_size=1, max_size=3))
    columns = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    return family_of_columns(n, rows, columns)


def twin_class_sizes(fam):
    """Sizes of the classes of coordinates whose exchange fixes the family."""
    reps, sizes = [], []
    for i in range(fam.n):
        for t, r in enumerate(reps):
            perm = list(range(fam.n))
            perm[i], perm[r] = r, i
            if relabel(fam, tuple(perm)) == fam:
                sizes[t] += 1
                break
        else:
            reps.append(i)
            sizes.append(1)
    return sizes


def heap_order(n):
    """Coordinate permutations in Heap's order, as images of 0..n-1, from
    the textbook iterative form acting on the coordinate at each position."""
    at = list(range(n))  # the coordinate at each position

    def images():
        perm = [0] * n
        for position, coordinate in enumerate(at):
            perm[coordinate] = position
        return tuple(perm)

    c = [0] * n
    perms = [images()]
    i = 1
    while i < n:
        if c[i] < i:
            j = c[i] if i % 2 else 0
            at[j], at[i] = at[i], at[j]
            perms.append(images())
            c[i] += 1
            i = 1
        else:
            c[i] = 0
            i += 1
    return perms


def heap_walk(bitmap, n, m):
    """The m! relabelings of an n-coordinate bitmap under permutations of
    its lowest m coordinates, stepped through by the delta swaps of
    `_heap_order`: each one is the one before with two coordinates
    exchanged."""
    yield bitmap
    for shift, pat in _heap_order(n, m):
        moved = (bitmap ^ (bitmap >> shift)) & pat
        bitmap ^= moved ^ (moved << shift)
        yield bitmap


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_relabelings_are_the_permuted_copies(n):
    """Heap's walk over all n coordinates yields exactly the permuted
    copies, for random, empty, full and twin-heavy families."""
    rng = random.Random(n)
    full = (1 << (1 << n)) - 1
    bitmaps = [0, full] + [rng.getrandbits(1 << n) for _ in range(6)]
    for _ in range(6):
        rows = rng.randint(1, 4)
        palette = [rng.getrandbits(rows) for _ in range(rng.randint(1, 3))]
        columns = [rng.choice(palette) for _ in range(n)]
        bitmaps.append(family_of_columns(n, rows, columns).bitmap)
    for bm in bitmaps:
        fam = SetFamily(n, bm)
        want = {relabel(fam, perm).bitmap for perm in itertools.permutations(range(n))}
        assert set(heap_walk(bm, n, n)) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_twin_free_walk_is_heaps_order(n):
    """A family without twins is walked over all n! permutations, in Heap's order."""
    chain = SetFamily.from_masks(n, [(1 << i) - 1 for i in range(1, n)] or [1])
    assert twin_class_sizes(chain) == [1] * n
    assert list(heap_walk(chain.bitmap, n, n)) == [
        relabel(chain, perm).bitmap for perm in heap_order(n)
    ]


@given(st.integers(1, 6).flatmap(twin_heavy_families))
@settings(deadline=None, max_examples=60)
def test_canonical_form_of_twin_heavy_families(fam):
    assert canonical_form(fam) == brute_canonical(fam)


@pytest.mark.parametrize(
    "fam",
    [
        SetFamily(6, 1 | 1 << full_mask(6)),
        SetFamily(6, supercube_bits(0b000100, 6)),
        linked_cubes(6, balanced_block(6)),
    ],
    ids=["empty-and-full", "star", "linked-cubes"],
)
def test_canonical_form_of_symmetric_families(fam):
    """Many relabelings of these families tie; the least is still the brute-force one."""
    assert canonical_form(fam) == brute_canonical(fam)


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=16))
    )
)
@settings(deadline=None, max_examples=40)
def test_bounded_search_is_least_relabeling_up_to_n6(case):
    n, masks = case
    fam = SetFamily.from_masks(n, masks)
    assert canonical_form(fam) == brute_canonical(fam)


@given(
    st.integers(7, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=40))
    )
)
@settings(deadline=None, max_examples=20)
def test_bounded_search_matches_the_walk_at_n7_and_n8(case):
    n, masks = case
    fam = SetFamily.from_masks(n, masks)
    assert canonical_form(fam).bitmap == min(heap_walk(fam.bitmap, n, n))


def graph_family(n, edges):
    """The edges of a graph on n vertices as a family of 2-sets."""
    return SetFamily.from_masks(n, [1 << a | 1 << b for a, b in edges])


FANO_LINES = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
CUBE_EDGES = [(a, a ^ 1 << i) for a in range(8) for i in range(3) if not a >> i & 1]
PETERSEN_EDGES = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
)


@pytest.mark.parametrize(
    "fam",
    [SetFamily.from_masks(7, [sum(1 << i for i in line) for line in FANO_LINES])]
    + [graph_family(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(5, 9)]
    + [graph_family(8, CUBE_EDGES)],
    ids=["fano", "c5", "c6", "c7", "c8", "cube-edges"],
)
def test_bounded_search_on_twin_free_symmetric_families(fam):
    """Many relabelings tie and no twins cut the tree; the least is still the walk's."""
    assert twin_class_sizes(fam) == [1] * fam.n
    assert canonical_form(fam).bitmap == min(heap_walk(fam.bitmap, fam.n, fam.n))


def test_canonical_form_of_the_petersen_graph_is_quick():
    """Twins do not cut the 10! relabelings, but the bound leaves fewer
    than a thousand nodes of `_TAIL` free positions for Heap's walk."""
    fam = graph_family(10, PETERSEN_EDGES)
    perm = tuple(random.Random(10).sample(range(10), 10))
    start = time.perf_counter()
    form = canonical_form(fam)
    assert time.perf_counter() - start < 1.0
    assert canonical_form(relabel(fam, perm)) == form
    assert len(form) == 15


@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, n),
            st.integers(0, (1 << (1 << n)) - 1),
            st.integers(0, (1 << (1 << n)) - 1),
        )
    )
)
@settings(deadline=None, max_examples=80)
def test_relabeling_bound_is_sound(case):
    """The bound is at most every arrangement of the low m coordinates,
    and is the bitmap itself at m = 0.  Stopped early against best, it is
    still a bound and still falls on the same side of best."""
    n, m, bm, best = case
    least = min(heap_walk(bm, n, m))
    bound = _relabeling_bound(bm, n, m)
    assert bound <= least
    assert m > 0 or bound == bm
    for against in (best, bound, bound + 1, max(bound - 1, 0), least):
        early = _relabeling_bound(bm, n, m, against)
        assert early <= bound
        assert (early >= against) == (bound >= against)


def block_bound(members, m):
    """The relabeling bound rebuilt from the member list: in each block of
    2^m bits, the c_r members of popcount r inside it are replaced by the
    c_r smallest m-bit indices of popcount r, listed directly."""
    by_level = [[x for x in range(1 << m) if bin(x).count("1") == r] for r in range(m + 1)]
    bound = 0
    for top in {x >> m for x in members}:
        inside = [x & ((1 << m) - 1) for x in members if x >> m == top]
        for r, level in enumerate(by_level):
            for x in level[: sum(bin(y).count("1") == r for y in inside)]:
                bound |= 1 << (top << m | x)
    return bound


@given(
    st.integers(1, 10).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, n),
            st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=8),
            st.integers(0, (1 << (1 << n)) - 1),
        )
    )
)
@settings(deadline=None, max_examples=120)
@example((10, 3, {1023}, 0))
@example((10, 10, {0, 1 << 9, 1023}, 1 << 1023))
@example((9, 0, {5, 300}, 0))
def test_relabeling_bound_of_sparse_bitmaps(case):
    """With 1-8 members up to n = 10, most blocks are empty or hold one
    member; the bound matches the reference built from the member list,
    and stopped early against best it sits below the full bound on the
    same side of best."""
    n, m, members, best = case
    bm = sum(1 << x for x in members)
    bound = _relabeling_bound(bm, n, m)
    assert bound == block_bound(members, m)
    for against in (best, bm, bound, bound + 1, max(bound - 1, 0), 1 << max(members)):
        early = _relabeling_bound(bm, n, m, against)
        assert early <= bound
        assert (early >= against) == (bound >= against)


@given(
    st.integers(8, 10).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8),
            st.permutations(range(n)),
        )
    )
)
@settings(deadline=None, max_examples=24)
def test_canonical_form_of_sparse_families(case):
    """Sparse families at n = 8 take the walk's least relabeling; at
    n = 9 and 10, past the walk's reach, a relabeled copy keeps its form."""
    n, masks, perm = case
    fam = SetFamily.from_masks(n, masks)
    form = canonical_form(fam)
    if n == 8:
        assert form.bitmap == min(heap_walk(fam.bitmap, n, n))
    assert canonical_form(relabel(fam, tuple(perm))) == form
    assert len(form) == len(fam)


def strike_off(n, found):
    """The class filter of search_min: a labeled bitmap is kept only when
    it is the least of its relabelings."""
    return [bm for bm in found if is_min_relabeling(bm, n)]


def every_copy(fams):
    """Every labeled copy of the families, each once, as the scan meets them."""
    return {bm for fam in fams for bm in heap_walk(fam.bitmap, fam.n, fam.n)}


@pytest.mark.parametrize("seed", range(12))
def test_strike_off_gives_one_form_per_class(seed):
    """Every labeled copy of a few classes reduces to exactly the
    brute-force canonical forms, one per class."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    fams = [SetFamily(n, rng.getrandbits(1 << n)) for _ in range(rng.randint(1, 4))]
    want = {brute_canonical(fam).bitmap for fam in fams}
    forms = strike_off(n, every_copy(fams))
    assert len(forms) == len(want)
    assert set(forms) == want


@given(
    st.integers(1, 6).flatmap(lambda n: st.lists(twin_heavy_families(n), min_size=1, max_size=3))
)
@settings(deadline=None, max_examples=40)
def test_strike_off_of_twin_heavy_families(fams):
    """Every labeled copy of twin-heavy classes reduces to their
    brute-force canonical forms, one per class."""
    want = {brute_canonical(fam).bitmap for fam in fams}
    forms = strike_off(fams[0].n, every_copy(fams))
    assert len(forms) == len(want)
    assert set(forms) == want


def test_scan_strikes_off_every_relabeling():
    """Of every relabeling of a family, the filter keeps only its canonical
    form, which is no relabeling of another class."""
    n = 4
    fam = SetFamily.from_masks(n, [0b0001, 0b0011, 0b0111])
    other = SetFamily.from_masks(n, [0b0001, 0b0010, 0b0111])
    assert canonical_form(fam) != canonical_form(other)
    perms = list(itertools.permutations(range(n)))
    copies = {relabel(fam, perm).bitmap for perm in perms}
    others = {relabel(other, perm).bitmap for perm in perms}
    assert strike_off(n, copies) == [canonical_form(fam).bitmap]
    assert not copies & others


@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), max_size=12),
            st.permutations(range(n)),
        )
    )
)
@settings(deadline=None, max_examples=60)
def test_is_min_relabeling_decides_canonical_forms(case):
    """True on every canonical form, and on a family and a relabeling of
    it exactly when canonical_form leaves the bitmap as it is."""
    n, masks, perm = case
    fam = SetFamily.from_masks(n, masks)
    assert is_min_relabeling(canonical_form(fam).bitmap, n)
    for copy in (fam, relabel(fam, tuple(perm))):
        assert is_min_relabeling(copy.bitmap, n) == (canonical_form(copy) == copy)


def test_canonical_form_cap():
    with pytest.raises(ValueError):
        canonical_form(SetFamily(11, 1))


# --------------------------------------------------- enumerations


def _below_k_maximal(n, k, mode):
    """Families of fewer than k members from the smallest size that can be
    maximal, each as (size, bitmap if it is maximal, else 0): the row scan
    by the below-k rule, kept here as a reference for the search's walks.

    The family is maximal when every non-member misses I, the AND of the
    members, and it passes itself: always in DISTINCT mode, with
    repetition at one member or I != 0.  Every member contains I, so for
    I != 0 the first condition says the family is all 2^n - 2^(n - |I|)
    sets meeting I, which its size decides.
    """
    count = 1 << n
    distinct = mode is KwiseMode.DISTINCT
    for size in range(_first_below_k_size(n, k, mode), min(k, count + 1)):
        for combo in itertools.combinations(range(count), size):
            common = reduce(operator.and_, combo)
            maximal = (distinct or size == 1 or common) and (
                not common or size == count - (1 << (n - common.bit_count()))
            )
            yield size, sum(1 << m for m in combo) if maximal else 0


def test_upset_counts_match_known_lattice_sizes():
    for n, want in [(1, 3), (2, 6), (3, 20), (4, 168), (5, 7581)]:
        ups = enumerate_upsets(n)
        assert len(ups) == want
        assert len(set(ups)) == want
        assert all(up_close_bits(bm, n) == bm for bm in ups)
    with pytest.raises(ValueError):
        enumerate_upsets(6)


@pytest.mark.parametrize("mode", [DISTINCT, REPETITION])
@pytest.mark.parametrize("k", [2, 3])
def test_enumerate_maximal_complete_at_n3(k, mode):
    got = {fam.bitmap for fam in enumerate_maximal_families(3, k, mode)}
    want = {
        bm
        for bm in range(1, 1 << 8)
        if _naive_is_maximal(3, list(SetFamily(3, bm)), k, mode)
    }
    assert got == want


@pytest.mark.parametrize("mode", [DISTINCT, REPETITION])
@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3, 4) for k in (2, 3, 4, 5)])
def test_below_k_scan_matches_naive_filter(n, k, mode):
    """The common-intersection rule decides every family of fewer than k
    members as the naive oracle does, by size.  A combination the
    generator leaves out counts as a non-maximal verdict."""
    got = list(_below_k_maximal(n, k, mode))
    assert [size for size, _ in got] == sorted(size for size, _ in got)
    maximal = [bm for _, bm in got if bm]
    assert len(set(maximal)) == len(maximal)
    for size in range(1, min(k, (1 << n) + 1)):
        for combo in itertools.combinations(range(1 << n), size):
            bm = sum(1 << m for m in combo)
            assert (bm in maximal) == _naive_is_maximal(n, list(combo), k, mode), combo


# ------------------------------------------------- minimum search


@pytest.mark.parametrize("mode", [DISTINCT, REPETITION])
@pytest.mark.parametrize(
    "n,k", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3)]
)
def test_search_matches_oracle(n, k, mode):
    report = search_min(SearchConfig(n=n, k=k, mode=mode))
    assert report.optimal
    assert report.f_value == oracle_min(n, k, mode)
    assert report.lower_bound == report.f_value
    assert len(report.witnesses) == len(report.matched_linked_cubes)
    for w in report.witnesses:
        assert canonical_form(w) == w
        assert _naive_is_maximal(n, list(w), k, mode)


def test_search_witness_classes_are_disjoint_pairs():
    """For k = 3 the minimum is 2 and the classes are exactly the disjoint
    pairs (a, b) with |a| <= |b|, counted by size profile."""
    for n, want in [(3, 5), (5, 11)]:
        report = search_min(SearchConfig(n=n, k=3))
        assert report.f_value == 2
        assert len(report.witnesses) == want
        profiles = set()
        for w in report.witnesses:
            a, b = sorted(w, key=lambda m: m.bit_count())
            assert a & b == 0
            profiles.add((a.bit_count(), b.bit_count()))
        assert len(profiles) == want


@pytest.mark.parametrize(
    "n,k,mode",
    [(n, k, mode) for n in (1, 2, 3, 4) for k in (2, 3, 4) for mode in (DISTINCT, REPETITION)]
    + [(5, 3, DISTINCT), (5, 4, DISTINCT)],
)
def test_search_witnesses_match_enumeration(n, k, mode):
    """One canonical form per class of the minimum families, against the
    exhaustive listing canonicalised family by family."""
    families = enumerate_maximal_families(n, k, mode)
    f = min(len(fam) for fam in families)
    want = sorted({canonical_form(fam).bitmap for fam in families if len(fam) == f})
    report = search_min(SearchConfig(n=n, k=k, mode=mode))
    assert report.f_value == f
    assert [w.bitmap for w in report.witnesses] == want


def row_scan(n, k, mode):
    """The floor's classes by the row scan: every labeled family of floor
    members, each maximal one kept when it is its class's least copy."""
    floor = _first_below_k_size(n, k, mode)
    nodes, forms = 0, []
    for size, bm in _below_k_maximal(n, k, mode):
        if size > floor:
            break
        nodes += 1
        if bm and is_min_relabeling(bm, n):
            forms.append(bm)
    return sorted(forms), nodes


@pytest.mark.parametrize(
    "n,k,mode",
    [(n, k, DISTINCT) for n in range(2, 8) for k in range(2, min(n, 5) + 1) if (n, k) != (7, 5)]
    + [(n, k, REPETITION) for n in range(2, 8) for k in (2, 5)],
)
def test_floor_profiles_match_the_row_scan(n, k, mode):
    """Below floor n the column profiles give the row scan's witnesses,
    linked-cubes flags and node count: every such (n, k) at n = 2..7 but
    (6, 6), (7, 5) and (7, 6), whose row scans take about 14 s, 15 s and
    several minutes."""
    assert _first_below_k_size(n, k, mode) < n
    forms, nodes = row_scan(n, k, mode)
    target = canonical_form(linked_cubes(n, balanced_block(n))).bitmap
    report = search_min(SearchConfig(n=n, k=k, mode=mode, budget=600))
    assert report.optimal
    assert [w.bitmap for w in report.witnesses] == forms
    assert report.matched_linked_cubes == tuple(bm == target for bm in forms)
    assert report.nodes_explored == nodes


@pytest.mark.parametrize("n,k,classes", [(7, 4, 312), (6, 5, 1707), (7, 5, 5191)])
def test_floor_profiles_count_every_labeled_family_once(n, k, classes):
    """Each kept profile adds its labeled copies, n! / (prod count! |stab|),
    so a complete run counts every combination of floor members once."""
    report = search_min(SearchConfig(n=n, k=k, budget=600))
    assert report.optimal
    assert report.nodes_explored == comb(2**n, k - 1)
    assert len(report.witnesses) == classes


def every_multiset_profiles(n, size):
    """The column-profile walk without prefix pruning: every sorted
    multiset of n column types is built and tested on its own, yielding
    (0, 0) when some member order gives it a lower image, and a maximal
    family's least relabeling over its support."""
    types = 1 << size
    width = n.bit_length()
    field = width * types + 1
    orders = list(itertools.permutations(range(size)))
    weights = [
        sum(
            1 << width * (types - 1 - sum((x >> j & 1) << p[j] for j in range(size))) + field * i
            for i, p in enumerate(orders)
        )
        for x in range(types)
    ]
    own = (1 << field) - 1
    ones = sum(1 << field * i for i in range(len(orders)))
    guards = ones << (field - 1)
    columns = [sum((x >> j & 1) << n * j for j in range(size)) for x in range(types)]
    for profile in itertools.combinations_with_replacement(range(types), n):
        keys = sum(map(weights.__getitem__, profile))
        mine = (keys & own) * ones
        if (mine | guards) - keys & guards == guards:
            stab = len(orders) - (((keys ^ mine) | guards) - ones & guards).bit_count()
            placed = sorted(profile, key=int.bit_count, reverse=True)
            rows = sum(columns[x] << i for i, x in enumerate(placed))
            members = {rows >> n * j & full_mask(n) for j in range(size)}
            if len(members) == size:
                copies = factorial(n) // stab
                for x in set(profile):
                    copies //= factorial(profile.count(x))
                common = profile.count(types - 1)
                bm = sum(1 << m for m in members)
                if common and size != (1 << n) - (1 << (n - common)):
                    yield copies, 0
                else:
                    yield copies, _min_relabeling(bm, (bm.bit_length() - 1).bit_length())
                continue
        yield 0, 0


PROFILE_SIZES = (
    [(n, s) for n in range(2, 7) for s in range(1, n)]
    + [(3, 3), (4, 4), (5, 5), (7, 2), (7, 3), (7, 4)]
)


@pytest.mark.parametrize("n,size", PROFILE_SIZES)
def test_pruned_profiles_match_every_multiset(n, size):
    """Dropping a prefix with a lower image loses no kept multiset: the
    pruned walk yields the same classes, copies and forms, in the same
    order, as testing every multiset."""
    want = [y for y in every_multiset_profiles(n, size) if y != (0, 0)]
    got = [y for y in search._floor_profiles(n, size) if y != (0, 0)]
    assert got == want


@pytest.mark.parametrize("n,size", PROFILE_SIZES)
def test_floor_forms_need_only_the_support(n, size):
    """A profile's copy puts its empty columns at the top, so its least
    relabeling over the coordinates below them, the form the walk yields,
    is its least overall."""
    for _, form in search._floor_profiles(n, size):
        if form:
            assert form == _min_relabeling(form, n)


@pytest.mark.parametrize(
    "n,size", [(n, s) for n in (1, 2, 3, 4) for s in range(1, (1 << n) + 1)]
)
def test_floor_rows_match_the_naive_filter(n, size):
    """The rows view's copies add up to every labeled family of `size`
    distinct members, and its forms are, once each, the canonical forms
    of the families the naive oracle finds maximal at k = size + 1."""
    got = list(search._floor_rows(n, size))
    assert sum(copies for copies, _ in got) == comb(1 << n, size)
    want = {
        canonical_form(SetFamily.from_masks(n, combo)).bitmap
        for combo in itertools.combinations(range(1 << n), size)
        if _naive_is_maximal(n, list(combo), size + 1, DISTINCT)
    }
    forms = [form for _, form in got if form]
    assert len(forms) == len(set(forms))
    assert set(forms) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_both_views_agree_at_floor_n(n):
    """At floor n both views of the orderly walk permute n things; they
    list the same sorted forms and count every labeled family once."""
    views = []
    for walk in (search._floor_profiles, search._floor_rows):
        got = list(walk(n, n))
        views.append((sorted(form for _, form in got if form), sum(c for c, _ in got)))
    assert views[0] == views[1]
    assert views[0][1] == comb(1 << n, n)


@pytest.mark.parametrize(
    "n,k,walk",
    [
        (4, 4, "_floor_profiles"),
        (4, 5, "_floor_rows"),
        (5, 5, "_floor_profiles"),
        (2, 3, "_floor_rows"),
        (1, 2, "_floor_rows"),
        (4, 6, "_floor_rows"),
        (1, 3, "_floor_rows"),
    ],
)
def test_search_walk_switches_at_floor_n(monkeypatch, n, k, walk):
    """Floors below n walk column profiles; from floor n on, a tie going
    to rows, row sets are walked, also at floor 2^(n - 1) for n <= 2,
    where a maximal family has common elements; both views give one
    canonical form per class of the exhaustive listing's minimum."""
    families = enumerate_maximal_families(n, k, DISTINCT)
    f = min(len(fam) for fam in families)
    want = sorted({canonical_form(fam).bitmap for fam in families if len(fam) == f})
    calls = []
    for name in ("_floor_profiles", "_floor_rows"):
        real = getattr(search, name)
        monkeypatch.setattr(search, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    report = search_min(SearchConfig(n=n, k=k))
    assert calls == [walk]
    assert report.f_value == f
    assert [w.bitmap for w in report.witnesses] == want


def _witness_digest(report):
    text = ",".join(str(w.bitmap) for w in report.witnesses)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@pytest.mark.parametrize(
    "n,k,mode,f,two_stage_nodes,lower_bound,classes,digest",
    [
        (1, 2, DISTINCT, 1, 7, 1, 2, "17f8af97ad4a"),
        (1, 2, REPETITION, 1, 7, 1, 2, "17f8af97ad4a"),
        (1, 3, DISTINCT, 2, 8, 2, 1, "4e07408562be"),
        (1, 3, REPETITION, 1, 7, 1, 2, "17f8af97ad4a"),
        (1, 4, DISTINCT, 2, 8, 2, 1, "4e07408562be"),
        (1, 4, REPETITION, 1, 7, 1, 2, "17f8af97ad4a"),
        (1, 5, DISTINCT, 2, 8, 2, 1, "4e07408562be"),
        (1, 5, REPETITION, 1, 7, 1, 2, "17f8af97ad4a"),
        (2, 2, DISTINCT, 1, 13, 1, 1, "6b86b273ff34"),
        (2, 2, REPETITION, 1, 13, 1, 1, "6b86b273ff34"),
        (2, 3, DISTINCT, 2, 22, 2, 4, "afa538892956"),
        (2, 3, REPETITION, 1, 13, 1, 1, "6b86b273ff34"),
        (2, 4, DISTINCT, 3, 26, 3, 3, "19c36628a174"),
        (2, 4, REPETITION, 1, 13, 1, 1, "6b86b273ff34"),
        (2, 5, DISTINCT, 4, 27, 4, 1, "e629fa6598d7"),
        (2, 5, REPETITION, 1, 13, 1, 1, "6b86b273ff34"),
        (3, 2, DISTINCT, 1, 25, 1, 1, "6b86b273ff34"),
        (3, 2, REPETITION, 1, 25, 1, 1, "6b86b273ff34"),
        (3, 3, DISTINCT, 2, 67, 2, 5, "afa444052e13"),
        (3, 3, REPETITION, 1, 25, 1, 1, "6b86b273ff34"),
        (3, 4, DISTINCT, 3, 131, 3, 13, "280e46e3503b"),
        (3, 4, REPETITION, 1, 25, 1, 1, "6b86b273ff34"),
        (3, 5, DISTINCT, 4, 203, 4, 20, "eb4fceb75c80"),
        (3, 5, REPETITION, 1, 25, 1, 1, "6b86b273ff34"),
        (4, 2, DISTINCT, 1, 49, 1, 1, "6b86b273ff34"),
        (4, 2, REPETITION, 1, 49, 1, 1, "6b86b273ff34"),
        (4, 3, DISTINCT, 2, 214, 2, 8, "b4d2bb0c99dd"),
        (4, 3, REPETITION, 1, 49, 1, 1, "6b86b273ff34"),
        (4, 4, DISTINCT, 3, 822, 3, 36, "2c16ee1fd77c"),
        (4, 4, REPETITION, 1, 49, 1, 1, "6b86b273ff34"),
        (4, 5, DISTINCT, 4, 2683, 4, 116, "e2c1e9bf02c6"),
        (4, 5, REPETITION, 1, 49, 1, 1, "6b86b273ff34"),
        (5, 2, DISTINCT, 1, 97, 1, 1, "6b86b273ff34"),
        (5, 2, REPETITION, 1, 97, 1, 1, "6b86b273ff34"),
        (5, 3, DISTINCT, 2, 717, 2, 11, "d5a57d22579f"),
        (5, 3, REPETITION, 1, 97, 1, 1, "6b86b273ff34"),
        (5, 4, DISTINCT, 3, 5873, 3, 82, "600b494acc0c"),
        (5, 4, REPETITION, 1, 97, 1, 1, "6b86b273ff34"),
        (5, 5, DISTINCT, 4, 42097, 4, 489, "31468a4af4b9"),
        (5, 5, REPETITION, 1, 97, 1, 1, "6b86b273ff34"),
        (6, 3, DISTINCT, 2, 2524, 2, 15, "0303e0a39ec6"),
        (6, 4, DISTINCT, 3, 44860, 3, 168, "eca2fb098810"),
        (7, 3, DISTINCT, 2, 9275, 2, 19, "89078c930799"),
    ],
)
def test_search_min_pinned_results(n, k, mode, f, two_stage_nodes, lower_bound, classes, digest):
    """f, bounds and a digest of the sorted witness bitmaps: a change to the
    below-k scan or to canonicalisation shows up here.  The node count is
    every combination of f members, which never exceeds the pinned count
    of the scan plus the branch and bound that once followed it."""
    report = search_min(SearchConfig(n=n, k=k, mode=mode, budget=600))
    assert report.optimal
    assert (report.f_value, report.lower_bound) == (f, lower_bound)
    assert report.nodes_explored == comb(2**n, f)
    assert report.nodes_explored <= two_stage_nodes
    assert (len(report.witnesses), _witness_digest(report)) == (classes, digest)


def test_search_budget_interruption():
    report = search_min(SearchConfig(n=7, k=3, budget=1e-9))
    assert not report.optimal
    assert report.f_value == 2
    assert report.lower_bound == 2
    assert report.elapsed < 5


@pytest.mark.parametrize("n,k", [(7, 200), (6, 80)])
def test_search_with_k_above_the_ground_count_finishes(n, k):
    # k - 1 exceeds 2^n, so the floor is the family of every set: one
    # combination to check, not a walk over up-sets until the budget ends
    report = search_min(SearchConfig(n=n, k=k, budget=5))
    assert (report.f_value, report.lower_bound) == (1 << n, 1 << n)
    assert report.optimal and report.nodes_explored == 1
    assert report.elapsed < 1


def test_search_budget_covers_the_floor_walk():
    # (7, 6) yields 194,954 column profiles and dropped prefixes and puts
    # 87,286 classes in canonical form, some seconds of work; the budget
    # is read every 256 yields and before each canonical form
    budget = 0.2
    report = search_min(SearchConfig(n=7, k=6, budget=budget))
    assert not report.optimal
    assert report.elapsed < budget + 0.25


def test_search_budget_covers_the_row_scan():
    # (5, 9) walks the row sets of floor 8, 99,847 classes among
    # C(32, 8) = 10,518,300 labeled families, about 3 s of work; the
    # budget is read every 256 yields and before each canonical form
    budget = 0.05
    report = search_min(SearchConfig(n=5, k=9, budget=budget))
    assert not report.optimal
    assert report.f_value == report.lower_bound == 8
    assert report.nodes_explored < comb(32, 8)
    assert report.elapsed < budget + 0.25


def test_search_budget_covers_the_weight_table():
    # (7, 8) weighs 128 values under 5,040 orders before the walk's first
    # yield; summing each weight term by term took over 20 s
    start = time.perf_counter()
    report = search_min(SearchConfig(n=7, k=8, budget=0.2))
    assert not report.optimal
    assert time.perf_counter() - start < 1.5


def test_search_holds_no_set_of_labeled_copies():
    # (6, 4) has 168 classes among 41,664 three-member families; a set of
    # every relabeling met put the traced peak at 1.18 MB
    tracemalloc.start()
    try:
        report = search_min(SearchConfig(n=6, k=4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.optimal
    assert peak < 500_000


@pytest.mark.parametrize("budget", ["5", True, None, 1j])
def test_search_config_refuses_a_budget_that_is_no_real_number(budget):
    with pytest.raises(ValueError, match="budget must be a positive finite number"):
        SearchConfig(n=3, k=3, budget=budget)


def test_search_config_takes_any_positive_real_budget():
    for budget in (5, 0.5, Fraction(1, 2)):
        assert SearchConfig(n=3, k=3, budget=budget).budget == budget


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n=8, k=3)
    with pytest.raises(ValueError):
        SearchConfig(n=True, k=3)
    with pytest.raises(ValueError):
        SearchConfig(n=3, k=1)
    for budget in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SearchConfig(n=3, k=3, budget=budget)
    with pytest.raises(ValueError):
        SearchConfig(n=3, k=3, mode="distinct")
    with pytest.raises(ValueError):
        oracle_min(6, 3)
    # a family of fewer than k members passes the oracle without listing
    # k-member collections
    assert oracle_min(3, 10**9) == 8
    assert oracle_min(3, 10**9, REPETITION) == 1


LC3 = linked_cubes(3, balanced_block(3))
MODE_AND_K_CALLS = {
    "ReachState": lambda k, mode: ReachState(3, k, mode),
    "is_k_wise_intersecting": lambda k, mode: is_k_wise_intersecting(LC3, k, mode),
    "addable_sets": lambda k, mode: addable_sets(SetFamily.from_masks(3, [1]), k, mode),
    "is_maximal_k_wise": lambda k, mode: is_maximal_k_wise(LC3, k, mode),
    "maximal_closure": lambda k, mode: maximal_closure(SetFamily.from_masks(3, [1]), k, mode),
    "verify_maximal_generator_correspondence": (
        lambda k, mode: verify_maximal_generator_correspondence(LC3, k, mode)
    ),
    "SearchConfig": lambda k, mode: SearchConfig(n=3, k=k, mode=mode),
    "oracle_min": lambda k, mode: oracle_min(3, k, mode),
    "enumerate_maximal_families": lambda k, mode: enumerate_maximal_families(3, k, mode),
}


@pytest.mark.parametrize("call", MODE_AND_K_CALLS.values(), ids=list(MODE_AND_K_CALLS))
@pytest.mark.parametrize(
    "k, mode", [(3, "distinct"), (3, "repetition"), (1, DISTINCT)], ids=["distinct", "repetition", "k=1"]
)
def test_mode_and_k_are_checked(call, k, mode):
    """A mode given as its string value, or a k below 2, is refused
    instead of answered."""
    with pytest.raises(ValueError, match="mode must be a KwiseMode|k must be an int >= 2"):
        call(k, mode)


def test_enumeration_refuses_n_above_its_cap():
    with pytest.raises(ValueError, match="capped at n=5"):
        enumerate_maximal_families(6, 3, DISTINCT)


# -------------------------------------------------- cube-split audit


def test_partition_relative_to_cubes_star_complement():
    star = SetFamily(5, supercube_bits(0b00001, 5))
    comp = complement_family(star)  # the cube on {2,3,4,5}
    g1, g2, g3 = partition_relative_to_cubes(comp, 0b00011)
    assert g1.member_list() == [0b00010]
    assert len(g2) == 6
    # 16 members: the empty set, the block {3,4,5} itself, g1, g2, and g3
    assert len(g3) == 7
    assert 0b00110 in g3


@given(
    st.integers(min_value=0, max_value=(1 << 16) - 1),
    st.integers(min_value=1, max_value=14),
)
@settings(deadline=None, max_examples=60)
def test_partition_reconstructs_family(bm, s):
    fam = SetFamily(4, bm)
    g1, g2, g3 = partition_relative_to_cubes(fam, s)
    sc = s ^ full_mask(4)
    kept = 1 | (1 << s) | (1 << sc)
    assert g1.bitmap | g2.bitmap | g3.bitmap | (bm & kept) == bm
    assert g1.bitmap & ~cube_bits(s) == 0
    assert g2.bitmap & ~cube_bits(sc) == 0
    assert g3.bitmap & (cube_bits(s) | cube_bits(sc)) == 0


def test_product_bound_terms_directions():
    # equality exactly at the extremal counts with empty outside part
    lhs, rhs = product_bound_terms(14, 30, 0, 4, Fraction(1, 8))
    assert lhs == rhs == 420
    # a nonempty outside part pulls the left side strictly below
    lhs, rhs = product_bound_terms(13, 30, 1, 4, Fraction(1, 8))
    assert lhs == Fraction(392) and rhs == 420 and lhs < rhs
    # and inflated counts violate the bound, so the check is two sided
    lhs, rhs = product_bound_terms(15, 30, 0, 4, Fraction(1, 8))
    assert lhs > rhs


@pytest.mark.parametrize(
    "args, name",
    [
        ((5, 10, 3, 1.5, Fraction(1, 10)), "ell"),
        ((5, 10, 3, True, Fraction(1, 10)), "ell"),
        ((5, 10, 3, -1, Fraction(1, 10)), "ell"),
        ((False, 10, 3, 2, Fraction(1, 10)), "g1_size"),
        ((5, -10, 3, 2, Fraction(1, 10)), "g2_size"),
        ((5, 10, 3.0, 2, Fraction(1, 10)), "g3_size"),
        ((5, 10, 3, 2, float("inf")), "eps"),
    ],
)
def test_product_bound_terms_checks_its_arguments(args, name):
    with pytest.raises(ValueError, match=name):
        product_bound_terms(*args)


def test_audit_linked_cubes_n9():
    fam = linked_cubes(9, balanced_block(9))
    report = audit_claim_counts(fam, balanced_block(9), Fraction(1, 8))
    assert isinstance(report, ClaimCountsReport)
    assert report.ell == 4
    assert report.family_size == 45
    assert report.cube_pair_size == 47
    assert (report.g1_size, report.g2_size, report.g3_size) == (14, 30, 0)
    assert report.sym_diff_size == 2
    assert report.hypotheses_met
    assert report.outside_count == 420
    assert report.chain_lower == 420
    assert report.pair_bound == 420
    assert report.product_bound == 420
    assert report.pair_bound_holds and report.product_bound_holds
    assert report.product_bound_equality and report.g3_empty


def test_audit_linked_cubes_n7():
    fam = linked_cubes(7, balanced_block(7))
    # the symmetric difference is always 2, so eps*2^ell must reach 2;
    # at ell = 3 that takes eps = 1/4 where n = 9 already passes at 1/8
    tight = audit_claim_counts(fam, balanced_block(7), Fraction(1, 8))
    assert not tight.hypotheses_met
    report = audit_claim_counts(fam, balanced_block(7), Fraction(1, 4))
    assert report.hypotheses_met
    assert report.family_size == 21
    assert report.cube_pair_size == 23
    assert report.chain_lower == 84
    assert report.outside_count == 84
    assert report.product_bound == (6) * (14)
    assert report.product_bound_equality and report.g3_empty


def test_audit_star_misses_hypotheses():
    star = SetFamily(5, supercube_bits(0b00001, 5))
    report = audit_claim_counts(star, 0b00011, Fraction(1, 8))
    assert not report.hypotheses_met
    assert report.g3_size == 7
    assert not report.g3_empty


def test_audit_validation():
    with pytest.raises(ValueError):
        audit_claim_counts(SetFamily(4, 1), 0b0011, Fraction(1, 8))
    fam = linked_cubes(5, 0b00011)
    with pytest.raises(ValueError):
        audit_claim_counts(fam, 0, Fraction(1, 8))
    with pytest.raises(ValueError):
        audit_claim_counts(fam, full_mask(5), Fraction(1, 8))
    with pytest.raises(ValueError):
        audit_claim_counts(fam, 0b00011, Fraction(-1, 8))
    huge_exponents = ("1e1000", "1E-0_999999999", Decimal("1e3000000"))
    for eps in (float("inf"), float("-inf"), "1/0", *huge_exponents):
        with pytest.raises(ValueError, match="eps"):
            audit_claim_counts(fam, 0b00011, eps)
    # the audit accepts the string and reads it exactly
    tiny = Fraction(1, 10**999)
    assert _exact_eps("1e-999") == tiny
    assert audit_claim_counts(fam, 0b00011, "1e-999") == audit_claim_counts(fam, 0b00011, tiny)
    with pytest.raises(ValueError):
        audit_claim_counts(SetFamily.from_masks(5, [0]), 0b00011, Fraction(1, 8))
