"""ReachState against the independent naive oracles in kwise.search.

The oracles (`_naive_is_kwise`, `_naive_addable`, `_naive_is_maximal`)
enumerate member collections with itertools and never touch ReachState,
so agreement is meaningful.  Inputs cover both layer representations:
uniform families of large subsets push a layer past the sparse width
limit into a dense bitmap, linked cubes keep every layer below R_k a
sparse antichain.  R_k is kept as one bit, whether it holds the empty
set, and is checked against a reference fold that keeps every layer in
full.  ReachState.of, which skips non-minimal members of large families,
is also compared layer for layer with a plain fold of every member.
"""

import functools
import itertools
import operator
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kwise import (
    KwiseMode,
    SetFamily,
    addable_sets,
    balanced_block,
    is_k_wise_intersecting,
    is_maximal_k_wise,
    linked_cubes,
    maximal_closure,
)
from kwise import core
from kwise.bitops import up_close_bits
from kwise.core import ReachState
from kwise.search import _naive_addable, _naive_is_kwise, _naive_is_maximal

MODES = (KwiseMode.DISTINCT, KwiseMode.WITH_REPETITION)


def uniform(n, r):
    """All r-subsets of n points."""
    return SetFamily.from_masks(
        n, [sum(1 << i for i in c) for c in itertools.combinations(range(n), r)]
    )


def dense_layers(state):
    """Which of R_1..R_(k-1) are dense; the last entry of layers is R_k's bit."""
    return [type(layer) is int for layer in state.layers[:-1]]


def full_layers(members, k):
    """Reference fold keeping every layer R_1..R_k in full: R_j is the set
    of intersections of j distinct members."""
    layers = [set() for _ in range(k)]
    for g in members:
        for j in range(k - 1, 0, -1):
            layers[j] |= {t & g for t in layers[j - 1]}
        layers[0].add(g)
    return layers


def assert_matches_oracles(fam, k, mode, state=None):
    n, members = fam.n, fam.member_list()
    state = ReachState.of(fam, k, mode) if state is None else state
    kwise = _naive_is_kwise(members, k, mode)
    assert state.intersecting() == kwise
    assert is_k_wise_intersecting(fam, k, mode) == kwise
    if not kwise:
        with pytest.raises(ValueError):
            addable_sets(fam, k, mode)
        assert not _naive_is_maximal(n, members, k, mode)
        return
    want = {
        g for g in range(1 << n)
        if g not in fam and _naive_addable(members, g, k, mode)
    }
    assert set(SetFamily(n, state.addable())) == want
    assert set(addable_sets(fam, k, mode)) == want
    assert is_maximal_k_wise(fam, k, mode) == _naive_is_maximal(n, members, k, mode)


@st.composite
def small_families(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=10, unique=True))
    return SetFamily.from_masks(n, masks)


def minimal_scan(layer, masks):
    """Reference antichain fold, one mask at a time: a mask joins unless
    some element lies inside it, and evicts the elements containing it."""
    out = list(layer)
    for x in masks:
        if all(a & x != a for a in out):
            out = [a for a in out if a & x != x] + [x]
    return tuple(out)


@given(st.data(), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=100)
def test_merge_minimal_matches_a_scan(data, rng):
    # random 26-bit masks are mostly incomparable, so layers run wide and
    # take the packed tests; the masks merged in are new, duplicates,
    # supersets of an element, or inside several elements, which evicts
    # them, and then supersets and submasks of masks merged before them
    size = data.draw(st.sampled_from(range(201)))
    layer = minimal_scan((), [rng.getrandbits(26) for _ in range(size)])
    mask_26 = st.builds(rng.getrandbits, st.just(26))
    element = st.sampled_from(layer) if layer else mask_26
    masks = data.draw(st.lists(st.one_of(
        mask_26,
        element,
        st.tuples(element, mask_26).map(lambda pair: pair[0] | pair[1]),
        st.lists(element, min_size=2, max_size=4).map(lambda xs: functools.reduce(operator.and_, xs)),
    ), max_size=200 - size))
    for i in data.draw(st.lists(st.integers(0, len(masks) - 1), max_size=20) if masks else st.just([])):
        r = rng.getrandbits(26)
        masks.append(masks[i] | r if data.draw(st.booleans()) else masks[i] & r)
    if data.draw(st.integers(0, 3)) == 0:
        masks.insert(data.draw(st.integers(0, len(masks))), 0)
    got = core._merge_minimal(layer, masks)
    assert got == minimal_scan(layer, masks)
    union = set(layer) | set(masks)
    assert set(got) == {x for x in union if not any(a != x and a & x == a for a in union)}
    # nothing new and minimal: the same tuple object comes back
    same = list(got) + [a | m for a in got for m in masks[:2]]
    assert core._merge_minimal(got, same) is got


@given(small_families(), st.sampled_from([2, 3, 4, 10**9]), st.sampled_from(MODES))
@settings(deadline=None, max_examples=300)
def test_state_matches_oracles(fam, k, mode):
    assert_matches_oracles(fam, k, mode)


@given(small_families(), st.sampled_from([2, 3, 4, 10**9]), st.sampled_from(MODES), st.randoms())
@settings(deadline=None, max_examples=150)
def test_fold_order_does_not_matter(fam, k, mode, rng):
    # the closure folds members out of mask order
    members = fam.member_list()
    rng.shuffle(members)
    state = ReachState(fam.n, k, mode)
    for g in members:
        state = state.fold(g)
    assert state.size == len(fam)
    assert_matches_oracles(fam, k, mode, state)


@given(small_families(), st.integers(2, 5), st.sampled_from(MODES), st.randoms())
@example(uniform(6, 5), 5, KwiseMode.DISTINCT, random.Random(0))
@example(uniform(6, 5), 4, KwiseMode.WITH_REPETITION, random.Random(1))
@example(uniform(6, 4), 3, KwiseMode.DISTINCT, random.Random(2))
@settings(deadline=None, max_examples=200)
def test_layers_nest_and_members_are_the_family(fam, k, mode, rng):
    # each question reads one layer because up(R_j) lies inside up(R_(j+1));
    # of R_k the state keeps only whether it holds the empty set
    members = fam.member_list()
    rng.shuffle(members)
    folded = ReachState(fam.n, k, mode)
    for g in members:
        folded = folded.fold(g)
    empty_in_last = int(0 in full_layers(members, k)[-1])
    for state in (ReachState.of(fam, k, mode), folded):
        assert state.members == fam.bitmap
        ups = [
            up_close_bits(layer if type(layer) is int else sum(1 << t for t in layer), fam.n)
            for layer in state.layers[:-1]
        ]
        for j in range(1, min(state.size, len(ups))):
            assert ups[j - 1] & ~ups[j] == 0
        if state.size >= k:
            assert state.hits_empty() == bool(empty_in_last)
            if k > fam.n:  # I decides, so no layers are built
                assert state.layers == ()
                continue
            assert state.layers[-1] == empty_in_last
            if ups and ups[-1] & 1:
                assert state.layers[-1] == 1


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_edge_cases(k, mode):
    for n in (1, 3, 6):
        # the empty family, families holding the empty set, fewer than k members
        assert_matches_oracles(SetFamily(n, 0), k, mode)
        assert_matches_oracles(SetFamily.from_masks(n, [0]), k, mode)
        assert_matches_oracles(SetFamily.from_masks(n, [0, (1 << n) - 1]), k, mode)
        for size in range(1, k):
            masks = random.Random(n * 10 + size).sample(range(1 << n), min(size, 1 << n))
            assert_matches_oracles(SetFamily.from_masks(n, masks), k, mode)
    assert ReachState(3, k, mode).intersecting()
    assert ReachState(3, k, mode).blocked() == 0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [3, 4])
def test_wide_uniform_families_go_dense(k, mode):
    # subsets of size > 2n/3: any three of them meet, and their pairwise
    # intersections, the 36 7-sets, form an antichain whose width times the
    # 9 members of R_1 exceeds the square of the sparse limit, so R_2 goes
    # dense (R_k is kept as one bit)
    fam = uniform(9, 8)
    state = ReachState.of(fam, k, mode)
    assert any(dense_layers(state))
    assert_matches_oracles(fam, k, mode, state)
    # folded in descending mask order it goes dense the same way
    state = ReachState(9, k, mode)
    for g in reversed(fam.member_list()):
        state = state.fold(g)
    assert any(dense_layers(state))
    assert_matches_oracles(fam, k, mode, state)


def test_dense_layers_form_a_suffix():
    for n, r in ((9, 8), (12, 9), (14, 10)):
        flags = dense_layers(ReachState.of(uniform(n, r), 3))
        assert any(flags)
        assert flags == sorted(flags)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_linked_cubes_stay_sparse(k, mode):
    for n in range(2, 7):
        for block in (balanced_block(n), 1):
            fam = linked_cubes(n, block)
            state = ReachState.of(fam, k, mode)
            assert not any(dense_layers(state))
            assert_matches_oracles(fam, k, mode, state)


def test_linked_cubes_maximal_at_n24():
    # a size the dense fold could not reach in seconds
    fam = linked_cubes(24, balanced_block(24))
    state = ReachState.of(fam, 3)
    assert not any(dense_layers(state))
    assert state.intersecting() and state.addable() == 0


@pytest.mark.parametrize("n", [18, 19, 20])
def test_balanced_linked_cubes_keep_r2_sparse(n):
    # R_2 is 83, 92 and 102 masks wide against R_1's n: its width times
    # R_1's stays below the squared sparse limit, so R_2 is folded and
    # tested packed rather than as a dense bitmap
    fam = linked_cubes(n, balanced_block(n))
    for mode in MODES:
        state = ReachState.of(fam, 3, mode)
        assert dense_layers(state) == [False, False]
        assert len(state.layers[1]) >= core._PACK_MIN
        assert state.intersecting() and state.addable() == 0


def co_singletons(n):
    """The masks of the n sets that miss exactly one point."""
    return [((1 << n) - 1) ^ (1 << i) for i in range(n)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("n", [8, 9, 10])
def test_packed_layers_match_oracles(n, k, mode, monkeypatch):
    # R_2 of the n co-singletons is the C(n, 2) (n-2)-sets, so it passes
    # the packing width before it is complete.  Large random masks, which
    # few co-singletons contain, give it shapes of its own; small ones,
    # folded late in the shuffled order, miss some t in a wide R_(k-1).
    # ReachState.of and the shuffled fold go through the packed
    # _merge_minimal and R_k test
    packs = []
    pack = core._pack
    monkeypatch.setattr(core, "_pack", lambda masks: packs.append(len(masks)) or pack(masks))
    rng = random.Random(n * 100 + k * 10 + (mode is KwiseMode.DISTINCT))
    for _ in range(10):
        extra = [
            rng.getrandbits(n) | rng.getrandbits(n) | rng.getrandbits(n) if rng.random() < 0.7
            else rng.getrandbits(n) & rng.getrandbits(n)
            for _ in range(rng.randint(0, 4))
        ]
        fam = SetFamily.from_masks(n, set(co_singletons(n)) | set(extra))
        members = fam.member_list()
        kwise = _naive_is_kwise(members, k, mode)
        want = sum(
            1 << g for g in range(1 << n)
            if kwise and g not in fam and _naive_addable(members, g, k, mode)
        )
        rng.shuffle(members)
        folded = ReachState(n, k, mode)
        for g in members:
            folded = folded.fold(g)
        for state in (ReachState.of(fam, k, mode), folded):
            assert state.intersecting() == kwise
            if kwise:
                assert state.addable() == want
    assert packs


def test_fold_leaves_the_old_state_unchanged():
    fam = linked_cubes(5, balanced_block(5))
    before = ReachState.of(fam, 3)
    layers = before.layers
    missing = next(g for g in range(32) if g not in fam)
    after = before.fold(missing)
    assert before.layers is layers and before.size == len(fam)
    assert after.size == len(fam) + 1
    # linked cubes are maximal, so any added set breaks the property
    assert before.intersecting() and not after.intersecting()


def ascending_fold(fam, k, mode):
    """Reference state: every member folded with ReachState.fold in ascending order."""
    state = ReachState(fam.n, k, mode)
    for i, byte in enumerate(fam.bitmap.to_bytes(((1 << fam.n) + 7) // 8, "little")):
        for j in range(8 if byte else 0):
            if (byte >> j) & 1:
                state = state.fold(8 * i + j)
    return state


def assert_of_is_the_ascending_fold(fam, k, mode):
    state, ref = ReachState.of(fam, k, mode), ascending_fold(fam, k, mode)
    assert state.layers == ref.layers
    assert state.members == ref.members == fam.bitmap
    assert state.size == ref.size == fam.bitmap.bit_count()


def above_pass_bound(fam):
    return fam.bitmap.bit_count() << core._MINIMAL_PASS_SHIFT >= fam.n << fam.n


def star(n):
    return SetFamily(n, sum(1 << m for m in range(1 << n) if m & 1))


def with_supersets(n, masks, rng):
    """The masks and, for half of them, one random superset each."""
    out = set(masks)
    for m in masks[::2]:
        out.add(m | rng.getrandbits(n))
    return SetFamily.from_masks(n, out)


def seeded_closure(n, k, mode, rng):
    """maximal_closure of a random k-wise intersecting family of large sets."""
    while True:
        masks = [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(rng.randint(2, 6))]
        fam = SetFamily.from_masks(n, masks)
        if is_k_wise_intersecting(fam, k, mode):
            return maximal_closure(fam, k, mode)


def up_closed_families(k, mode):
    rng = random.Random(k * 2 + (mode is KwiseMode.DISTINCT))
    for n in (4, 9, 13):
        yield seeded_closure(n, k, mode, rng)
    for n in (4, 10, 14):
        yield star(n)
    # with a one-point block linked cubes have 2^(n-1) - 1 members
    for n in (5, 9, 12, 16, 20):
        for block in (balanced_block(n), 1)[: 2 if n < 16 else 1]:
            fam = linked_cubes(n, block)
            yield fam
            # punctured at a minimal member: its supersets may become minimal
            yield SetFamily(fam.n, fam.bitmap & ~(1 << next(iter(fam))))
            yield SetFamily(fam.n, fam.bitmap & ~(1 << (fam.bitmap.bit_length() - 1)))
    # from n = 22 on balanced linked cubes fall below the bound and are
    # walked whole; the reference fold takes about half a second there,
    # so only the intact family is folded
    yield linked_cubes(22, balanced_block(22))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_of_is_the_ascending_fold_on_up_closed_families(k, mode):
    families = list(up_closed_families(k, mode))
    assert any(above_pass_bound(f) for f in families)
    assert any(not above_pass_bound(f) for f in families)
    for fam in families:
        assert_of_is_the_ascending_fold(fam, k, mode)


@pytest.mark.parametrize("mode", MODES)
def test_of_is_the_ascending_fold_on_the_star_at_n16(mode):
    assert_of_is_the_ascending_fold(star(16), 3, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_of_is_the_ascending_fold_on_antichains_and_random_families(k, mode):
    for n in (4, 8, 12):
        # the middle layer has no member inside another, so nothing is skipped
        assert_of_is_the_ascending_fold(uniform(n, n // 2), k, mode)
    rng = random.Random(k)
    # half and twice n * 2^n / 2^_MINIMAL_PASS_SHIFT masks at n = 14, with
    # up to half as many supersets: families on both sides of the bound
    bound = (14 << 14) >> core._MINIMAL_PASS_SHIFT
    for count, above in ((bound // 2, False), (2 * bound, True)):
        fam = with_supersets(14, [rng.getrandbits(14) for _ in range(count)], rng)
        assert above_pass_bound(fam) == above
        assert_of_is_the_ascending_fold(fam, k, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n, k", [(1, 4), (1, 7), (2, 6), (2, 9)])
def test_of_is_the_ascending_fold_past_the_last_layer(n, k, mode):
    # k > 2^n + 1: no family reaches k members, so every state keeps no layers
    for bm in range(1 << (1 << n)):
        assert_of_is_the_ascending_fold(SetFamily(n, bm), k, mode)


@given(small_families(), st.sampled_from([2, 3, 5, 10**9]), st.sampled_from(MODES), st.randoms())
@example(SetFamily(6, 0), 10**9, KwiseMode.DISTINCT, random.Random(0))
@example(uniform(6, 5), 10**9, KwiseMode.WITH_REPETITION, random.Random(1))
@settings(deadline=None, max_examples=200)
def test_below_k_a_state_is_the_common_intersection(fam, k, mode, rng):
    # below k members, and at every size for k > n, there are no layers,
    # only the AND of the members; otherwise the k-th member builds all k
    def check(state, members):
        if len(members) < k or k > fam.n:
            common = (1 << fam.n) - 1
            for m in members:
                common &= m
            assert state.layers == () and state.common == common
        else:
            assert len(state.layers) == k

    check(ReachState.of(fam, k, mode), fam.member_list())
    members = fam.member_list()
    rng.shuffle(members)
    state = ReachState(fam.n, k, mode)
    check(state, [])
    for i, g in enumerate(members):
        state = state.fold(g)
        check(state, members[: i + 1])


def test_a_huge_k_costs_only_the_layers_the_family_fills():
    # every layer of the n co-singletons goes dense; a layer per possible
    # collection size would zero-fill 2^18 + 1 bitmaps of 2^18 bits
    start = time.perf_counter()
    state = ReachState.of(SetFamily.from_masks(18, co_singletons(18)), 10**9)
    assert state.intersecting() and state.addable() != 0
    assert time.perf_counter() - start < 2


def test_a_huge_k_reads_a_small_family_off_its_common_intersection():
    # 2048 members below k = 10^9: each call reads their common intersection
    fam = star(12)
    for check in (is_maximal_k_wise, addable_sets, maximal_closure):
        start = time.perf_counter()
        check(fam, 10**9)
        assert time.perf_counter() - start < 0.5


def test_k_above_n_reads_a_large_family_off_its_common_intersection():
    # for k > n, I decides at every size: the 2048-member star at n = 12
    # with k = 2000, and the closure of {full set} at n = 11 with k = 1000,
    # which passes k members, fold no reach layers
    start = time.perf_counter()
    assert is_k_wise_intersecting(star(12), 2000)
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    closed = maximal_closure(SetFamily(11, 1 << 2047), 1000, KwiseMode.WITH_REPETITION)
    assert closed == star(11)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("mode", MODES)
def test_a_huge_k_closes_a_small_family_in_bulk(mode):
    # below k - 1 members the closure adds every mask that changes no
    # blocking at once: star(18) takes all 2^18 masks, and {full set}
    # with repetition folds {1} and then takes the rest of its star
    n = 18
    if mode is KwiseMode.DISTINCT:
        fam, want = star(n), SetFamily(n, (1 << (1 << n)) - 1)
    else:
        fam, want = SetFamily.from_masks(n, [(1 << n) - 1]), star(n)
    start = time.perf_counter()
    assert maximal_closure(fam, 10**9, mode) == want
    assert time.perf_counter() - start < 0.5


@given(small_families(), st.integers(2, 5), st.sampled_from(MODES), st.booleans())
@settings(deadline=None, max_examples=300)
def test_of_is_the_ascending_fold_on_small_families(fam, k, mode, close):
    if close:
        fam = SetFamily(fam.n, up_close_bits(fam.bitmap, fam.n))
    assert_of_is_the_ascending_fold(fam, k, mode)
