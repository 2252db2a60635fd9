"""ReachState against the independent naive oracles in kwise.search.

The oracles (`_naive_is_kwise`, `_naive_addable`, `_naive_is_maximal`)
enumerate member collections with itertools and never touch ReachState,
so agreement is meaningful.  Inputs cover both layer representations:
uniform families of large subsets push a layer past the sparse width
limit into a dense bitmap, linked cubes keep every layer a sparse
antichain.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwise import (
    KwiseMode,
    SetFamily,
    addable_sets,
    balanced_block,
    is_k_wise_intersecting,
    is_maximal_k_wise,
    linked_cubes,
)
from kwise.core import ReachState
from kwise.search import _naive_addable, _naive_is_kwise, _naive_is_maximal

MODES = (KwiseMode.DISTINCT, KwiseMode.WITH_REPETITION)


def uniform(n, r):
    """All r-subsets of n points."""
    return SetFamily.from_masks(
        n, [sum(1 << i for i in c) for c in itertools.combinations(range(n), r)]
    )


def dense_layers(state):
    return [type(layer) is int for layer in state.layers]


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
    assert set(SetFamily(n, state.addable(fam.bitmap))) == want
    assert set(addable_sets(fam, k, mode)) == want
    assert is_maximal_k_wise(fam, k, mode) == _naive_is_maximal(n, members, k, mode)


@st.composite
def small_families(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=10, unique=True))
    return SetFamily.from_masks(n, masks)


@given(small_families(), st.sampled_from([2, 3, 4]), st.sampled_from(MODES))
@settings(deadline=None, max_examples=300)
def test_state_matches_oracles(fam, k, mode):
    assert_matches_oracles(fam, k, mode)


@given(small_families(), st.sampled_from([2, 3, 4]), st.sampled_from(MODES), st.randoms())
@settings(deadline=None, max_examples=150)
def test_fold_order_does_not_matter(fam, k, mode, rng):
    # the closure and the branch-and-bound fold members out of mask order
    members = fam.member_list()
    rng.shuffle(members)
    state = ReachState(fam.n, k, mode)
    for g in members:
        state = state.fold(g)
    assert state.size == len(fam)
    assert_matches_oracles(fam, k, mode, state)


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
    # and triple intersections form antichains wider than the sparse limit
    fam = uniform(6, 5)
    state = ReachState.of(fam, k, mode)
    assert any(dense_layers(state))
    assert_matches_oracles(fam, k, mode, state)
    # folded in descending mask order it goes dense the same way
    state = ReachState(6, k, mode)
    for g in reversed(fam.member_list()):
        state = state.fold(g)
    assert any(dense_layers(state))
    assert_matches_oracles(fam, k, mode, state)


def test_dense_layers_form_a_suffix():
    for n, r in ((6, 5), (12, 9), (14, 10)):
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
    assert state.intersecting() and state.addable(fam.bitmap) == 0


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
