"""Family model, k-wise checks, and maximality against naive oracles.

The oracles here use itertools over member lists and nothing from the
package's bitmap fast paths, so agreement is meaningful.
"""

import copy
import itertools
import pickle
import random
from functools import reduce
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwise import (
    KwiseMode,
    SetFamily,
    addable_sets,
    complement_family,
    complement_within_powerset,
    is_down_closed,
    is_k_wise_intersecting,
    is_maximal_k_wise,
    maximal_closure,
    restrict_plus,
    symmetric_difference_count,
)
from kwise.bitops import down_close_bits, iter_bits, up_close_bits
from kwise.core import ReachState
from kwise.search import _naive_addable, _naive_is_kwise

from helpers import families

DISTINCT = KwiseMode.DISTINCT
REPETITION = KwiseMode.WITH_REPETITION


def naive_kwise(members, k, mode):
    """Literal reading of the definition, subsets via itertools."""
    if mode is DISTINCT:
        return all(
            reduce(and_, c) != 0 for c in itertools.combinations(members, k)
        )
    return all(
        reduce(and_, c) != 0
        for j in range(2, min(k, len(members)) + 1)
        for c in itertools.combinations(members, j)
    )


def naive_maximal(n, members, k, mode):
    if not naive_kwise(members, k, mode):
        return False
    present = set(members)
    for g in range(1 << n):
        if g in present:
            continue
        if naive_kwise(members + [g], k, mode):
            return False
    return True


# ---------------------------------------------------------------- model


def test_hex_example():
    fam = SetFamily.from_masks(2, [0b00, 0b11])
    assert fam.to_hex() == "9"
    assert SetFamily.from_hex(2, "9") == fam


def test_hex_roundtrip_and_validation():
    fam = SetFamily.from_masks(3, [1, 2, 4, 7])
    assert SetFamily.from_hex(3, fam.to_hex()) == fam
    with pytest.raises(ValueError):
        SetFamily.from_hex(2, "99")
    with pytest.raises(ValueError):
        SetFamily.from_hex(2, "g")


@pytest.mark.parametrize("text", ["0x0f", "+00f", "0_0f", "\u0660\u0660\u0660f"])
def test_hex_rejects_non_hex_digits(text):
    """Only 0-9a-f: what int(text, 16) would also take (a sign, a 0x prefix,
    underscores, other scripts' digits) is rejected at the right length."""
    assert len(text) == 4
    with pytest.raises(ValueError, match="0-9a-f"):
        SetFamily.from_hex(4, text)


def test_hex_accepts_case_and_surrounding_space():
    assert SetFamily.from_hex(4, " 00FF\n") == SetFamily(4, 0xFF)
    assert SetFamily.from_hex(1, "3") == SetFamily(1, 3)
    with pytest.raises(ValueError):
        SetFamily.from_hex(1, "4")


@pytest.mark.parametrize("n", [True, False])
def test_ground_size_rejects_bool(n):
    """bool is an int subclass, but no ground size."""
    with pytest.raises(ValueError):
        SetFamily(n, 1)
    with pytest.raises(ValueError):
        SetFamily.from_masks(n, [0])


def test_membership_and_sizes():
    fam = SetFamily.from_masks(3, [0, 5])
    assert len(fam) == 2
    assert 5 in fam and 3 not in fam
    assert fam.member_list() == [0, 5]
    with pytest.raises(ValueError):
        SetFamily.from_masks(2, [4])


def test_repr_lists_up_to_eight_members():
    assert repr(SetFamily.from_masks(3, [0, 5])) == "SetFamily(n=3, {0,5})"
    assert repr(SetFamily(3, (1 << 8) - 1)) == "SetFamily(n=3, {0,1,2,3,4,5,6,7})"
    assert repr(SetFamily(4, (1 << 9) - 1)) == "SetFamily(n=4, {9 members})"


def test_membership_of_non_masks_is_false():
    """Only an int mask can be a member: no TypeError for a float, and a bool is no mask."""
    fam = SetFamily(3, 0b10110110)
    assert 1 in fam and 2 in fam
    assert 1.0 not in fam
    assert True not in fam
    assert -1 not in fam and 8 not in fam


def test_set_family_copies_and_pickles_but_stays_frozen():
    fam = SetFamily(3, 0b10110110)
    for twin in (copy.copy(fam), copy.deepcopy(fam), pickle.loads(pickle.dumps(fam))):
        assert twin == fam and hash(twin) == hash(fam)
    assert hash(fam) == hash((3, 0b10110110))
    with pytest.raises(AttributeError):
        fam.n = 4


def test_complement_family_involution():
    fam = SetFamily.from_masks(3, [0b001, 0b110, 0b111])
    cf = complement_family(fam)
    assert cf.member_list() == [0b000, 0b001, 0b110]
    assert complement_family(cf) == fam


def test_complement_within_powerset():
    fam = SetFamily.from_masks(2, [0, 3])
    assert complement_within_powerset(fam).member_list() == [1, 2]


def test_difference_counts():
    a = SetFamily.from_masks(2, [0, 1])
    b = SetFamily.from_masks(2, [1, 2])
    assert symmetric_difference_count(a, b) == 2
    with pytest.raises(ValueError):
        symmetric_difference_count(a, SetFamily.from_masks(3, [0]))


@given(families())
@settings(deadline=None)
def test_restrictions_count_members(fam):
    n = fam.n
    for i in range(1, n + 1):
        with_i = restrict_plus(fam, i)
        assert with_i.n == n
        bit = 1 << (i - 1)
        assert set(with_i) == {m & ~bit for m in fam if m & bit}


@given(families())
@settings(deadline=None)
def test_closures_bruteforce(fam):
    n = fam.n
    up = {x for m in fam for x in range(1 << n) if x & m == m}
    down = {x for m in fam for x in range(1 << n) if x & m == x}
    assert set(iter_bits(up_close_bits(fam.bitmap, n))) == up
    assert set(iter_bits(down_close_bits(fam.bitmap, n))) == down
    assert is_down_closed(fam) == (set(fam) == down)


# ------------------------------------------------------ k-wise checks


@pytest.mark.parametrize("mode", [DISTINCT, REPETITION])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_kwise_exhaustive_n2(k, mode):
    for bm in range(1 << 4):
        fam = SetFamily(2, bm)
        assert is_k_wise_intersecting(fam, k, mode) == naive_kwise(
            fam.member_list(), k, mode
        ), (bm, k, mode)


@given(families(max_n=4), st.integers(min_value=2, max_value=5))
@settings(deadline=None, max_examples=60)
def test_kwise_matches_naive(fam, k):
    for mode in (DISTINCT, REPETITION):
        assert is_k_wise_intersecting(fam, k, mode) == naive_kwise(
            fam.member_list(), k, mode
        )


def test_kwise_examples():
    # fewer than k members is vacuous under the distinct reading
    pair = SetFamily.from_masks(2, [0b00, 0b11])
    assert is_k_wise_intersecting(pair, 3, DISTINCT)
    # but the empty set breaks any pair under repetition
    assert not is_k_wise_intersecting(pair, 3, REPETITION)
    assert is_k_wise_intersecting(SetFamily.from_masks(2, [0]), 3, REPETITION)
    tri = SetFamily.from_masks(3, [0b011, 0b101, 0b110])
    assert is_k_wise_intersecting(tri, 2, DISTINCT)
    assert not is_k_wise_intersecting(tri, 3, DISTINCT)


def test_kwise_rejects_bad_k():
    fam = SetFamily.from_masks(2, [1])
    with pytest.raises(ValueError):
        is_k_wise_intersecting(fam, 1, DISTINCT)


def test_monotone_extension_needs_k_members():
    """Adding a superset of a member preserves the property when the
    family has at least k members; below that the vacuity regime can break,
    e.g. {{1},{2}} is vacuously 3-wise but {{1},{2},{1,3}} is not."""
    small = SetFamily.from_masks(3, [0b001, 0b010])
    assert is_k_wise_intersecting(small, 3, DISTINCT)
    grown = SetFamily(3, small.bitmap | 1 << 0b101)
    assert not is_k_wise_intersecting(grown, 3, DISTINCT)


@given(families(max_n=4), st.integers(min_value=2, max_value=4), st.data())
@settings(deadline=None, max_examples=60)
def test_monotone_extension_property(fam, k, data):
    if len(fam) < k or not is_k_wise_intersecting(fam, k, DISTINCT):
        return
    members = fam.member_list()
    base = data.draw(st.sampled_from(members))
    extra = data.draw(st.integers(min_value=0, max_value=(1 << fam.n) - 1))
    grown = SetFamily(fam.n, fam.bitmap | 1 << (base | extra))
    assert is_k_wise_intersecting(grown, k, DISTINCT)


# -------------------------------------------------------- maximality


@pytest.mark.parametrize("mode", [DISTINCT, REPETITION])
@pytest.mark.parametrize("k", [2, 3])
def test_maximality_exhaustive_n3(k, mode):
    for bm in range(1, 1 << 8):
        fam = SetFamily(3, bm)
        members = fam.member_list()
        if not naive_kwise(members, k, mode):
            continue
        assert is_maximal_k_wise(fam, k, mode) == naive_maximal(3, members, k, mode)


def test_maximal_requires_kwise_input():
    fam = SetFamily.from_masks(2, [0b01, 0b10])
    with pytest.raises(ValueError):
        is_maximal_k_wise(fam, 2, DISTINCT)


def test_maximal_examples():
    # {{}, {1,2}} is maximal for k=3 on two elements: vacuity artifact
    assert is_maximal_k_wise(SetFamily.from_masks(2, [0, 3]), 3, DISTINCT)
    # {{}} alone is maximal for k=2 on any ground
    for n in (2, 3, 4):
        assert is_maximal_k_wise(SetFamily.from_masks(n, [0]), 2, DISTINCT)
        assert not is_maximal_k_wise(SetFamily.from_masks(n, [0]), 3, DISTINCT)
    # under repetition {{}} is maximal for every k
    for k in (2, 3, 4):
        assert is_maximal_k_wise(SetFamily.from_masks(3, [0]), k, REPETITION)


@given(families(max_n=3), st.integers(min_value=2, max_value=4))
@settings(deadline=None, max_examples=60)
def test_addable_sets_match_naive(fam, k):
    for mode in (DISTINCT, REPETITION):
        members = fam.member_list()
        if not naive_kwise(members, k, mode):
            continue
        got = set(addable_sets(fam, k, mode))
        want = {
            g
            for g in range(1 << fam.n)
            if g not in set(members) and naive_kwise(members + [g], k, mode)
        }
        assert got == want


def naive_extends(members, g, k, mode):
    """Whether a k-wise family stays k-wise with g added: only the
    collections through g can fail."""
    sizes = [k] if mode is DISTINCT else range(2, k + 1)
    return all(
        reduce(and_, c, g) != 0
        for j in sizes
        for c in itertools.combinations(members, j - 1)
    )


def naive_ascending_closure(fam, k, mode):
    members = fam.member_list()
    changed = True
    while changed:
        changed = False
        for g in range(1 << fam.n):
            if g in members:
                continue
            if naive_extends(members, g, k, mode):
                members = sorted(set(members) | {g})
                changed = True
    return SetFamily.from_masks(fam.n, members)


@given(families(max_n=3), st.sampled_from((2, 3, 4, 10)))
@settings(deadline=None, max_examples=40)
def test_maximal_closure_matches_ascending_scan(fam, k):
    # at n <= 3 no collection holds 10 members, so k = 10 answers like any larger k
    for mode in (DISTINCT, REPETITION):
        if len(fam) == 0 or not is_k_wise_intersecting(fam, k, mode):
            continue
        closed = maximal_closure(fam, k, mode)
        assert closed.bitmap & fam.bitmap == fam.bitmap
        assert is_maximal_k_wise(closed, k, mode)
        assert closed == naive_ascending_closure(fam, k, mode)


@pytest.mark.parametrize("seed", range(8))
def test_maximal_closure_matches_ascending_scan_n4_n5(seed):
    # unplanted random seeds at n = 4..5: the closure's blocking layer
    # gains minimal elements part way through, so the cached addable set
    # is recomputed mid-closure
    rng = random.Random(seed)
    changed = 0
    for n, k in ((4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (5, 4)):
        fam = SetFamily.from_masks(n, rng.sample(range(1 << n), rng.randint(1, 4)))
        for mode in (DISTINCT, REPETITION):
            if not is_k_wise_intersecting(fam, k, mode):
                continue
            closed = maximal_closure(fam, k, mode)
            assert closed == naive_ascending_closure(fam, k, mode)
            start = ReachState.of(fam, k, mode).relevant()
            changed += closed != fam and ReachState.of(closed, k, mode).relevant() != start
    assert changed


def spy_folds(monkeypatch):
    """Record (size before, mask, blocking layers changed) for every fold."""
    folds = []
    fold = ReachState.fold

    def spy(state, g):
        grown = fold(state, g)
        folds.append((state.size, g, grown.relevant() != state.relevant()))
        return grown

    monkeypatch.setattr(ReachState, "fold", spy)
    return folds


def check_fold_bookkeeping(fam, k, folds, closed):
    """Before g is folded the members are the seed and every mask of the
    result below g, up-closed from k members on; g lies outside them and
    inside the result."""
    for size, g, _ in folds:
        members = set(fam) | {m for m in closed if m < g}
        if len(members) >= k:
            members = {m for m in range(1 << fam.n) if any(a & m == a for a in members)}
        assert size == len(members)
        assert g not in members and g in closed


def test_maximal_closure_matches_ascending_scan_n6(monkeypatch):
    # some seeds change the blocking layer after k members are in, so bulk
    # superset adds and addable recomputes interleave
    folds = spy_folds(monkeypatch)
    interleaved = 0
    for seed, k in itertools.product(range(16), (2, 3, 4)):
        rng = random.Random(seed)
        fam = SetFamily.from_masks(6, rng.sample(range(64), rng.randint(1, 5)))
        for mode in (DISTINCT, REPETITION):
            if not naive_kwise(fam.member_list(), k, mode):
                continue
            folds.clear()
            closed = maximal_closure(fam, k, mode)
            assert closed == naive_ascending_closure(fam, k, mode)
            check_fold_bookkeeping(fam, k, folds, closed)
            interleaved += any(size >= k and changed for size, _, changed in folds)
    assert interleaved


@pytest.mark.parametrize("mode", [DISTINCT, REPETITION])
@pytest.mark.parametrize("extra", [[], [0b1011 << 8]])
def test_star_seed_closure_n16(mode, extra, monkeypatch):
    # two members meeting only in element 9: every maximal 3-wise family
    # containing them is the star of 9, reached by folding {9} alone
    n, a = 16, 1 << 8
    seed = SetFamily.from_masks(n, [a | 0b1111, a | 0b1111 << 9] + extra)
    folds = spy_folds(monkeypatch)
    closed = maximal_closure(seed, 3, mode)
    assert closed == SetFamily.from_masks(n, [m for m in range(1 << n) if m & a])
    assert [g for _, g, _ in folds] == [a]
    check_fold_bookkeeping(seed, 3, folds, closed)


def test_maximal_closure_example():
    start = SetFamily.from_masks(3, [0b011])
    closed = maximal_closure(start, 3, DISTINCT)
    assert closed.member_list() == [0b000, 0b011]


def test_maximal_closure_rejects_non_kwise():
    fam = SetFamily.from_masks(2, [0b01, 0b10])
    with pytest.raises(ValueError):
        maximal_closure(fam, 2, DISTINCT)


def k_above_n_families(rng):
    """Every family at n <= 3, and at n = 4 seeded parts of stars (one
    mask outside the star added to half) and random families."""
    for n in range(1, 4):
        for bm in range(1 << (1 << n)):
            yield SetFamily(n, bm)
    for _ in range(60):
        elem = 1 << rng.randrange(4)
        masks = rng.sample([m for m in range(16) if m & elem], rng.randint(0, 8))
        if rng.random() < 0.5:
            masks.append(rng.randrange(16))
        yield SetFamily.from_masks(4, masks)
        yield SetFamily(4, rng.getrandbits(16))


def test_k_above_n_matches_naive():
    # for k > n the engine decides every size by the common intersection I;
    # the naive oracles enumerate the collections, up to k = 2^n + 2
    verdicts = set()
    for fam in k_above_n_families(random.Random(24)):
        n, members = fam.n, fam.member_list()
        for k, mode in itertools.product(range(n + 1, (1 << n) + 3), (DISTINCT, REPETITION)):
            kwise = _naive_is_kwise(members, k, mode)
            assert is_k_wise_intersecting(fam, k, mode) == kwise
            if len(fam) >= k:
                verdicts.add(kwise)
            if not kwise:
                continue
            want = [g for g in range(1 << n) if _naive_addable(members, g, k, mode)]
            assert addable_sets(fam, k, mode).member_list() == [g for g in want if g not in fam]
            assert maximal_closure(fam, k, mode) == naive_ascending_closure(fam, k, mode)
    # families of at least k members both with and without a common element
    assert verdicts == {False, True}
