"""Bit-level primitives checked against brute-force set arithmetic."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwise import (
    Partition,
    SetFamily,
    audit_claim_counts,
    build_graph,
    count_edges_touching,
    linked_cubes,
    pair_of_cubes,
    partition_relative_to_cubes,
    restrict_plus,
    stability_stats,
)
from kwise.bitops import (
    _maximal_members,
    _minimal_candidates,
    cube_bits,
    down_close_bits,
    family_full_bitmap,
    full_mask,
    iter_bits,
    mask_complement,
    mask_elements,
    mask_from_elements,
    project_intersect_bits,
    reverse_index_bits,
    supercube_bits,
    up_close_bits,
)


def members_of(bm):
    return [i for i in range(bm.bit_length()) if (bm >> i) & 1]


def bitmap_of(masks):
    bm = 0
    for m in masks:
        bm |= 1 << m
    return bm


small_n = st.integers(min_value=1, max_value=4)


@st.composite
def family_bitmaps(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bm = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    return n, bm


def test_mask_roundtrip():
    assert mask_from_elements([1, 3], 5) == 0b101
    assert mask_elements(0b101) == [1, 3]
    assert mask_from_elements([], 5) == 0
    with pytest.raises(ValueError):
        mask_from_elements([6], 5)


FAM3 = SetFamily(3, 0b10110110)
ELEMENT_ENTRY_POINTS = {
    "mask_from_elements": lambda i: mask_from_elements([i], 3),
    "from_element_lists": lambda i: Partition.from_element_lists(3, [[i], [1, 2, 3]]),
    "restrict_plus": lambda i: restrict_plus(FAM3, i),
    "count_edges_touching": lambda i: count_edges_touching(build_graph(FAM3), i),
    "stability_stats": lambda i: stability_stats(FAM3, FAM3, 1, i),
}


@pytest.mark.parametrize("entry", sorted(ELEMENT_ENTRY_POINTS))
@pytest.mark.parametrize("label", [True, 0, 4])
def test_element_labels_are_checked_alike(entry, label):
    """bool is an int subclass, but no element label; 0 and n + 1 are out of range."""
    with pytest.raises(ValueError, match=re.escape(f"element {label} out of range 1..3")):
        ELEMENT_ENTRY_POINTS[entry](label)


MASK_ENTRY_POINTS = {
    "from_masks": lambda m: SetFamily.from_masks(3, [0, m]),
    "linked_cubes": lambda m: linked_cubes(3, m),
    "pair_of_cubes": lambda m: pair_of_cubes(3, m),
    "Partition": lambda m: Partition(3, (m, 0b110)),
    "partition_relative_to_cubes": lambda m: partition_relative_to_cubes(FAM3, m),
    "audit_claim_counts": lambda m: audit_claim_counts(FAM3, m, 0),
}


@pytest.mark.parametrize("entry", sorted(MASK_ENTRY_POINTS))
@pytest.mark.parametrize("mask", [True, -1, 8, 1.0])
def test_masks_are_checked_alike(entry, mask):
    """A mask is an int in 0..2^n - 1: no bool, no float, nothing outside."""
    with pytest.raises(ValueError, match=re.escape(f"mask {mask!r} out of range 0..7")):
        MASK_ENTRY_POINTS[entry](mask)


@pytest.mark.parametrize("bitmap", [1.5, True, -1, 1 << 8])
def test_bitmaps_are_ints_of_at_most_2_to_the_n_bits(bitmap):
    with pytest.raises(ValueError, match="bitmap out of range for ground size 3"):
        SetFamily(3, bitmap)
    assert SetFamily(3, (1 << 8) - 1).size == 8


@given(st.data())
@settings(deadline=None)
def test_from_masks_is_the_or_of_its_masks(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    masks = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=40))
    masks += masks[::2]  # every other mask twice
    want = bitmap_of(masks)
    assert SetFamily.from_masks(n, masks).bitmap == want
    assert SetFamily.from_masks(n, (m for m in masks)).bitmap == want


def test_full_and_complement():
    assert full_mask(3) == 0b111
    assert mask_complement(0b001, 3) == 0b110
    assert family_full_bitmap(2) == 0b1111


def test_iter_bits_and_submasks():
    assert list(iter_bits(0b10110)) == [1, 2, 4]


@given(st.integers(min_value=0, max_value=(1 << 4096) - 1) | st.binary(max_size=600).map(
    lambda raw: int.from_bytes(raw, "little")
))
@settings(deadline=None)
def test_iter_bits_matches_a_bit_loop(bm):
    # the binary strategy gives long zero stretches between nonzero runs
    assert list(iter_bits(bm)) == members_of(bm)


def test_iter_bits_runs_and_gaps():
    top = (1 << 26) - 1
    assert list(iter_bits(1 | 1 << top)) == [0, top]
    assert list(iter_bits(1 << top)) == [top]
    # a run of set bits across three byte boundaries, then a lone byte
    run = ((1 << 27) - 1) << 5
    assert list(iter_bits(run | 1 << 100)) == list(range(5, 32)) + [100]
    assert list(iter_bits(0xFF)) == list(range(8))
    assert list(iter_bits(0xFF << 8000)) == list(range(8000, 8008))
    assert list(iter_bits(0)) == []
    with pytest.raises(ValueError):
        list(iter_bits(-1))


def bits_by_lowest(bm, chunk=64):
    """Set bits of bm, found by peeling off the lowest one with bm & -bm,
    one chunk of bytes at a time so that a 2^22-bit int stays quick."""
    data = bm.to_bytes((bm.bit_length() + 7) // 8, "little")
    for start in range(0, len(data), chunk):
        part = int.from_bytes(data[start : start + chunk], "little")
        while part:
            low = part & -part
            yield 8 * start + low.bit_length() - 1
            part ^= low


def test_iter_bits_matches_peeling_the_lowest_bit():
    top = (1 << 22) - 1
    rng = random.Random(22)
    cases = [0, 1 << top, 1 | 1 << top, 0xFF, 0xFF << (top - 7), 0xFF | 0xFF << (top - 7)]
    # runs that start at the first byte, end at the last byte, or both
    cases += [(1 << 4096) - 1, ((1 << 4096) - 1) << (top - 4095), (1 << (1 << 16)) - 1]
    for bits in (1 << 10, 1 << 18, 1 << 22):
        # sparse: a few dozen bits; dense: about half the bits of the
        # lowest and the highest sixteenth, a long zero stretch between
        cases.append(sum(1 << rng.randrange(bits) for _ in range(40)))
        edge = bits >> 4
        cases.append(rng.getrandbits(edge) << (bits - edge) | rng.getrandbits(edge))
    for bm in cases:
        pairs = itertools.zip_longest(iter_bits(bm), bits_by_lowest(bm))
        assert all(got == want for got, want in pairs)


@given(family_bitmaps(max_n=5))
@settings(deadline=None)
def test_minimal_candidates_contain_the_minimal_members(nb):
    # one pass strikes only members one element larger than a member:
    # every minimal member survives, and on an up-set nothing else does
    n, bm = nb
    for fam in (bm, up_close_bits(bm, n)):
        members = members_of(fam)
        minimal = bitmap_of(
            m for m in members if not any(a != m and a & m == a for a in members)
        )
        got = _minimal_candidates(fam, n)
        assert got & ~fam == 0 and minimal & ~got == 0
    assert got == minimal


def test_minimal_candidates_keep_a_member_two_elements_larger():
    # {1} and {1,2,3}: the larger one has no member one element smaller
    assert _minimal_candidates(bitmap_of([0b001, 0b111]), 3) == bitmap_of([0b001, 0b111])


@given(family_bitmaps(max_n=5))
@settings(deadline=None)
def test_maximal_members_match_bruteforce(nb):
    # _maximal_members reads only one-element steps, so it is exact on down-sets
    n, bm = nb
    down = down_close_bits(bm, n)
    members = members_of(down)
    maximal = [m for m in members if not any(a != m and a & m == m for a in members)]
    assert _maximal_members(down, n) == bitmap_of(maximal)


def test_cube_and_supercube_explicit():
    # subsets of {1,2} on n=3
    assert cube_bits(0b011) == bitmap_of([0b000, 0b001, 0b010, 0b011])
    # supersets of {2} on n=3
    assert supercube_bits(0b010, 3) == bitmap_of([0b010, 0b011, 0b110, 0b111])


@given(family_bitmaps())
@settings(deadline=None)
def test_up_close_matches_bruteforce(nb):
    n, bm = nb
    expected = set()
    for m in members_of(bm):
        for x in range(1 << n):
            if x & m == m:
                expected.add(x)
    assert up_close_bits(bm, n) == bitmap_of(expected)


@given(family_bitmaps())
@settings(deadline=None)
def test_down_close_matches_bruteforce(nb):
    n, bm = nb
    expected = set()
    for m in members_of(bm):
        for x in range(1 << n):
            if x & m == x:
                expected.add(x)
    assert down_close_bits(bm, n) == bitmap_of(expected)


@given(family_bitmaps())
@settings(deadline=None)
def test_reverse_index_is_complement_map(nb):
    n, bm = nb
    full = full_mask(n)
    expected = bitmap_of(full ^ m for m in members_of(bm))
    assert reverse_index_bits(bm, n) == expected
    assert reverse_index_bits(reverse_index_bits(bm, n), n) == bm


@given(family_bitmaps(max_n=10))
@settings(deadline=None)
def test_reverse_index_reverses_the_bitmap_up_to_n10(nb):
    # one byte below n = 3, 2^(n-3) whole bytes from there on
    n, bm = nb
    expected = bitmap_of(full_mask(n) ^ m for m in members_of(bm))
    assert reverse_index_bits(bm, n) == expected
    assert expected == int(format(bm, f"0{1 << n}b")[::-1], 2)


@given(family_bitmaps(), st.integers(min_value=0, max_value=15))
@settings(deadline=None)
def test_project_intersect_matches_bruteforce(nb, keep):
    n, bm = nb
    keep &= full_mask(n)
    expected = bitmap_of(m & keep for m in members_of(bm))
    assert project_intersect_bits(bm, keep, n) == expected


@given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
@settings(deadline=None)
def test_cube_sizes(n, rng):
    mask = rng.randrange(1 << n)
    assert cube_bits(mask).bit_count() == 1 << mask.bit_count()
    assert supercube_bits(mask, n).bit_count() == 1 << (n - mask.bit_count())


def test_supercube_of_empty_is_everything():
    assert supercube_bits(0, 3) == family_full_bitmap(3)
    assert cube_bits(0) == 1
