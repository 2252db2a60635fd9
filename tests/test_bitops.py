"""Bit-level primitives checked against brute-force set arithmetic."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwise import (
    Partition,
    SetFamily,
    audit_lemma_size_premises,
    build_graph,
    count_edges_touching,
    restrict_minus,
    restrict_plus,
    stability_stats,
)
from kwise.bitops import (
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
    submasks,
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
    "restrict_minus": lambda i: restrict_minus(FAM3, i),
    "restrict_plus": lambda i: restrict_plus(FAM3, i),
    "count_edges_touching": lambda i: count_edges_touching(build_graph(FAM3), i),
    "stability_stats": lambda i: stability_stats(FAM3, FAM3, 1, i),
    "audit_lemma_size_premises": lambda i: audit_lemma_size_premises(
        FAM3, FAM3, 1, Fraction(1), elem=i
    ),
}


@pytest.mark.parametrize("entry", sorted(ELEMENT_ENTRY_POINTS))
@pytest.mark.parametrize("label", [True, 0, 4])
def test_element_labels_are_checked_alike(entry, label):
    """bool is an int subclass, but no element label; 0 and n + 1 are out of range."""
    with pytest.raises(ValueError, match=re.escape(f"element {label} out of range 1..3")):
        ELEMENT_ENTRY_POINTS[entry](label)


def test_full_and_complement():
    assert full_mask(3) == 0b111
    assert mask_complement(0b001, 3) == 0b110
    assert family_full_bitmap(2) == 0b1111


def test_iter_bits_and_submasks():
    assert list(iter_bits(0b10110)) == [1, 2, 4]
    assert sorted(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]
    assert list(submasks(0)) == [0]


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
