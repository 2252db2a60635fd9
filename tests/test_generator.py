"""Disjoint-union coverage and the maximality correspondence."""

import itertools
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwise import (
    KwiseMode,
    Partition,
    SetFamily,
    coverage,
    down_closure,
    enumerate_maximal_families,
    is_generator,
    linked_cubes,
    pair_of_cubes,
    series_of_cubes,
    verify_maximal_generator_correspondence,
)


def naive_coverage(members, k):
    """Unions of 1..k pairwise disjoint distinct members, by enumeration."""
    covered = set()
    for j in range(1, k + 1):
        for combo in itertools.combinations(members, j):
            if all(a & b == 0 for a, b in itertools.combinations(combo, 2)):
                covered.add(reduce(or_, combo))
    return covered


@st.composite
def families(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bm = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    return SetFamily(n, bm)


def test_coverage_of_empty_set_family():
    res = coverage(SetFamily.from_masks(3, [0]), 2)
    assert res.covered.member_list() == [0]
    assert res.count == 1
    assert res.fraction == Fraction(1, 8)


def test_coverage_level_one_is_members():
    fam = SetFamily.from_masks(4, [0b0011, 0b0101, 0b1000])
    assert coverage(fam, 1).covered == fam


@given(families(), st.integers(min_value=1, max_value=4))
@settings(deadline=None, max_examples=60)
def test_coverage_matches_naive(fam, k):
    got = set(coverage(fam, k).covered)
    assert got == naive_coverage(fam.member_list(), k)


@st.composite
def down_closed_families(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=4))
    return down_closure(SetFamily.from_masks(n, masks))


@given(down_closed_families(), st.integers(min_value=1, max_value=4))
@settings(deadline=None, max_examples=60)
def test_coverage_matches_naive_on_down_closed(fam, k):
    # down-closed families extend through their maximal members only
    got = set(coverage(fam, k).covered)
    assert got == naive_coverage(fam.member_list(), k)


@given(families(), st.integers(min_value=1, max_value=3))
@settings(deadline=None, max_examples=40)
def test_coverage_monotone_in_k(fam, k):
    lo = coverage(fam, k)
    hi = coverage(fam, k + 1)
    assert lo.covered.bitmap & ~hi.covered.bitmap == 0
    assert lo.count <= hi.count


def test_pair_of_cubes_two_covers_everything():
    for n, s in [(4, 0b0011), (5, 0b00001), (6, 0b000111), (8, 0b00001111)]:
        assert coverage(pair_of_cubes(n, s), 2).count == 1 << n


def test_series_needs_all_its_parts():
    fam = series_of_cubes(Partition.contiguous(6, 3))
    assert coverage(fam, 3).count == 1 << 6
    # two disjoint members touch at most two blocks
    assert coverage(fam, 2).count < 1 << 6


def test_linked_cubes_members_never_disjoint():
    """Any two members share an element, so two-fold coverage adds nothing
    and the family is far from a two-generator."""
    fam = linked_cubes(5, 0b00011)
    res = coverage(fam, 2)
    assert res.count == len(fam) == 9
    assert not is_generator(fam, 2, Fraction(0))
    assert is_generator(fam, 2, Fraction(23, 32))
    assert not is_generator(fam, 2, Fraction(22, 32))


def test_is_generator_validation():
    fam = SetFamily.from_masks(2, [1, 2])
    assert is_generator(fam, 2, Fraction(1, 4))
    with pytest.raises(ValueError):
        is_generator(fam, 2, Fraction(-1, 4))
    with pytest.raises(ValueError):
        coverage(fam, 0)


def test_correspondence_requires_maximal():
    with pytest.raises(ValueError):
        verify_maximal_generator_correspondence(
            SetFamily.from_masks(3, [0b111]), 3
        )


def test_correspondence_vacuity_artifact():
    """Maximal families smaller than k exist only through vacuity and the
    complement-coverage claim can fail for them."""
    fam = SetFamily.from_masks(2, [0b00, 0b11])
    res = verify_maximal_generator_correspondence(fam, 3)
    assert not res.ok
    assert res.violations == (1, 2)


@pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 3)])
def test_correspondence_holds_at_size_k_and_up(n, k):
    checked = 0
    for fam in enumerate_maximal_families(n, k, KwiseMode.DISTINCT):
        if len(fam) < k:
            continue
        res = verify_maximal_generator_correspondence(fam, k)
        assert res.ok, (n, k, fam.to_hex())
        assert res.violations == ()
        checked += 1
    assert checked > 0
