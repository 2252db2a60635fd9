"""Cube-based reference constructions: membership, size laws, validation."""

import tracemalloc

import pytest

from kwise import (
    KwiseMode,
    Partition,
    SetFamily,
    balanced_block,
    complement_family,
    is_k_wise_intersecting,
    is_maximal_k_wise,
    janzer_size,
    linked_cubes,
    linked_cubes_size,
    pair_of_cubes,
    series_of_cubes,
    series_of_cubes_size,
    stability_stats,
)
from kwise.bitops import cube_bits, full_mask


def test_linked_cubes_membership_bruteforce():
    for n in range(2, 6):
        for s in range(1, full_mask(n)):
            sc = s ^ full_mask(n)
            fam = linked_cubes(n, s)
            want = {
                m
                for m in range(1 << n)
                if (m & s == s and m != s) or (m & sc == sc and m != sc)
            }
            assert set(fam) == want, (n, s)
            assert len(fam) == linked_cubes_size(n, s.bit_count())


def test_linked_cubes_spot_facts():
    fam = linked_cubes(9, balanced_block(9))
    assert len(fam) == 45
    assert full_mask(9) in fam
    assert balanced_block(9) not in fam
    assert len(linked_cubes(7, balanced_block(7))) == 21
    # degenerate two element ground: only the full set survives
    assert linked_cubes(2, 0b01).member_list() == [0b11]


def test_linked_cubes_is_three_wise():
    for n in range(2, 7):
        fam = linked_cubes(n, balanced_block(n))
        assert is_k_wise_intersecting(fam, 3, KwiseMode.DISTINCT)
    # maximality kicks in at n = 4 and holds after
    assert not is_maximal_k_wise(linked_cubes(3, 0b001), 3)
    for n in (4, 5, 6):
        assert is_maximal_k_wise(linked_cubes(n, balanced_block(n)), 3)


def test_linked_cubes_validation():
    with pytest.raises(ValueError):
        linked_cubes(3, 0)
    with pytest.raises(ValueError):
        linked_cubes(3, 0b111)
    with pytest.raises(ValueError):
        linked_cubes(3, 1 << 3)


CUBE = SetFamily(3, cube_bits(0b011))


@pytest.mark.parametrize(
    "call",
    [
        lambda: linked_cubes_size(5, 2.5),
        lambda: linked_cubes_size(5.0, 2),
        lambda: Partition.contiguous(4, 1.5),
        lambda: Partition.contiguous(4.0, 2),
        lambda: series_of_cubes_size(5, 2.5),
        lambda: series_of_cubes_size(4.0, 2),
        lambda: janzer_size(5, 3.5),
        lambda: janzer_size(4.0, 3),
        lambda: stability_stats(CUBE, CUBE, 1.5, 1),
        lambda: stability_stats(CUBE, CUBE, True, 1),
        lambda: Partition.contiguous(4, True),
    ],
    ids=[
        "linked-size", "linked-n", "contiguous-parts", "contiguous-n", "series-parts",
        "series-n", "janzer-k", "janzer-n", "stability-ell", "stability-ell-bool",
        "contiguous-bool",
    ],
)
def test_size_arguments_must_be_ints(call):
    """A float or a bool size is refused like an out-of-range one, as
    check_element refuses a bool label."""
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("block_size", [0, 3, -1])
def test_linked_cubes_size_needs_a_proper_block(block_size):
    with pytest.raises(ValueError, match="0 < size < n"):
        linked_cubes_size(3, block_size)


@pytest.mark.parametrize("n", [27, 40])
def test_oversized_ground_rejected_before_any_bitmap(n):
    """The ground size is checked first: no 2^n-bit bitmap is built."""
    tracemalloc.start()
    try:
        for build in (
            lambda: linked_cubes(n, 1),
            lambda: pair_of_cubes(n, 1),
            lambda: Partition(n, (full_mask(n),)),
            lambda: Partition.contiguous(n, 1),
        ):
            with pytest.raises(ValueError, match="ground size"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_pair_of_cubes_membership():
    for n in range(1, 6):
        for s in range(full_mask(n) + 1):
            sc = s ^ full_mask(n)
            fam = pair_of_cubes(n, s)
            want = {m for m in range(1 << n) if m & ~s == 0 or m & ~sc == 0}
            assert set(fam) == want
            b = s.bit_count()
            assert len(fam) == (1 << b) + (1 << (n - b)) - 1
    assert len(pair_of_cubes(3, 0)) == 8


def test_complement_of_linked_cubes_is_punctured_pair():
    for n in range(2, 7):
        for s in range(1, full_mask(n)):
            sc = s ^ full_mask(n)
            got = complement_family(linked_cubes(n, s))
            pair = pair_of_cubes(n, s)
            want = pair.bitmap & ~(1 << s) & ~(1 << sc)
            assert got.bitmap == want


def test_balanced_block():
    assert balanced_block(2) == 0b1
    assert balanced_block(5) == 0b11
    assert balanced_block(9) == 0b1111
    assert balanced_block(10) == 0b11111


@pytest.mark.parametrize("n", [27, 0, True, -3, 2.5, "4"])
def test_balanced_block_rejects_a_bad_ground_size(n):
    """Beyond the n = 26 cap, below 1 or not an int, the ground size is refused."""
    with pytest.raises(ValueError, match="ground size"):
        balanced_block(n)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(3, (0b011, 0b110))  # overlap
    with pytest.raises(ValueError):
        Partition(3, (0b001, 0b010))  # does not cover
    with pytest.raises(ValueError):
        Partition(3, (0b111, 0))  # empty block
    with pytest.raises(ValueError):
        Partition.from_element_lists(3, [[1, 4], [2, 3]])
    with pytest.raises(ValueError):
        Partition.contiguous(3, 4)


def test_partition_constructors():
    part = Partition.from_element_lists(5, [[1, 3], [2], [4, 5]])
    assert part.blocks == (0b00101, 0b00010, 0b11000)
    cont = Partition.contiguous(7, 3)
    assert cont.blocks == (0b0000111, 0b0011000, 0b1100000)


def test_series_of_cubes():
    part = Partition.contiguous(6, 3)
    fam = series_of_cubes(part)
    want = {m for m in range(1 << 6) if any(m & ~b == 0 for b in part.blocks)}
    assert set(fam) == want
    assert len(fam) == series_of_cubes_size(6, 3) == 10
    # one block degenerates to the full power set
    assert len(series_of_cubes(Partition.contiguous(4, 1))) == 16
    assert series_of_cubes_size(4, 1) == 16
    with pytest.raises(ValueError):
        series_of_cubes_size(6, 4)


def test_series_covers_every_set_blockwise():
    """Every subset splits into at most one piece per block, so the series
    with k blocks reaches everything as a union of k disjoint members."""
    part = Partition.contiguous(6, 3)
    fam = series_of_cubes(part)
    for m in range(1 << 6):
        pieces = [m & b for b in part.blocks]
        assert all(p in fam for p in pieces)


def test_janzer_size():
    assert janzer_size(8, 5) == 19
    for n in (2, 4, 6, 8, 10):
        assert janzer_size(n, 3) == linked_cubes_size(n, n // 2)
    with pytest.raises(ValueError):
        janzer_size(4, 2)
    with pytest.raises(ValueError):
        janzer_size(9, 5)


def test_size_formulas_scale():
    # formula-level checks stay cheap even where building the family is not
    assert linked_cubes_size(26, 13) == (1 << 13) + (1 << 13) - 3
    assert series_of_cubes_size(24, 4) == 4 * (1 << 6) - 3
