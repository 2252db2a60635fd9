"""Bit-level primitives for subset masks and family bitmaps.

A subset of the ground set {1..n} is a mask: bit i set means element i+1
belongs to the subset.  A family of subsets is a single int used as a
2^n-bit bitmap indexed by mask value (bit at index m set means mask m is
a member).  Everything here is a pure function on ints.
"""

from functools import lru_cache
from typing import Iterable, Iterator, List

MAX_FAMILY_GROUND = 26


def full_mask(n: int) -> int:
    """Mask of the whole ground set {1..n}."""
    return (1 << n) - 1


def mask_complement(mask: int, n: int) -> int:
    return mask ^ full_mask(n)


def mask_from_elements(elements: Iterable[int], n: int) -> int:
    """Build a mask from 1-based element labels."""
    mask = 0
    for e in elements:
        check_element(e, n)
        mask |= 1 << (e - 1)
    return mask


def mask_elements(mask: int) -> List[int]:
    """1-based element labels of a mask, ascending."""
    return [i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1]


def check_ground(n: int) -> None:
    if type(n) is not int or not 1 <= n <= MAX_FAMILY_GROUND:
        raise ValueError(f"ground size must be an int in 1..{MAX_FAMILY_GROUND}, got {n!r}")


def check_element(i: int, n: int) -> None:
    """Reject anything but an int element label in 1..n; a bool is no label."""
    if type(i) is not int or not 1 <= i <= n:
        raise ValueError(f"element {i!r} out of range 1..{n}")


def family_full_bitmap(n: int) -> int:
    """Bitmap with every one of the 2^n masks present."""
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=128)
def _clear_bit_pattern(n: int, i: int) -> int:
    # indices m < 2^n whose bit i is clear, as a 2^n-bit bitmap
    pat = (1 << (1 << i)) - 1
    width = 1 << (i + 1)
    total = 1 << n
    while width < total:
        pat |= pat << width
        width <<= 1
    return pat


def up_close_bits(bm: int, n: int) -> int:
    """Close a family bitmap upward: members imply all supersets."""
    for i in range(n):
        pat = _clear_bit_pattern(n, i)
        bm |= (bm & pat) << (1 << i)
    return bm


def down_close_bits(bm: int, n: int) -> int:
    """Close a family bitmap downward: members imply all subsets."""
    for i in range(n):
        pat = _clear_bit_pattern(n, i)
        bm |= (bm >> (1 << i)) & pat
    return bm


def reverse_index_bits(bm: int, n: int) -> int:
    """Remap every index m to its complement mask (reverses the bitmap)."""
    for i in range(n):
        s = 1 << i
        pat = _clear_bit_pattern(n, i)
        bm = ((bm & pat) << s) | ((bm >> s) & pat)
    return bm


def _swap_index_bits(bm: int, a: int, b: int, n: int) -> int:
    """Remap every index m to m with its bits a < b exchanged."""
    shift = (1 << b) - (1 << a)
    # indices with bit a set and bit b clear trade places with those shift above
    pat = _clear_bit_pattern(n, b) & ~_clear_bit_pattern(n, a)
    moved = (bm ^ (bm >> shift)) & pat
    return bm ^ moved ^ (moved << shift)


def project_intersect_bits(bm: int, keep: int, n: int) -> int:
    """Image of an index set under m -> m & keep."""
    for i in range(n):
        if not (keep >> i) & 1:
            s = 1 << i
            pat = _clear_bit_pattern(n, i)
            bm = (bm & pat) | ((bm >> s) & pat)
    return bm


def cube_bits(mask: int) -> int:
    """Bitmap of all indices t with t a submask of mask."""
    bm = 1
    m = mask
    while m:
        low = m & -m
        bm |= bm << low
        m ^= low
    return bm


def supercube_bits(mask: int, n: int) -> int:
    """Bitmap of all indices t with t a supermask of mask."""
    return cube_bits(mask_complement(mask, n)) << mask


_BYTE_BITS = tuple(
    tuple(j for j in range(8) if (b >> j) & 1) for b in range(256)
)


def iter_bits(bm: int) -> Iterator[int]:
    """Indices of set bits, ascending.  Linear scan over bytes."""
    if bm < 0:
        raise ValueError("negative bitmap")
    if bm == 0:
        return
    data = bm.to_bytes((bm.bit_length() + 7) // 8, "little")
    for idx, byte in enumerate(data):
        if byte:
            base = idx << 3
            for j in _BYTE_BITS[byte]:
                yield base + j


def submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, descending by value, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask
