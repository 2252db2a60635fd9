"""Bit-level primitives for subset masks and family bitmaps.

A subset of the ground set {1..n} is a mask: bit i set means element i+1
belongs to the subset.  A family of subsets is a single int used as a
2^n-bit bitmap indexed by mask value (bit at index m set means mask m is
a member).  Everything here is a pure function on ints.
"""

from functools import lru_cache
from itertools import chain
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


def check_mask(m: int, n: int) -> None:
    """Reject anything but an int mask in 0..2^n - 1; a bool is no mask."""
    if type(m) is not int or not 0 <= m <= full_mask(n):
        raise ValueError(f"mask {m!r} out of range 0..{full_mask(n)}")


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


_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def reverse_index_bits(bm: int, n: int) -> int:
    """Remap every index m to its complement mask (reverses the bitmap).

    Index m goes to 2^n - 1 - m, so the 2^n-bit string is reversed: its
    little-endian bytes are bit-reversed through a table and read back
    big-endian, three C-level passes.  Below n = 3 the bitmap is one byte,
    and the reversed byte is shifted down to 2^n bits.
    """
    if n < 3:
        return bm.to_bytes(1, "little").translate(_REVERSED_BYTES)[0] >> (8 - (1 << n))
    return int.from_bytes(bm.to_bytes(1 << (n - 3), "little").translate(_REVERSED_BYTES), "big")


def _minimal_candidates(bm: int, n: int) -> int:
    """Members of a family bitmap with no member one element smaller.

    A superset of the minimal members, found in n passes; on an up-closed
    family, where a member containing another contains one a single
    element smaller, it is exactly the minimal members.
    """
    larger = 0
    for i in range(n):
        larger |= (bm & _clear_bit_pattern(n, i)) << (1 << i)
    return bm & ~larger


def _maximal_members(bm: int, n: int) -> int:
    """Members of a down-closed family bitmap with no member one element larger."""
    larger = 0
    for i in range(n):
        larger |= (bm >> (1 << i)) & _clear_bit_pattern(n, i)
    return bm & ~larger


def _relabelings(bitmap: int, n: int) -> Iterator[int]:
    """Every relabeling of a family bitmap under permutations of its
    coordinates, each at least once.

    Exchanging coordinates a < b is one delta swap of the whole bitmap:
    the indices with bit a set and bit b clear trade places with those
    2^b - 2^a above.  Coordinates are twins when their swap moves nothing;
    twins are interchangeable, so a relabeling depends only on which twin
    class sits at each position.  With at most one twin pair this is
    Heap's walk over all n! permutations.  Otherwise positions are filled
    from the top, one branch per twin class among the free positions,
    until the free positions hold at most one twin pair, and Heap's walk
    finishes each branch.  That yields at most 2 n! / (t_1! t_2! ...)
    bitmaps for twin classes of sizes t_1, t_2, ...
    """
    clear = [_clear_bit_pattern(n, i) for i in range(n)]
    # swaps[b][a]: shift and selection mask of the exchange of a < b
    swaps = [[((1 << b) - (1 << a), clear[b] & ~clear[a]) for a in range(b)] for b in range(n)]
    # classes[b]: the least coordinate twinned with b
    classes = list(range(n))
    reps = []
    for b in range(n):
        for a in reps:
            shift, pat = swaps[b][a]
            if not (bitmap ^ (bitmap >> shift)) & pat:
                classes[b] = a
                break
        else:
            reps.append(b)
    # one block per arrangement of twin classes on the fixed top positions;
    # Heap's walk covers the free positions below, at most one twin pair
    blocks = []
    stack = [(bitmap, classes)]
    while stack:
        bm, free = stack.pop()
        kinds = set(free)
        if len(free) - len(kinds) <= 1:
            blocks.append((bm, len(free)))
            continue
        p = len(free) - 1
        for c in kinds:
            j = p if free[p] == c else free.index(c)
            rest = free[:p]
            if j < p:
                rest[j] = free[p]
                shift, pat = swaps[p][j]
                moved = (bm ^ (bm >> shift)) & pat
                stack.append((bm ^ moved ^ (moved << shift), rest))
            else:
                stack.append((bm, rest))
    if len(blocks) == 1:
        return _heap_walk(*blocks[0], swaps)
    return chain.from_iterable(_heap_walk(bm, m, swaps) for bm, m in blocks)


def _heap_walk(bitmap: int, m: int, swaps: List) -> Iterator[int]:
    """The m! relabelings of a bitmap under permutations of its lowest m
    coordinates, in Heap's order ("Permutations by interchanges", 1963):
    each one is the one before with two coordinates exchanged."""
    yield bitmap
    if m < 2:
        return
    first = swaps[1][0][1]
    c = [0] * m
    while True:
        # every other step of Heap's order exchanges coordinates 0 and 1
        moved = (bitmap ^ (bitmap >> 1)) & first
        bitmap ^= moved ^ (moved << 1)
        yield bitmap
        i = 2
        while i < m and c[i] == i:
            c[i] = 0
            i += 1
        if i == m:
            return
        shift, pat = swaps[i][c[i] if i & 1 else 0]
        moved = (bitmap ^ (bitmap >> shift)) & pat
        bitmap ^= moved ^ (moved << shift)
        yield bitmap
        c[i] += 1


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
_NONZERO_TO_ONE = bytes([0] + [1] * 255)


def iter_bits(bm: int) -> Iterator[int]:
    """Indices of set bits, ascending.

    The little-endian bytes are translated to 0 and 1 flags, and
    bytes.find (memchr) locates each run of nonzero bytes, so Python-level
    work is proportional to the nonzero bytes, not to the bit length.
    """
    if bm < 0:
        raise ValueError("negative bitmap")
    data = bm.to_bytes((bm.bit_length() + 7) // 8, "little")
    flags = data.translate(_NONZERO_TO_ONE)
    start = flags.find(1)
    while start >= 0:
        end = flags.find(0, start)
        if end < 0:
            end = len(flags)
        base = start << 3
        for byte in data[start:end]:
            for j in _BYTE_BITS[byte]:
                yield base + j
            base += 8
        start = flags.find(1, end)
