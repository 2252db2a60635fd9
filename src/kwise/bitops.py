"""Bit-level primitives for subset masks and family bitmaps.

A subset of the ground set {1..n} is a mask: bit i set means element i+1
belongs to the subset.  A family of subsets is a single int used as a
2^n-bit bitmap indexed by mask value (bit at index m set means mask m is
a member).  Everything here is a pure function on ints.
"""

from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Tuple

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


@lru_cache(maxsize=32)
def _swap_table(n: int) -> List[List[Tuple[int, int]]]:
    """Exchanging coordinates a < b is one delta swap of the whole bitmap:
    the indices with bit a set and bit b clear trade places with those
    2^b - 2^a above, so swaps[b][a] holds that shift and the selection
    mask."""
    clear = [_clear_bit_pattern(n, i) for i in range(n)]
    return [[((1 << b) - (1 << a), clear[b] & ~clear[a]) for a in range(b)] for b in range(n)]


def _twin_classes(bitmap: int, n: int) -> List[int]:
    """The twin classes of a bitmap's n coordinates: coordinates are twins
    when their swap moves nothing, and classes[b] is the least coordinate
    twinned with b."""
    swaps = _swap_table(n)
    classes = list(range(n))
    reps: List[int] = []
    for b in range(n):
        for a in reps:
            shift, pat = swaps[b][a]
            if not (bitmap ^ (bitmap >> shift)) & pat:
                classes[b] = a
                break
        else:
            reps.append(b)
    return classes


@lru_cache(maxsize=32)
def _level_tables(m: int) -> Tuple[Tuple[int, List[int]], ...]:
    """For each popcount r of an m-bit index: the bitmap of the indices of
    popcount r, and the bitmaps of their t smallest, t = 0, 1, ..."""
    patterns = [0] * (m + 1)
    least: List[List[int]] = [[0] for _ in range(m + 1)]
    for x in range(1 << m):
        r = x.bit_count()
        patterns[r] |= 1 << x
        least[r].append(patterns[r])
    return tuple(zip(patterns, least))


def _relabeling_bound(bm: int, n: int, m: int, best: Optional[int] = None) -> int:
    """A lower bound on every relabeling of bm that permutes only its
    lowest m coordinates; at m = 0 it is bm itself.

    Such a relabeling keeps each block of 2^m bits (one per setting of
    the top n - m coordinates) in place, and keeps the number of members
    of each popcount r inside the block.  The least block with those
    counts holds the smallest indices of each popcount (any other block
    with the counts holds the largest index where the two differ), so
    every block, and so the whole bitmap, is at least the bound built
    from them.  An empty block bounds as empty, so only the occupied
    blocks are visited, highest first, each peeled off bm in turn; a
    block of one member of popcount r bounds as index 2^r - 1.
    Given best, the bound stops at the first occupied block at or below
    the highest bit where it parts from best, with the blocks below left
    empty, which is still a lower bound and already compares with best as
    the whole one would.
    """
    levels = _level_tables(m)
    bound = 0
    while bm:
        shift = (bm.bit_length() - 1) >> m << m
        block = bm >> shift
        bm ^= block << shift
        if block & (block - 1):
            least = 0
            for pattern, firsts in levels:
                least |= firsts[(block & pattern).bit_count()]
        else:
            least = 1 << (1 << (block.bit_length() - 1).bit_count()) - 1
        bound |= least << shift
        if best is not None and (bound ^ best) >> shift:
            break
    return bound


# Nodes with at most _TAIL free positions are finished by Heap's walk.
# Per call, best of 5 on a shared 2-vCPU VM, _TAIL = 3/4/5 take
# 1.35/1.31/2.85 ms on 64 random masks at n = 8, 2.04/1.33/1.16 ms on
# the Fano plane and 0.15/0.13/0.22 ms on relabeled linked cubes at
# n = 8: 5 wins only on twin-free symmetric families.
_TAIL = 4


def _min_relabeling(bitmap: int, n: int) -> int:
    """The least bitmap among the relabelings of a family bitmap.

    Twins are interchangeable, so a relabeling depends only on which twin
    class sits at each position.  A depth-first branch and bound fills
    positions from the top.  A node with at most _TAIL free positions is
    finished by Heap's walk over them; a larger one has one child per
    twin class of its free positions, a coordinate of the class moved
    from position j to the top free one p by the delta swap
    `_swap_table(n)[p][j]`.  A child is dropped, or skipped when popped,
    once `_relabeling_bound` over its occupied blocks shows that no
    arrangement of its free positions beats the least bitmap found so
    far, and children are explored least bound first.
    Symmetric families without twins can defeat the bound, so the worst
    case stays factorial in n.
    """
    swaps = _swap_table(n)
    best = bitmap
    stack = [(0, bitmap, _twin_classes(bitmap, n))]
    while stack:
        bound, bm, free = stack.pop()
        if bound >= best:
            continue
        m = len(free)
        if m <= _TAIL:
            if bm < best:
                best = bm
            for shift, pat in _heap_order(n, m):
                moved = (bm ^ (bm >> shift)) & pat
                bm ^= moved ^ (moved << shift)
                if bm < best:
                    best = bm
            continue
        p = m - 1
        row = swaps[p]
        children = {}
        for c in set(free):
            rest = free[:p]
            if free[p] == c:
                child = bm
            else:
                j = free.index(c)
                rest[j] = free[p]
                shift, pat = row[j]
                moved = (bm ^ (bm >> shift)) & pat
                child = bm ^ moved ^ (moved << shift)
            if child not in children:
                low = _relabeling_bound(child, n, p, best)
                if low < best:
                    children[child] = (low, child, rest)
        stack.extend(sorted(children.values(), key=itemgetter(0), reverse=True))
    return best


@lru_cache(maxsize=64)
def _heap_order(n: int, m: int) -> Tuple[Tuple[int, int], ...]:
    """Heap's order ("Permutations by interchanges", 1963) over the lowest
    m of n coordinates, as the m! - 1 exchanges that step from each
    relabeling to the next, each a (shift, mask) of `_swap_table(n)`."""
    swaps = _swap_table(n)
    steps = []
    c = [0] * m
    while m >= 2:
        # every other step of Heap's order exchanges coordinates 0 and 1
        steps.append(swaps[1][0])
        i = 2
        while i < m and c[i] == i:
            c[i] = 0
            i += 1
        if i == m:
            break
        steps.append(swaps[i][c[i] if i & 1 else 0])
        c[i] += 1
    return tuple(steps)


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
