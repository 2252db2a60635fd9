"""Reference family constructions built from cubes of the subset lattice.

A down cube is the power set of a block; an up cube is all supersets of a
block.  The constructions here glue cubes over a block S and its
complement, or over the blocks of a partition, and give exact closed-form
sizes for the balanced cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .bitops import (
    cube_bits,
    full_mask,
    mask_complement,
    mask_from_elements,
    supercube_bits,
)
from .core import SetFamily


def _check_block(n: int, s: int, proper: bool = True) -> None:
    if not 0 <= s <= full_mask(n):
        raise ValueError(f"block mask {s} out of range for ground size {n}")
    if proper and s in (0, full_mask(n)):
        raise ValueError("block must be a proper nonempty subset of the ground set")


def linked_cubes(n: int, s: int) -> SetFamily:
    """Strict supersets of S together with strict supersets of its complement.

    Requires 0 < |S| < n.  Size is 2^(n-|S|) + 2^|S| - 3: each up cube
    minus its base point, with the full ground set shared.
    """
    _check_block(n, s)
    sc = mask_complement(s, n)
    bm = (supercube_bits(s, n) & ~(1 << s)) | (supercube_bits(sc, n) & ~(1 << sc))
    return SetFamily(n, bm)


def pair_of_cubes(n: int, s: int) -> SetFamily:
    """All subsets of S together with all subsets of its complement."""
    _check_block(n, s, proper=False)
    sc = mask_complement(s, n)
    return SetFamily(n, cube_bits(s) | cube_bits(sc))


def linked_cubes_size(n: int, block_size: int) -> int:
    """Closed-form size of linked_cubes for any block of the given size."""
    if not 0 < block_size < n:
        raise ValueError("block size must satisfy 0 < size < n")
    return (1 << (n - block_size)) + (1 << block_size) - 3


def pair_of_cubes_size(n: int, block_size: int) -> int:
    if not 0 <= block_size <= n:
        raise ValueError("block size out of range")
    return (1 << block_size) + (1 << (n - block_size)) - 1


def balanced_block(n: int) -> int:
    """Canonical balanced block: the first floor(n/2) elements."""
    return full_mask(n // 2)


@dataclass(frozen=True)
class Partition:
    """Ordered partition of the ground set {1..n} into nonempty blocks."""

    n: int
    blocks: Tuple[int, ...]

    def __post_init__(self):
        union = 0
        for b in self.blocks:
            if b == 0:
                raise ValueError("partition blocks must be nonempty")
            if b & union:
                raise ValueError("partition blocks must be disjoint")
            union |= b
        if union != full_mask(self.n):
            raise ValueError("partition blocks must cover the ground set")

    @classmethod
    def from_element_lists(cls, n: int, groups: Sequence[Sequence[int]]) -> "Partition":
        return cls(n, tuple(mask_from_elements(group, n) for group in groups))

    @classmethod
    def contiguous(cls, n: int, parts: int) -> "Partition":
        """Split {1..n} into the given number of near-equal contiguous blocks."""
        if not 1 <= parts <= n:
            raise ValueError("part count out of range")
        base, extra = divmod(n, parts)
        blocks: List[int] = []
        start = 0
        for i in range(parts):
            width = base + (1 if i < extra else 0)
            blocks.append(((1 << width) - 1) << start)
            start += width
        return cls(n, tuple(blocks))

    def is_balanced(self) -> bool:
        """Every block size within one of n divided by the block count."""
        sizes = [b.bit_count() for b in self.blocks]
        lo = self.n // len(self.blocks)
        hi = -(-self.n // len(self.blocks))
        return all(lo <= s <= hi for s in sizes)


def series_of_cubes(partition: Partition) -> SetFamily:
    """Union of the down cubes of the partition blocks."""
    bm = 0
    for b in partition.blocks:
        bm |= cube_bits(b)
    return SetFamily(partition.n, bm)


def series_of_cubes_size(n: int, parts: int) -> int:
    """Size of the balanced series when parts divides n: parts*2^(n/parts) - parts + 1."""
    _require_divisible(n, parts, "block count")
    return parts * (1 << (n // parts)) - parts + 1


def formula_min_size_bounds(
    n: int, k: int, lower_coeff: int = 1, upper_coeff: int = 1
) -> Tuple[int, int]:
    """Reference envelope lower_coeff*2^(n/(k-1)) and upper_coeff*2^(n/ceil(k/2)).

    Both exponents must be integers; a non-divisible n is rejected rather
    than evaluated at a rational exponent.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    _require_divisible(n, k - 1, "k-1")
    upper_div = -(-k // 2)
    _require_divisible(n, upper_div, "ceil(k/2)")
    return lower_coeff * (1 << (n // (k - 1))), upper_coeff * (1 << (n // upper_div))


def janzer_size(n: int, k: int) -> int:
    """Exact size (k-1)*2^(k-3)*2^(n/(k-1)) - (k-2)*(2^(k-1)-1).

    Defined for k >= 3 with k-1 dividing n; the k = 3 case degenerates to
    the balanced linked-cubes size at even n.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    _require_divisible(n, k - 1, "k-1")
    lead = (k - 1) * (1 << (k - 3)) * (1 << (n // (k - 1)))
    return lead - (k - 2) * ((1 << (k - 1)) - 1)


def _require_divisible(n: int, d: int, label: str) -> None:
    if d <= 0 or n % d != 0:
        raise ValueError(f"{label} must divide n exactly (n={n}, divisor={d})")
