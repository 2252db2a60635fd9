"""Coverage of the subset lattice by disjoint unions of family members.

A family G covers a mask when the mask can be written as a union of at
most k pairwise disjoint members.  A family is an approximate generator
when the uncovered fraction of the 2^n masks is at most a caller-supplied
rational eps.
"""

from __future__ import annotations

__all__ = [
    "CorrespondenceResult",
    "CoverageResult",
    "coverage",
    "verify_maximal_generator_correspondence",
]

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .bitops import (
    _maximal_members,
    cube_bits,
    down_close_bits,
    family_full_bitmap,
    iter_bits,
    mask_complement,
)
from .core import (
    KwiseMode,
    SetFamily,
    complement_family,
    complement_within_powerset,
    is_down_closed,
    is_maximal_k_wise,
)


@dataclass(frozen=True)
class CoverageResult:
    covered: SetFamily
    count: int

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.count, 1 << self.covered.n)


def coverage(family: SetFamily, k: int) -> CoverageResult:
    """Masks expressible as a union of at most k pairwise disjoint members.

    Level one is the members themselves; each further level extends every
    covered mask u by the members disjoint from u.  Extension batches over
    members: the masks disjoint from member g form the cube of g's
    complement, and their unions with g are a single shifted copy of that
    slice, so one level costs O(|G| * n) big integer operations.  The
    cubes are rebuilt per level rather than stored, keeping memory flat
    for large grounds.  Levels stop early once coverage reaches a
    fixpoint or the whole lattice.

    A down-closed family (such as the member complements of an up-closed
    one) has down-closed levels, and extends each level through its
    maximal members only, down-closing the result: u | g with g inside a
    maximal member h lies inside (u - h) | h, whose parts are disjoint and
    covered.  The levels are the same; only the one down-closure check is
    added for other families.
    """
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be an int >= 1, got {k!r}")
    n = family.n
    full = family_full_bitmap(n)
    covered = family.bitmap
    down_closed = is_down_closed(family)
    extenders = _maximal_members(covered, n) if down_closed else covered
    for _ in range(k - 1):
        if covered == full:
            break
        extended = covered
        for g in iter_bits(extenders):
            extended |= (covered & cube_bits(mask_complement(g, n))) << g
        if down_closed:
            extended = down_close_bits(extended, n)
        if extended == covered:
            break
        covered = extended
    return CoverageResult(SetFamily(n, covered), covered.bit_count())


@dataclass(frozen=True)
class CorrespondenceResult:
    ok: bool
    violations: Tuple[int, ...]


def verify_maximal_generator_correspondence(
    family: SetFamily, k: int, mode: KwiseMode = KwiseMode.DISTINCT
) -> CorrespondenceResult:
    """Check that every non-member is covered by the member complements.

    For a maximal k-wise intersecting family, each mask outside the family
    should be a union of at most k-1 disjoint complements of members.  The
    input must be maximal; the claim itself is tested, and any uncovered
    non-members are returned rather than assumed impossible.
    """
    if not is_maximal_k_wise(family, k, mode):
        raise ValueError("family is not maximal k-wise intersecting in the given mode")
    covered = coverage(complement_family(family), k - 1).covered
    missing = complement_within_powerset(family).bitmap & ~covered.bitmap
    return CorrespondenceResult(missing == 0, tuple(SetFamily(family.n, missing)))
