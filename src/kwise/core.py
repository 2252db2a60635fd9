"""Set families over a small ground set.

Families of subsets of {1..n} with exact predicates: k-wise intersection,
maximality with respect to it, closure operations, complementation and
coordinate restrictions.  Ground sets are capped at n = 26 so a family
fits in one explicit 2^n-bit membership bitmap.
"""

from __future__ import annotations

import binascii
import enum
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Tuple

from . import bitops
from .bitops import (
    MAX_FAMILY_GROUND,
    check_element,
    check_ground,
    cube_bits,
    family_full_bitmap,
    full_mask,
    iter_bits,
    mask_complement,
    project_intersect_bits,
    reverse_index_bits,
    supercube_bits,
    up_close_bits,
    down_close_bits,
)


class KwiseMode(enum.Enum):
    """Distinctness convention for k-wise intersection.

    DISTINCT requires every k pairwise distinct members to intersect and is
    vacuously true when the family has fewer than k members.
    WITH_REPETITION requires every j distinct members to intersect for all
    j with 2 <= j <= min(k, family size), which is the reading obtained by
    allowing a member to be repeated in the collection.
    """

    DISTINCT = "distinct"
    WITH_REPETITION = "repetition"

    @classmethod
    def parse(cls, text: str) -> "KwiseMode":
        for mode in cls:
            if mode.value == text:
                return mode
        raise ValueError(f"unknown mode {text!r}; expected 'distinct' or 'repetition'")


class SetFamily:
    """Immutable family of subsets of {1..n} backed by a membership bitmap."""

    __slots__ = ("n", "bitmap")

    def __init__(self, n: int, bitmap: int = 0):
        check_ground(n)
        if not 0 <= bitmap < (1 << (1 << n)):
            raise ValueError(f"bitmap out of range for ground size {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bitmap", bitmap)

    def __setattr__(self, name, value):
        raise AttributeError("SetFamily is immutable")

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "SetFamily":
        check_ground(n)
        bm = 0
        top = full_mask(n)
        for m in masks:
            if not 0 <= m <= top:
                raise ValueError(f"mask {m} out of range for ground size {n}")
            bm |= 1 << m
        return cls(n, bm)

    @classmethod
    def from_hex(cls, n: int, text: str) -> "SetFamily":
        check_ground(n)
        digits = hex_digits(n)
        text = text.strip().lower()
        if len(text) != digits:
            raise ValueError(
                f"hex family for n={n} must have exactly {digits} hex digit(s), got {len(text)}"
            )
        try:  # unhexlify reads digit pairs and nothing else: no sign, 0x or _
            raw = binascii.unhexlify("0" * (digits % 2) + text)
        except ValueError:
            raise ValueError(f"hex family for n={n} may hold only the digits 0-9a-f") from None
        return cls(n, int.from_bytes(raw, "big"))

    def to_hex(self) -> str:
        return format(self.bitmap, f"0{hex_digits(self.n)}x")

    @property
    def size(self) -> int:
        return self.bitmap.bit_count()

    def __len__(self) -> int:
        return self.size

    def __contains__(self, mask: int) -> bool:
        return 0 <= mask < (1 << self.n) and (self.bitmap >> mask) & 1 == 1

    def members(self) -> Iterator[int]:
        """Member masks in ascending order."""
        return iter_bits(self.bitmap)

    def member_list(self) -> List[int]:
        return list(self.members())

    def __iter__(self) -> Iterator[int]:
        return self.members()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetFamily)
            and self.n == other.n
            and self.bitmap == other.bitmap
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bitmap))

    def __repr__(self) -> str:
        if self.size <= 8:
            body = ",".join(str(m) for m in self.members())
        else:
            body = f"{self.size} members"
        return f"SetFamily(n={self.n}, {{{body}}})"

    def with_masks(self, masks: Iterable[int]) -> "SetFamily":
        extra = SetFamily.from_masks(self.n, masks)
        return SetFamily(self.n, self.bitmap | extra.bitmap)


def hex_digits(n: int) -> int:
    """Serialized width: the 2^n-bit bitmap zero-padded to whole hex digits."""
    return ((1 << n) + 3) // 4


def _check_same_ground(a: SetFamily, b: SetFamily) -> None:
    if a.n != b.n:
        raise ValueError(f"ground size mismatch: {a.n} vs {b.n}")


def _check_k(k: int) -> None:
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an int >= 2, got {k!r}")


def _exact_eps(eps) -> Fraction:
    """eps as a Fraction; ValueError for a zero denominator or an infinity."""
    try:
        return Fraction(eps)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"eps must be finite with a nonzero denominator: {eps!r}") from None


def complement_family(family: SetFamily) -> SetFamily:
    """The family of member complements {A^c : A in F}."""
    return SetFamily(family.n, reverse_index_bits(family.bitmap, family.n))


def complement_within_powerset(family: SetFamily) -> SetFamily:
    """All masks that are not members."""
    return SetFamily(family.n, family.bitmap ^ family_full_bitmap(family.n))


def symmetric_difference_count(a: SetFamily, b: SetFamily) -> int:
    _check_same_ground(a, b)
    return (a.bitmap ^ b.bitmap).bit_count()


def set_difference_count(a: SetFamily, b: SetFamily) -> int:
    _check_same_ground(a, b)
    return (a.bitmap & ~b.bitmap).bit_count()


def up_closure(family: SetFamily) -> SetFamily:
    """Smallest upward-closed family containing the input."""
    return SetFamily(family.n, up_close_bits(family.bitmap, family.n))


def down_closure(family: SetFamily) -> SetFamily:
    return SetFamily(family.n, down_close_bits(family.bitmap, family.n))


def is_up_closed(family: SetFamily) -> bool:
    return up_close_bits(family.bitmap, family.n) == family.bitmap


def is_down_closed(family: SetFamily) -> bool:
    return down_close_bits(family.bitmap, family.n) == family.bitmap


def restrict_minus(family: SetFamily, i: int) -> SetFamily:
    """Members avoiding element i, on the same ground set."""
    check_element(i, family.n)
    pat = bitops._clear_bit_pattern(family.n, i - 1)
    return SetFamily(family.n, family.bitmap & pat)


def restrict_plus(family: SetFamily, i: int) -> SetFamily:
    """Members containing element i, with i removed, on the same ground set."""
    check_element(i, family.n)
    pat = bitops._clear_bit_pattern(family.n, i - 1)
    return SetFamily(family.n, (family.bitmap >> (1 << (i - 1))) & pat)


# A layer whose antichain grows wider than _SPARSE_LIMITS[n] turns into a
# dense bitmap.  A sparse fold step costs about (source width) x (layer
# width) Python-level mask operations, a dense one about n passes over the
# 2^n-bit bitmap, so the crossover width grows like 2^(n/2).  Below the
# floor either way takes well under a millisecond per check.  Chosen from
# timings with the limit pinned, on linked cubes and on random families
# of large subsets at n = 8..22 (BENCH_2.json).
_SPARSE_FLOOR = 16
_SPARSE_LIMITS = tuple(
    max(_SPARSE_FLOOR, (1 << (n // 2)) >> 3) for n in range(MAX_FAMILY_GROUND + 1)
)


def _bitmap_of(masks: Iterable[int], n: int) -> int:
    """Family bitmap of the given masks, built in one pass over its bytes."""
    buf = bytearray(((1 << n) + 7) >> 3)
    for m in masks:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


def _merge_minimal(layer: Tuple[int, ...], masks: Iterable[int]) -> Tuple[int, ...]:
    """Minimal elements of an antichain together with more masks.

    Returns the input tuple itself when no mask is new and minimal.
    """
    out = layer
    for x in masks:
        if any(a & x == a for a in out):
            continue
        out = tuple([a for a in out if a & x != x] + [x])
    return out


def _fold_layers(layers: Tuple, size: int, g: int, n: int) -> Tuple:
    """Layers after folding member g into a family of the given size.

    Unchanged layers are returned as the same objects.
    """
    k = len(layers)
    first = layers[0]
    if size >= k and (
        first & cube_bits(g) if type(first) is int else any(a & g == a for a in first)
    ):
        return layers
    new = list(layers)
    top = min(k, size + 1)
    for j in range(top - 1, 0, -1):
        src, dst = layers[j - 1], layers[j]
        if type(dst) is tuple:
            new[j] = _merge_minimal(dst, {t & g for t in src})
            continue
        if type(src) is int:
            grown = dst | project_intersect_bits(src, g, n)
        else:
            grown = dst | _bitmap_of({t & g for t in src}, n)
        if grown != dst:
            new[j] = grown
    new[0] = first | (1 << g) if type(first) is int else _merge_minimal(first, (g,))
    limit = _SPARSE_LIMITS[n]
    for j in range(top):
        if type(new[j]) is tuple and len(new[j]) > limit:
            # dense layers form a suffix: a dense layer only feeds dense ones
            for i in range(j, k):
                if type(new[i]) is tuple:
                    new[i] = _bitmap_of(new[i], n)
            break
    return tuple(new)


class ReachState:
    """Reach layers R_1..R_k of a family, built one member at a time.

    R_j holds the masks that are the intersection of exactly j pairwise
    distinct members.  Folding in a new member g adds {t & g : t in R_(j-1)}
    to R_j, where R_(j-1) was built from earlier members only, so every
    witness collection is automatically distinct.  The state also keeps the
    family itself as the bitmap members.

    Both questions asked of a layer depend only on its up-closure: "is the
    empty set reachable" and "which masks miss some reachable t".  And if
    t' contains t then t' & g contains t & g, so a layer's non-minimal
    elements never matter for later layers either.  Each layer therefore
    keeps only its minimal elements, as a tuple, until the antichain grows
    wider than _SPARSE_LIMITS[n]; from then on it is a dense 2^n-bit bitmap
    of (a superset of the minimal elements of) R_j.  Dense layers form a
    suffix, because a dense layer only feeds dense layers.  Once the family
    has at least k members, a new member containing an earlier one changes
    no up-closure (any collection through it is dominated by the same
    collection through the earlier member, or by one more distinct member),
    so its fold only counts it.

    The layers nest: in a family of more than j members, each t in R_j
    contains t & h, which is in R_(j+1), for any member h outside t's
    collection.  So a mask that misses something in R_j also misses
    something in R_(j+1), and if R_j reaches the empty set so does
    R_(j+1).  Each question therefore reads one layer, the highest it
    ranges over, and the two modes give different answers only below k
    members.

    States are immutable: fold returns a new state and shares unchanged
    layers with the old one, so branching on a state costs nothing.
    """

    __slots__ = ("n", "k", "mode", "size", "layers", "members")

    def __init__(self, n: int, k: int, mode: KwiseMode = KwiseMode.DISTINCT):
        """The state of the empty family."""
        _check_k(k)
        self.n = n
        self.k = k
        self.mode = mode
        self.size = 0
        # layers[j - 1] is R_j, empty past j = 2^n; keeping one empty layer
        # more means a family has len(layers) members only when it has k
        self.layers: Tuple = ((),) * min(k, (1 << n) + 1)
        self.members = 0

    def _after(self, size: int, layers: Tuple, members: int) -> "ReachState":
        state = object.__new__(ReachState)
        state.n, state.k, state.mode = self.n, self.k, self.mode
        state.size, state.layers, state.members = size, layers, members
        return state

    @classmethod
    def of(cls, family: SetFamily, k: int, mode: KwiseMode = KwiseMode.DISTINCT) -> "ReachState":
        """The state of a whole family, its members folded in ascending order."""
        empty = cls(family.n, k, mode)
        layers, size = empty.layers, 0
        for g in family.members():
            layers = _fold_layers(layers, size, g, family.n)
            size += 1
        return empty._after(size, layers, family.bitmap)

    def fold(self, g: int) -> "ReachState":
        """The state after adding member g, which must not be a member yet."""
        layers = _fold_layers(self.layers, self.size, g, self.n)
        return self._after(self.size + 1, layers, self.members | 1 << g)

    def hits_empty(self) -> bool:
        """Whether some 2..k distinct members have an empty intersection,
        read from R_min(size, k)."""
        if self.size < 2:
            return False
        layer = self.layers[min(self.size, self.k) - 1]
        return bool(layer & 1) if type(layer) is int else 0 in layer

    def intersecting(self) -> bool:
        """The k-wise verdict for the folded family, in the state's mode."""
        if self.mode is KwiseMode.DISTINCT and self.size < self.k:
            return True
        return not self.hits_empty()

    def relevant(self) -> int | Tuple[int, ...]:
        """The layer whose reachable masks block a new member: R_(k-1) in
        DISTINCT mode, R_min(size, k-1) with repetition (R_1 when empty).
        Past the last layer, R_(k-1) is the spare empty one."""
        j = self.k - 1
        if self.mode is KwiseMode.WITH_REPETITION:
            j = min(j, self.size) or 1
        return self.layers[min(j, len(self.layers)) - 1]

    def blocked(self) -> int:
        """Bitmap of masks whose addition would break the k-wise property.

        A candidate m is blocked exactly when some relevant reachable t
        avoids it, that is when m is a submask of t's complement.
        """
        n = self.n
        layer = self.relevant()
        if type(layer) is int:
            complements = reverse_index_bits(layer, n)
        else:
            top = full_mask(n)
            complements = _bitmap_of([top ^ t for t in layer], n)
        return down_close_bits(complements, n) if complements else 0

    def addable(self) -> int:
        """Non-members that are not blocked."""
        return ~self.blocked() & ~self.members & family_full_bitmap(self.n)

    def maximal(self) -> bool:
        """Whether the family is k-wise intersecting and nothing is addable."""
        return self.intersecting() and self.addable() == 0


def is_k_wise_intersecting(
    family: SetFamily, k: int, mode: KwiseMode = KwiseMode.DISTINCT
) -> bool:
    """Whether every admissible collection of members has common elements.

    DISTINCT mode checks collections of exactly k distinct members and is
    vacuously true when the family has fewer than k.  WITH_REPETITION mode
    checks every collection size j with 2 <= j <= min(k, size).
    """
    _check_k(k)
    if mode is KwiseMode.DISTINCT and family.size < k:
        return True  # vacuous, no fold needed
    return ReachState.of(family, k, mode).intersecting()


def _intersecting_state(family: SetFamily, k: int, mode: KwiseMode) -> ReachState:
    state = ReachState.of(family, k, mode)
    if not state.intersecting():
        raise ValueError("family is not k-wise intersecting in the given mode")
    return state


def addable_sets(
    family: SetFamily, k: int, mode: KwiseMode = KwiseMode.DISTINCT
) -> SetFamily:
    """Non-members whose addition keeps the family k-wise intersecting.

    The input family must itself be k-wise intersecting.
    """
    state = _intersecting_state(family, k, mode)
    return SetFamily(family.n, state.addable())


def is_maximal_k_wise(
    family: SetFamily, k: int, mode: KwiseMode = KwiseMode.DISTINCT
) -> bool:
    """Whether no mask outside the family can be added without breaking it."""
    return addable_sets(family, k, mode).bitmap == 0


def maximal_closure(
    family: SetFamily, k: int, mode: KwiseMode = KwiseMode.DISTINCT
) -> SetFamily:
    """Greedily extend to a maximal k-wise intersecting family.

    Candidates are scanned in ascending mask order and the scan repeats
    until a pass adds nothing.  Blocked candidates stay blocked as the
    family grows, so adding the lowest addable mask each round reproduces
    the ascending-scan fixpoint exactly.  The addable set is recomputed only
    when an added member changes the layer that blocks candidates;
    otherwise it just loses the added mask.

    Once the family has k members, every non-member superset of a member
    is addable for good and folding it changes no layer (see ReachState),
    so all of them are added at once: the whole up-closure when the size
    first reaches k, and the supercube of each member folded after that.
    From then on every folded mask is a minimal member of the result, so
    the per-mask loop runs at most k times more than the result has
    minimal members, and the result is the same as adding those supersets
    one at a time.  Below k members there is nothing to add in bulk.
    """
    state = _intersecting_state(family, k, mode)
    n = family.n
    addable = state.addable()
    supersets = up_close_bits(state.members, n) & ~state.members if state.size >= k else 0
    while True:
        if supersets:
            addable &= ~supersets
            size = state.size + supersets.bit_count()
            state = state._after(size, state.layers, state.members | supersets)
        if not addable:
            return SetFamily(n, state.members)
        g = (addable & -addable).bit_length() - 1
        grown = state.fold(g)
        if grown.relevant() == state.relevant():
            addable ^= 1 << g
        else:
            addable = grown.addable()
        state = grown
        if state.size == k:
            supersets = up_close_bits(state.members, n) & ~state.members
        elif state.size > k:
            supersets = supercube_bits(g, n) & ~state.members
