"""Set families over a small ground set.

Families of subsets of {1..n} with exact predicates: k-wise intersection,
maximality with respect to it, closure operations, complementation and
coordinate restrictions.  Ground sets are capped at n = 26 so a family
fits in one explicit 2^n-bit membership bitmap.
"""

from __future__ import annotations

__all__ = [
    "KwiseMode",
    "SetFamily",
    "addable_sets",
    "complement_family",
    "complement_within_powerset",
    "hex_digits",
    "is_down_closed",
    "is_k_wise_intersecting",
    "is_maximal_k_wise",
    "maximal_closure",
    "restrict_plus",
    "symmetric_difference_count",
]

import binascii
import enum
import itertools
import re
import sys
from array import array
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator, List, Tuple

from . import bitops
from .bitops import (
    MAX_FAMILY_GROUND,
    check_element,
    check_ground,
    check_mask,
    cube_bits,
    family_full_bitmap,
    full_mask,
    iter_bits,
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


@dataclass(frozen=True, slots=True, repr=False)
class SetFamily:
    """Immutable family of subsets of {1..n} backed by a membership bitmap."""

    n: int
    bitmap: int = 0

    def __post_init__(self):
        check_ground(self.n)
        bitmap = self.bitmap
        if not (type(bitmap) is int and bitmap >= 0 and bitmap.bit_length() <= 1 << self.n):
            raise ValueError(f"bitmap out of range for ground size {self.n}")

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "SetFamily":
        """The family of the given masks; each must pass bitops.check_mask."""
        check_ground(n)
        masks = list(masks)
        for m in masks:
            check_mask(m, n)
        return cls(n, _bitmap_of(masks, n))

    @classmethod
    def from_hex(cls, n: int, text: str) -> "SetFamily":
        check_ground(n)
        digits = hex_digits(n)
        text = text.strip()
        if len(text) != digits:
            raise ValueError(
                f"hex family for n={n} must have exactly {digits} hex digit(s), got {len(text)}"
            )
        try:  # unhexlify reads digit pairs, in either case, and nothing else: no sign, 0x or _
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

    def __contains__(self, mask: object) -> bool:
        """Whether mask is a member; anything but an int mask in range is not."""
        return type(mask) is int and 0 <= mask < (1 << self.n) and (self.bitmap >> mask) & 1 == 1

    def members(self) -> Iterator[int]:
        """Member masks in ascending order."""
        return iter_bits(self.bitmap)

    def member_list(self) -> List[int]:
        return list(self.members())

    def __iter__(self) -> Iterator[int]:
        return self.members()

    def __repr__(self) -> str:
        if self.size <= 8:
            body = ",".join(str(m) for m in self.members())
        else:
            body = f"{self.size} members"
        return f"SetFamily(n={self.n}, {{{body}}})"


def hex_digits(n: int) -> int:
    """Serialized width: the 2^n-bit bitmap zero-padded to whole hex digits."""
    return ((1 << n) + 3) // 4


def _check_same_ground(a: SetFamily, b: SetFamily) -> None:
    if a.n != b.n:
        raise ValueError(f"ground size mismatch: {a.n} vs {b.n}")


def _check_k(k: int) -> None:
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an int >= 2, got {k!r}")


def _check_mode(mode: KwiseMode) -> None:
    if not isinstance(mode, KwiseMode):
        raise ValueError(f"mode must be a KwiseMode, got {mode!r}")


def _exact_eps(eps) -> Fraction:
    """eps as a Fraction; ValueError for a zero denominator, an infinity,
    or a string or Decimal whose decimal exponent has more than three digits.

    Fraction builds 10^|e| for an exponent e, which takes seconds once |e|
    has eight digits and grows with it.  The bound |e| < 1000 keeps the
    parse instant and lies far beyond the slacks an audit can tell apart:
    its counts stay below 2^26, so no verdict changes for eps within
    (0, 10^-12) or above 10^8.
    """
    text = str(eps) if isinstance(eps, (str, Decimal)) else ""
    exponent = re.search(r"[eE][-+]?([\d_]+)\s*\Z", text)
    if exponent and len(exponent.group(1).replace("_", "").lstrip("0")) > 3:
        raise ValueError(f"eps exponent must be below 1000 in magnitude: {eps!r}")
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


def is_down_closed(family: SetFamily) -> bool:
    return down_close_bits(family.bitmap, family.n) == family.bitmap


def restrict_plus(family: SetFamily, i: int) -> SetFamily:
    """Members containing element i, with i removed, on the same ground set."""
    check_element(i, family.n)
    pat = bitops._clear_bit_pattern(family.n, i - 1)
    return SetFamily(family.n, (family.bitmap >> (1 << (i - 1))) & pat)


# R_1 turns into a dense bitmap once its antichain is wider than
# _SPARSE_LIMITS[n], and a deeper layer once its width times the width of
# its source layer exceeds _SPARSE_LIMITS[n]**2.  A sparse fold step costs
# about (source width) x (layer width) mask tests, packed on wide layers,
# a dense one about n passes over the 2^n-bit bitmap, so the crossover
# grows like 2^(n/2).  Below the floor either way takes well under a
# millisecond per check.  Re-timed with the packed tests: ReachState.of
# plus addable() at k = 3, R_1 sparse and R_2 forced either way, medians
# in ms, alternated in one process (BENCH_25.json):
#
#   family          n   R_1 x R_2   limit^2   sparse   dense   rule
#   linked cubes   12    12 x  38       256     0.22    0.17   dense
#   linked cubes   16    16 x  66      1024     0.51    0.55   dense
#   linked cubes   17    17 x  74      1024     0.86    0.93   dense
#   linked cubes   18    18 x  83      4096     1.36    1.65   sparse
#   linked cubes   20    20 x 102     16384     6.07    7.66   sparse
#   linked cubes   22    22 x 123     65536    19.35   34.73   sparse
#   co-singletons  12    12 x  66       256     0.30    0.20   dense
#   co-singletons  16    16 x 120      1024     0.63    0.46   dense
#   co-singletons  17    17 x 136      1024     0.86    0.77   dense
#   co-singletons  18    18 x 153      4096     1.19    1.30   sparse
#   co-singletons  22    22 x 231     65536    11.82   28.69   sparse
#
# The linked cubes at n = 16 and 17 lie at the crossover and stay dense.
_SPARSE_FLOOR = 16
_SPARSE_LIMITS = tuple(
    max(_SPARSE_FLOOR, (1 << (n // 2)) >> 3) for n in range(MAX_FAMILY_GROUND + 1)
)


# ReachState.of strikes the members one element larger than another with
# bitmap passes once it has at least n * 2^n / 2^_MINIMAL_PASS_SHIFT
# members.  The passes cost about n big-int operations over the 2^n-bit
# bitmap, the walk they replace about one Python step per member.  Timed
# with either side forced (BENCH_23.json), the passes won on balanced
# linked cubes up to n = 20 (4.7-5.1 ms against 6.0-6.4 ms walked), broke
# even at n = 21, about n * 2^n / 2^14 members, and lost from n = 22 on
# (21-27 ms against 13 ms); on random families at that bound (n = 16 and
# 20) the two sides stayed within the noise.  So the bound sits at 2^14.
_MINIMAL_PASS_SHIFT = 14


# A sparse layer of at least _PACK_MIN masks is tested packed, one mask per
# _FIELD_BITS-bit field of an int.  Masks have at most 26 bits, so the top
# bit of each field is clear; with a 1 there in every field (the guard),
# guard - fields keeps a field's guard bit exactly when the field is 0,
# and no borrow crosses a field.  So "some element lies inside x" or
# "some element misses g" is one multiply, one AND and one guard-bit
# subtraction over all fields, not a Python loop.  Narrower layers are
# scanned: packing them costs more than it saves (closure-grow's layers).
_PACK_MIN = 16
_FIELD_BITS = 32
_GUARD_BIT = _FIELD_BITS - 1
_PACK_TYPECODE = next(code for code in "IL" if array(code).itemsize == _FIELD_BITS // 8)


def _pack(masks) -> Tuple[int, int]:
    """The masks one per field of an int, masks[i] in field i, and the int
    with 1 in each field."""
    fields = array(_PACK_TYPECODE, masks)
    if sys.byteorder == "big":
        fields.byteswap()
    ones = int.from_bytes(b"\1\0\0\0" * len(masks), "little")
    return int.from_bytes(fields.tobytes(), "little"), ones


def _bitmap_of(masks: Iterable[int], n: int) -> int:
    """Family bitmap of the given masks, built in one pass over its bytes."""
    buf = bytearray(((1 << n) + 7) >> 3)
    for m in masks:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


def _merge_minimal(layer: Tuple[int, ...], masks: Iterable[int]) -> Tuple[int, ...]:
    """Minimal elements of an antichain together with more masks.

    Returns the input tuple itself when no mask is new and minimal.  A
    layer of at least _PACK_MIN masks is tested packed (see _pack), out[i]
    in field i: with xs = x * ones, the fields of packed & xs equal those
    of packed where an element lies inside x, and equal xs where an
    element contains x, which x evicts.  An evicted element leaves a hole
    in out but stays in packed: a kept element lies inside it, so it never
    decides the first test, and the second only evicts it again.
    """
    if len(layer) < _PACK_MIN:
        out = layer
        for x in masks:
            for a in out:
                if a & x == a:
                    break
            else:  # x is minimal: it evicts the elements containing it
                for a in out:
                    if a & x == x:
                        out = tuple([a for a in out if a & x != x])
                        break
                out += (x,)
        return out
    out, evicted = list(layer), False
    packed, ones = _pack(out)
    guard = ones << _GUARD_BIT
    top = 1 << _FIELD_BITS * len(out)
    for x in masks:
        xs = x * ones
        meet = packed & xs
        if (guard - (meet ^ packed)) & guard:
            continue
        above = (guard - (meet ^ xs)) & guard
        while above:  # the guard bit of field i is bit 32 i + 31
            low = above & -above
            out[low.bit_length() // _FIELD_BITS - 1] = None
            above ^= low
            evicted = True
        out.append(x)
        packed |= x * top
        ones |= top
        guard |= top << _GUARD_BIT
        top <<= _FIELD_BITS
    if len(out) == len(layer):
        return layer
    return tuple([a for a in out if a is not None] if evicted else out)


def _misses_some(layer: Tuple[int, ...], g: int) -> bool:
    """Whether g misses some element of a sparse layer."""
    if len(layer) < _PACK_MIN:
        for t in layer:
            if not t & g:
                return True
        return False
    packed, ones = _pack(layer)
    guard = ones << _GUARD_BIT
    return bool((guard - (packed & g * ones)) & guard)


def _fold_layers(layers: Tuple, g: int, n: int) -> Tuple:
    """Layers R_1..R_(k-1) and the bit [the empty set is in R_k] after
    folding member g into the members they were built from; the first k
    members start from ((),) * (k - 1) + (0,).

    R_k gains the empty set when g misses some t in R_(k-1); against a
    dense R_(k-1) that is one AND with the cube of g's complement, against
    a wide sparse one one packed test.
    Unchanged layers are returned as the same objects.
    """
    new = list(layers)
    last = len(new) - 1
    if not new[last]:
        src = new[last - 1]
        hit = src & cube_bits(full_mask(n) ^ g) if type(src) is int else _misses_some(src, g)
        new[last] = 1 if hit else 0
    for j in range(last - 1, 0, -1):
        src, dst = new[j - 1], new[j]
        if type(dst) is tuple:
            new[j] = _merge_minimal(dst, {t & g for t in src})
            continue
        if type(src) is int:
            grown = dst | project_intersect_bits(src, g, n)
        else:
            grown = dst | _bitmap_of({t & g for t in src}, n)
        if grown != dst:
            new[j] = grown
    new[0] = new[0] | 1 << g if type(new[0]) is int else _merge_minimal(new[0], (g,))
    limit = _SPARSE_LIMITS[n]
    for j, layer in enumerate(new):
        if type(layer) is tuple and len(layer) * (len(new[j - 1]) if j else limit) > limit * limit:
            # dense layers form a suffix: a dense layer only feeds dense ones
            new[j:] = [_bitmap_of(t, n) if type(t) is tuple else t for t in new[j:]]
            break
    return tuple(new)


def _fold_past_k(layers: Tuple, g: int, n: int) -> Tuple:
    """_fold_layers past k members, where a member g containing one in R_1
    changes nothing (see ReachState)."""
    first = layers[0]
    if type(first) is int:
        if first & cube_bits(g):
            return layers
    else:
        for a in first:
            if a & g == a:
                return layers
    return _fold_layers(layers, g, n)


class ReachState:
    """Reach layers R_1..R_(k-1) and whether R_k holds the empty set, for
    a family of at least k members, built one member at a time, or the
    common intersection of fewer.

    R_j holds the masks that are the intersection of exactly j pairwise
    distinct members.  Folding in a new member g adds {t & g : t in R_(j-1)}
    to R_j, where R_(j-1) was built from earlier members only, so every
    witness collection is automatically distinct.  The state also keeps
    the family itself as the bitmap members, and their AND as common, I.
    A family of s < k members has one collection of s distinct members,
    and every question reads its intersection I (the full mask when s = 0),
    so the state keeps no layers below k; the k-th member folds all k.

    For k > n, I decides at every size, and the state never keeps layers.
    A family of at least k members is k-wise intersecting exactly when
    I != {}: if I = {}, each element is missed by some member, and those
    at most n < k members, padded with others, are k distinct members
    with an empty intersection.  By the same argument a new member joining
    at least k - 1 others is blocked exactly when it misses I.

    Both questions asked of a layer depend only on its up-closure: "is the
    empty set reachable" and "which masks miss some reachable t".  And if
    t' contains t then t' & g contains t & g, so a layer's non-minimal
    elements never matter for later layers either.  Each layer therefore
    keeps only its minimal elements, as a tuple, until the antichain grows
    too wide for its sparse fold (R_1 wider than _SPARSE_LIMITS[n], a
    deeper layer once its width times its source layer's exceeds the
    square of that); from then on it is a dense 2^n-bit bitmap of (a
    superset of the minimal elements of) R_j.  Dense layers form a
    suffix, because a dense layer only feeds dense layers.  Once the family
    has at least k members, a new member containing an earlier one changes
    no up-closure (any collection through it is dominated by the same
    collection through the earlier member, or by one more distinct member),
    so its fold only counts it.  ReachState.of therefore folds, past its
    first k members, only the members of a large family with no member one
    element smaller.  In an up-closed one those are its minimal members,
    and few: n of the 2^ceil(n/2) + 2^floor(n/2) - 3 members of the
    balanced linked cubes and one of a star.

    The layers nest: in a family of more than j members, each t in R_j
    contains t & h, which is in R_(j+1), for any member h outside t's
    collection.  So a mask that misses something in R_j also misses
    something in R_(j+1), and if R_j reaches the empty set so does
    R_(j+1).  Each question therefore reads one layer, the highest it
    ranges over, and the two modes give different answers only below k
    members.  Only hits_empty reads R_k, and only for the empty set, so
    the last entry of layers is that bit, the int 1 or 0: it turns 1 when
    a new member misses some t in R_(k-1).

    States are immutable: fold returns a new state and shares unchanged
    layers with the old one, which stays valid for comparison, as
    maximal_closure compares the relevant layers before and after a fold.
    """

    __slots__ = ("n", "k", "mode", "size", "layers", "common", "members")

    def __init__(self, n: int, k: int, mode: KwiseMode = KwiseMode.DISTINCT):
        """The state of the empty family."""
        _check_k(k)
        _check_mode(mode)
        self.n = n
        self.k = k
        self.mode = mode
        self.size = 0
        # from k members on, for k <= n, layers[j - 1] is R_j for j < k and
        # layers[k - 1] is 1 when R_k holds the empty set, 0 when not
        self.layers: Tuple = ()
        self.common = full_mask(n)
        self.members = 0

    def _after(self, size: int, layers: Tuple, common: int, members: int) -> "ReachState":
        state = object.__new__(ReachState)
        state.n, state.k, state.mode = self.n, self.k, self.mode
        state.size, state.layers, state.common, state.members = size, layers, common, members
        return state

    @classmethod
    def of(cls, family: SetFamily, k: int, mode: KwiseMode = KwiseMode.DISTINCT) -> "ReachState":
        """The state of a whole family, its members folded in ascending order.

        Below k members, or for k > n, it reads I off the bitmap without
        listing them.
        After the first k members, a family of at least
        n * 2^n / 2^_MINIMAL_PASS_SHIFT members skips, in n bitmap passes,
        each member one element larger than another member.  The state is
        the same as from folding every member: a skipped member contains a
        member with a smaller mask, which was folded before it, so its fold
        would have returned the layers unchanged, and I is the same.  A
        non-minimal member that is not skipped contains a minimal member,
        which is never skipped, so its fold returns the layers unchanged.
        """
        empty = cls(family.n, k, mode)
        n, bm = family.n, family.bitmap
        size = bm.bit_count()
        if size < k or k > n:  # element i + 1 is common when no member avoids it
            common = sum(1 << i for i in range(n) if not bm & bitops._clear_bit_pattern(n, i))
            return empty._after(size, (), common, bm)
        members, layers, common = iter_bits(bm), ((),) * (k - 1) + (0,), empty.common
        for g in itertools.islice(members, k):
            layers, common = _fold_layers(layers, g, n), common & g
        if size << _MINIMAL_PASS_SHIFT >= n << n:
            members = itertools.dropwhile(g.__ge__, iter_bits(bitops._minimal_candidates(bm, n)))
        for g in members:
            layers, common = _fold_past_k(layers, g, n), common & g
        return empty._after(size, layers, common, bm)

    def fold(self, g: int) -> "ReachState":
        """The state after adding member g, which must not be a member yet."""
        size, members = self.size + 1, self.members | 1 << g
        if size == self.k <= self.n:
            return ReachState.of(SetFamily(self.n, members), self.k, self.mode)
        layers = _fold_past_k(self.layers, g, self.n) if self.layers else ()
        return self._after(size, layers, self.common & g, members)

    def hits_empty(self) -> bool:
        """Whether some 2..k distinct members have an empty intersection,
        read from I without layers and from the bit kept for R_k with them."""
        if not self.layers:
            return self.size >= 2 and self.common == 0
        return self.layers[-1] == 1

    def intersecting(self) -> bool:
        """The k-wise verdict for the folded family, in the state's mode."""
        if self.mode is KwiseMode.DISTINCT and self.size < self.k:
            return True
        return not self.hits_empty()

    def relevant(self) -> int | Tuple[int, ...]:
        """The reachable masks that block a new member: R_(k-1) once there
        are layers; without them, (I,) if a new member joins at least
        k - 1 others or, with repetition, any, and () otherwise."""
        if self.layers:
            return self.layers[self.k - 2]
        if self.size >= self.k - 1 or (self.size and self.mode is KwiseMode.WITH_REPETITION):
            return (self.common,)
        return ()

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
        return family_full_bitmap(self.n) ^ (self.blocked() | self.members)

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
    one at a time.

    Below k - 1 members a fold changes what blocks only when it adds the
    (k-1)-th member or, with repetition, a mask that does not contain I,
    the AND of the members.  So the lowest k - 1 - |F| addable masks, with
    repetition only those below the lowest addable mask that misses part
    of I, are added at once and addable is recomputed after them.  Each
    fold between two such adds shrinks I, so there are at most n + 1.
    """
    state = _intersecting_state(family, k, mode)
    n = family.n
    addable = state.addable()
    supersets = up_close_bits(state.members, n) & ~state.members if state.size >= k else 0
    while True:
        if supersets:
            addable &= ~supersets
            size = state.size + supersets.bit_count()
            state = state._after(size, state.layers, state.common, state.members | supersets)
        if not addable:
            return SetFamily(n, state.members)
        room = k - 1 - state.size
        if room > 0:
            batch = addable
            if mode is KwiseMode.WITH_REPETITION:
                missing = addable & ~supercube_bits(state.common, n)
                batch &= (missing & -missing) - 1  # all of addable when missing is 0
            if batch:
                if batch.bit_count() > room:
                    batch = _bitmap_of(itertools.islice(iter_bits(batch), room), n)
                state = ReachState.of(SetFamily(n, state.members | batch), k, mode)
                addable = state.addable()
                continue
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
