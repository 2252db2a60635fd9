"""Set families over a small ground set.

Families of subsets of {1..n} with exact predicates: k-wise intersection,
maximality with respect to it, closure operations, complementation and
coordinate restrictions.  Ground sets are capped at n = 26 so a family
fits in one explicit 2^n-bit membership bitmap.
"""

from __future__ import annotations

import binascii
import enum
import itertools
import re
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


# ReachState.of strikes the non-minimal members of a family with bitmap
# passes once it has at least n * 2^n / 2^_MINIMAL_PASS_SHIFT members.  The
# passes cost about 2n big-int operations over the 2^n-bit bitmap, the walk
# they replace about one Python step per member.  Timed with either side
# forced, the passes won on random families at the bound (n = 16 and 20)
# and on linked cubes up to n = 19, and lost from n = 21 on; linked cubes
# broke even at n = 20, about n * 2^n / 2^13 members (BENCH_10.json), so
# the bound sits there and linked cubes up to n = 19 take the passes.
_MINIMAL_PASS_SHIFT = 13


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


def _fold_layers(layers: Tuple, g: int, n: int) -> Tuple:
    """Layers R_1..R_k after folding member g into the members they were
    built from; the first k members start from ((),) * k, all empty.

    Unchanged layers are returned as the same objects.
    """
    new = list(layers)
    for j in range(len(new) - 1, 0, -1):
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
        if type(layer) is tuple and len(layer) > limit:
            # dense layers form a suffix: a dense layer only feeds dense ones
            new[j:] = [_bitmap_of(t, n) if type(t) is tuple else t for t in new[j:]]
            break
    return tuple(new)


def _fold_past_k(layers: Tuple, g: int, n: int) -> Tuple:
    """_fold_layers past k members, where a member g containing one in R_1
    changes nothing (see ReachState)."""
    first = layers[0]
    if first & cube_bits(g) if type(first) is int else any(a & g == a for a in first):
        return layers
    return _fold_layers(layers, g, n)


class ReachState:
    """Reach layers R_1..R_k of a family of at least k members, built one
    member at a time, or the common intersection of fewer.

    R_j holds the masks that are the intersection of exactly j pairwise
    distinct members.  Folding in a new member g adds {t & g : t in R_(j-1)}
    to R_j, where R_(j-1) was built from earlier members only, so every
    witness collection is automatically distinct.  The state also keeps
    the family itself as the bitmap members, and their AND as common, I.
    A family of s < k members has one collection of s distinct members,
    and every question reads its intersection I (the full mask when s = 0),
    so the state keeps no layers below k; the k-th member folds all k.

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
    so its fold only counts it.  ReachState.of therefore folds, past its
    first k members, only the minimal members of a large family: in an
    up-closed one those are few, n of the 2^ceil(n/2) + 2^floor(n/2) - 3
    members of the balanced linked cubes and one of a star.

    The layers nest: in a family of more than j members, each t in R_j
    contains t & h, which is in R_(j+1), for any member h outside t's
    collection.  So a mask that misses something in R_j also misses
    something in R_(j+1), and if R_j reaches the empty set so does
    R_(j+1).  Each question therefore reads one layer, the highest it
    ranges over, and the two modes give different answers only below k
    members.

    States are immutable: fold returns a new state and shares unchanged
    layers with the old one, which stays valid for comparison, as
    maximal_closure compares the relevant layers before and after a fold.
    """

    __slots__ = ("n", "k", "mode", "size", "layers", "common", "members")

    def __init__(self, n: int, k: int, mode: KwiseMode = KwiseMode.DISTINCT):
        """The state of the empty family."""
        _check_k(k)
        self.n = n
        self.k = k
        self.mode = mode
        self.size = 0
        self.layers: Tuple = ()  # layers[j - 1] is R_j, from k members on
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

        Below k members it reads I off the bitmap without listing them.
        After the first k members, a family of at least
        n * 2^n / 2^_MINIMAL_PASS_SHIFT members folds only its minimal
        members.  The state is the same as from folding every member: a
        skipped member contains a member with a smaller mask, which was
        folded before it, so its fold would have returned the layers
        unchanged, and I is the same.
        """
        empty = cls(family.n, k, mode)
        n, bm = family.n, family.bitmap
        size = bm.bit_count()
        if size < k:  # element i + 1 is common when no member avoids it
            common = sum(1 << i for i in range(n) if not bm & bitops._clear_bit_pattern(n, i))
            return empty._after(size, (), common, bm)
        members, layers, common = iter_bits(bm), ((),) * k, empty.common
        for g in itertools.islice(members, k):
            layers, common = _fold_layers(layers, g, n), common & g
        if size << _MINIMAL_PASS_SHIFT >= n << n:
            members = iter_bits(bitops._minimal_members(bm, n) >> (g + 1) << (g + 1))
        for g in members:
            layers, common = _fold_past_k(layers, g, n), common & g
        return empty._after(size, layers, common, bm)

    def fold(self, g: int) -> "ReachState":
        """The state after adding member g, which must not be a member yet."""
        size, members = self.size + 1, self.members | 1 << g
        if size == self.k:
            return ReachState.of(SetFamily(self.n, members), self.k, self.mode)
        layers = _fold_past_k(self.layers, g, self.n) if size > self.k else ()
        return self._after(size, layers, self.common & g, members)

    def hits_empty(self) -> bool:
        """Whether some 2..k distinct members have an empty intersection,
        read from I below k members and from R_k, the last layer, on."""
        if not self.layers:
            return self.size >= 2 and self.common == 0
        layer = self.layers[-1]
        return bool(layer & 1) if type(layer) is int else 0 in layer

    def intersecting(self) -> bool:
        """The k-wise verdict for the folded family, in the state's mode."""
        if self.mode is KwiseMode.DISTINCT and self.size < self.k:
            return True
        return not self.hits_empty()

    def relevant(self) -> int | Tuple[int, ...]:
        """The reachable masks that block a new member: R_(k-1) from k
        members on; below k, (I,) if a new member completes k members or,
        with repetition, joins any, and () otherwise."""
        if self.layers:
            return self.layers[self.k - 2]
        if self.size == self.k - 1 or (self.size and self.mode is KwiseMode.WITH_REPETITION):
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
