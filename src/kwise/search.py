"""Minimum-size search over maximal k-wise intersecting families.

search_min answers, exactly, how small a maximal k-wise intersecting
family on n elements can be.  Families below the distinctness threshold
(fewer than k members) are decided by their common intersection, as
core.ReachState decides them.  The smallest size that can be maximal
there, the floor, always is, so the floor is the minimum, and one
orderly walk gives the canonical forms of the floor's maximal families
as witnesses.  An oracle from first principles checks it at tiny n.

The second half of the module holds the counting tools used to audit
size bounds around a paired-cube split: the three-way partition of a
family against the split and the exact bound arithmetic.
"""

from __future__ import annotations

__all__ = [
    "ClaimCountsReport",
    "SearchConfig",
    "SearchReport",
    "audit_claim_counts",
    "canonical_form",
    "enumerate_maximal_families",
    "enumerate_upsets",
    "oracle_min",
    "partition_relative_to_cubes",
    "product_bound_terms",
    "search_min",
]

import itertools
import math
import numbers
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterator, List, Tuple

from .bitops import (
    _min_relabeling,
    check_ground,
    check_mask,
    cube_bits,
    family_full_bitmap,
    full_mask,
    mask_complement,
)
from .constructions import balanced_block, linked_cubes, linked_cubes_size, pair_of_cubes
from .core import (
    KwiseMode,
    ReachState,
    SetFamily,
    _check_k,
    _check_mode,
    _exact_eps,
    complement_family,
    symmetric_difference_count,
)

MAX_SEARCH_GROUND = 7
MAX_ORACLE_GROUND = 5
MAX_CANONICAL_GROUND = 10


def canonical_form(family: SetFamily) -> SetFamily:
    """Least relabeling of the family over all coordinate permutations.

    Relabeled copies of a family share one canonical form, so equality of
    canonical forms decides isomorphism.  The form is found by the branch
    and bound of `bitops._min_relabeling`, which fixes coordinates from
    the top and prunes every branch whose popcount bound cannot beat the
    least bitmap found so far.  Symmetric families without twins can
    still defeat the bound, so the worst case is factorial in n and the
    ground set is capped accordingly.
    """
    n = family.n
    if n > MAX_CANONICAL_GROUND:
        raise ValueError(f"canonical form capped at n={MAX_CANONICAL_GROUND}, got {n}")
    return SetFamily(n, _min_relabeling(family.bitmap, n))


def enumerate_upsets(n: int) -> List[int]:
    """Bitmaps of every upward-closed family on n elements.

    Splitting on the top element writes each up-set as a low half L and a
    high half H, both up-sets one level down with L contained in H, so the
    counts follow the Dedekind numbers and the listing is exact.
    """
    check_ground(n)
    if n > MAX_ORACLE_GROUND:
        raise ValueError(f"up-set enumeration capped at n={MAX_ORACLE_GROUND}, got {n}")
    ups = [0, 1]
    for level in range(1, n + 1):
        shift = 1 << (level - 1)
        ups = [
            lo | (hi << shift)
            for hi in ups
            for lo in ups
            if lo & ~hi == 0
        ]
    return ups


def _first_below_k_size(n: int, k: int, mode: KwiseMode) -> int:
    # DISTINCT: any non-member joins a smaller family, which stays under k
    return min(k - 1, 1 << n) if mode is KwiseMode.DISTINCT else 1


def _floor_maximal(n: int, size: int, common: int) -> bool:
    """Whether a family of `size` distinct members, size the floor, is
    maximal when I, the AND of its members, has `common` elements.

    By the below-k rule of core.ReachState, a family of fewer than k
    members is maximal when every non-member misses I and it passes
    itself: always in DISTINCT mode, with repetition at one member or
    I != 0, so always at the floor.  Every
    member contains I, so for I != 0 the first condition says the family
    is all 2^n - 2^(n - |I|) sets meeting I, which its size decides.
    """
    return not common or size == (1 << n) - (1 << (n - common))


def _orderly(length: int, bits: int, distinct: bool) -> Iterator[Tuple[List[int], int]]:
    """Sorted sequences of `length` values below 2^bits, one per orbit of
    the bits! bit permutations: multisets, or sets when `distinct`.  A
    kept one yields (sequence, |stab|), stab the orders fixing it, in a
    list the next yield reuses, and a dropped prefix (sequence, 0).

    A sequence is kept when no image sorts lower, the orderly generation
    of Read ("Every one a winner", 1978) and McKay ("Isomorph-free
    exhaustive generation", 1998).  Sorted sequences of one length
    compare as their counts of value 0, 1, ... in turn, more first, so a
    sequence is keyed by its counts as digits, one digit per value.  Each
    order has a byte-aligned field of one int, identity first, holding a
    guard bit plus the sequence's own key less its image's, so the guard
    stays set exactly when the image is no lower.  An image of a prefix
    that sorts lower gives lower images of all its extensions (Read's
    prefix property), so the depth-first walk drops the prefix, and it
    stops a branch once too few values are left.
    """
    orders = list(itertools.permutations(range(bits)))
    if not length:
        yield [], len(orders)
        return
    types = 1 << bits
    width = 1 if distinct else length.bit_length()  # a count digit
    nbytes = width * types // 8 + 1  # per field, the guard bit on top
    # images[x][i] is the image of x under order i, bit j going to bit p[j]
    images = [[0] * len(orders)]
    for j in range(bits):
        low = [1 << p[j] for p in orders]
        images += [list(map(operator.or_, img, low)) for img in images]
    digit = [(1 << width * (types - 1 - y)).to_bytes(nbytes, "little") for y in range(types)]

    def pack(values):  # field i holds the key digit of values[i]
        return int.from_bytes(b"".join(map(digit.__getitem__, values)), "little")
    deltas = [pack([x] * len(orders)) - pack(img) for x, img in enumerate(images)]
    ones = pack([types - 1] * len(orders))
    guards = ones << (8 * nbytes - 1)
    last = length - 1
    step = 1 if distinct else 0  # a set's value at depth d leaves room for last - d more
    ends = [types - step * (last - d) for d in range(length)]
    # the prefix tested is seq[:depth] + [x], and sums[d] holds the fields of seq[:d]
    seq, sums = [0] * length, [guards] * length
    depth = x = 0
    while True:
        if x == ends[depth]:
            depth -= 1
            if depth < 0:
                return
            x = seq[depth] + 1
            continue
        fields = sums[depth] + deltas[x]
        if fields & guards != guards:
            yield seq, 0
            x += 1
            continue
        seq[depth] = x
        if depth < last:
            depth += 1
            sums[depth] = fields
            x += step
            continue
        x += 1
        # a field is the bare guard exactly when its image ties
        yield seq, len(orders) - (((fields ^ guards) | guards) - ones & guards).bit_count()


def _floor_profiles(n: int, size: int) -> Iterator[Tuple[int, int]]:
    """Families of `size` distinct members on n elements by the columns
    view of `_orderly`: each class yields (labeled copies, canonical form
    if maximal, else 0), and any other yield is (0, 0).  Coordinate i has
    type x when bit j of x says whether i lies in member j, so a family
    up to relabeling is a multiset of n types, its classmates are its
    images under the size! member orders, and a class has
    n! / (prod of count! * |stab|) labeled copies.  The all-ones type
    marks the common elements.  The empty columns are placed at the top,
    so the canonical form permutes only the support.
    """
    types = 1 << size
    # a type's column of every member, member j at bit n * j
    columns = [sum((x >> j & 1) << n * j for j in range(size)) for x in range(types)]
    ground = full_mask(n)
    fact = [math.factorial(i) for i in range(n + 1)]
    for profile, stab in _orderly(n, size, False):
        if stab:
            placed = sorted(profile, key=int.bit_count, reverse=True)
            rows = sum(columns[t] << i for i, t in enumerate(placed))
            members = {rows >> n * j & ground for j in range(size)}
            if len(members) == size:
                copies = fact[n] // stab
                for t in set(profile):
                    copies //= fact[profile.count(t)]
                maximal = _floor_maximal(n, size, profile.count(types - 1))
                bm = sum(1 << m for m in members) if maximal else 0
                yield copies, bm and _min_relabeling(bm, (bm.bit_length() - 1).bit_length())
                continue
        yield 0, 0


def _floor_rows(n: int, size: int) -> Iterator[Tuple[int, int]]:
    """The yields of `_floor_profiles` by the rows view of `_orderly`: a
    family is a set of `size` masks with n! / |stab| labeled copies, its
    images under the relabelings.  A set of over 2^(n - 1) masks has no
    common element and is walked as its complement, of equal stabilizer.
    No kept set has a used coordinate above an empty one (exchanging the
    two lowers every member that moves), so forms permute the support.
    """
    flip = size > 1 << (n - 1)
    every = family_full_bitmap(n) if flip else 0
    fact = math.factorial(n)
    for masks, stab in _orderly(min(size, (1 << n) - size), n, True):
        if not stab:
            yield 0, 0
            continue
        maximal = flip or _floor_maximal(n, size, reduce(operator.and_, masks).bit_count())
        bm = sum(1 << m for m in masks) ^ every if maximal else 0
        yield fact // stab, bm and _min_relabeling(bm, (bm.bit_length() - 1).bit_length())


def enumerate_maximal_families(n: int, k: int, mode: KwiseMode) -> List[SetFamily]:
    """Every maximal k-wise intersecting family on n elements, n small.

    Families with fewer than k members are filtered by the naive oracle,
    from the smallest size that can be maximal; the rest are upward
    closed, so filtering the up-set listing completes the search.
    """
    if n > MAX_ORACLE_GROUND:
        raise ValueError(f"exhaustive enumeration capped at n={MAX_ORACLE_GROUND}, got {n}")
    _check_k(k)
    _check_mode(mode)
    results = [
        SetFamily(n, sum(1 << m for m in combo))
        for size in range(_first_below_k_size(n, k, mode), min(k, (1 << n) + 1))
        for combo in itertools.combinations(range(1 << n), size)
        if _naive_is_maximal(n, list(combo), k, mode)
    ]
    for bm in enumerate_upsets(n):
        if bm.bit_count() < k:
            continue
        if ReachState.of(SetFamily(n, bm), k, mode).maximal():
            results.append(SetFamily(n, bm))
    return results


@dataclass(frozen=True)
class SearchConfig:
    n: int
    k: int
    mode: KwiseMode = KwiseMode.DISTINCT
    budget: float = 60.0

    def __post_init__(self):
        check_ground(self.n)
        if self.n > MAX_SEARCH_GROUND:
            raise ValueError(f"search capped at n={MAX_SEARCH_GROUND}, got {self.n}")
        _check_k(self.k)
        _check_mode(self.mode)
        budget = self.budget
        if (
            isinstance(budget, bool)
            or not isinstance(budget, numbers.Real)
            or not math.isfinite(budget)
            or budget <= 0
        ):
            raise ValueError(f"budget must be a positive finite number, got {budget!r}")


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a minimum-size search.

    f_value is the minimum, which always equals lower_bound, even when the
    budget ran out: the floor always holds a maximal family, the empty set
    with floor - 1 other masks, so the below-k rule proves the minimum and
    the walk only lists its classes.  Witnesses are canonical forms,
    pairwise non-isomorphic, sorted by bitmap; matched_linked_cubes aligns
    with them and flags isomorphism to the balanced linked-cubes family.
    nodes_explored counts the labeled floor families the walk decided.
    When optimal is False the walk was cut short and may miss classes.
    """

    f_value: int
    witnesses: Tuple[SetFamily, ...]
    matched_linked_cubes: Tuple[bool, ...]
    nodes_explored: int
    elapsed: float
    optimal: bool
    lower_bound: int


def search_min(config: SearchConfig) -> SearchReport:
    """Exact minimum size of a maximal k-wise intersecting family, with witnesses.

    Decides the families below the distinctness threshold by their common
    intersection; the floor always holds a maximal one, so the minimum is
    the floor and the witnesses are the canonical forms of the floor's
    maximal families.  One orderly walk lists the floor's classes, in the
    view that permutes the shorter side: the floor! member orders of
    column profiles below floor n, else the n! relabelings of row sets.
    Either yields (labeled families decided, canonical form or 0), so a
    complete run counts C(2^n, floor).  The budget is read every 256
    yields and after each form; a run it cuts short is flagged
    non-optimal and its witness list may miss classes.
    """
    start = time.monotonic()
    deadline = start + config.budget
    n, k, mode = config.n, config.k, config.mode
    floor = _first_below_k_size(n, k, mode)
    nodes = 0
    forms: List[int] = []
    interrupted = False
    walk = _floor_profiles(n, floor) if floor < n else _floor_rows(n, floor)
    for seen, (copies, form) in enumerate(walk, 1):
        if (form or seen & 255 == 0) and time.monotonic() > deadline:
            interrupted = True
            break
        nodes += copies
        if form:
            forms.append(form)

    witnesses = tuple(SetFamily(n, bm) for bm in sorted(forms))
    matched = (False,) * len(witnesses)
    # isomorphic families have equal sizes, so the linked cubes can only
    # match when the minimum is their size
    if n >= 2 and floor == linked_cubes_size(n, n // 2):
        target = canonical_form(linked_cubes(n, balanced_block(n))).bitmap
        matched = tuple(w.bitmap == target for w in witnesses)
    return SearchReport(
        f_value=floor,
        witnesses=witnesses,
        matched_linked_cubes=matched,
        nodes_explored=nodes,
        elapsed=time.monotonic() - start,
        optimal=not interrupted,
        lower_bound=floor,  # no smaller family is maximal, by the rule
    )


def _naive_is_kwise(members: List[int], k: int, mode: KwiseMode) -> bool:
    if mode is KwiseMode.DISTINCT:
        return len(members) < k or all(
            reduce(operator.and_, combo) != 0
            for combo in itertools.combinations(members, k)
        )
    top = min(k, len(members))
    return all(
        reduce(operator.and_, combo) != 0
        for j in range(2, top + 1)
        for combo in itertools.combinations(members, j)
    )


def _naive_addable(members: List[int], g: int, k: int, mode: KwiseMode) -> bool:
    """Whether the family stays k-wise intersecting after adding g.

    Assumes the family itself already passes, so only collections through
    g need checking.
    """
    if mode is KwiseMode.DISTINCT:
        return len(members) < k - 1 or all(
            reduce(operator.and_, combo) & g != 0
            for combo in itertools.combinations(members, k - 1)
        )
    return all(
        reduce(operator.and_, combo) & g != 0
        for j in range(1, min(k - 1, len(members)) + 1)
        for combo in itertools.combinations(members, j)
    )


def _naive_is_maximal(n: int, members: List[int], k: int, mode: KwiseMode) -> bool:
    if not _naive_is_kwise(members, k, mode):
        return False
    member_set = set(members)
    return not any(
        _naive_addable(members, g, k, mode)
        for g in range(1 << n)
        if g not in member_set
    )


def oracle_min(n: int, k: int, mode: KwiseMode = KwiseMode.DISTINCT) -> int:
    """Reference minimum computed from first principles; test use only.

    Scans all families in ascending size and returns the size of the first
    maximal one, relying on no structure theorem.  At n = 5 the scan ends
    by size k - 1: the empty set with k - 2 other masks is maximal, and with
    repetition the empty set alone is.
    """
    check_ground(n)
    if n > MAX_ORACLE_GROUND:
        raise ValueError(f"oracle capped at n={MAX_ORACLE_GROUND}, got {n}")
    _check_k(k)
    _check_mode(mode)
    count = 1 << n
    for size in range(1, count + 1):
        for combo in itertools.combinations(range(count), size):
            if _naive_is_maximal(n, list(combo), k, mode):
                return size
    raise RuntimeError("no maximal family found")


def partition_relative_to_cubes(
    g: SetFamily, s: int
) -> Tuple[SetFamily, SetFamily, SetFamily]:
    """Split a family into the parts inside, opposite, and outside a cube pair.

    Returns (inside s, inside the complement of s, outside both cubes),
    where the first two parts keep only masks strictly between the empty
    set and the block.  Members equal to s, its complement, or the empty
    set fall in no part.
    """
    n = g.n
    check_mask(s, n)
    sc = mask_complement(s, n)
    cube_s = cube_bits(s)
    cube_sc = cube_bits(sc)
    g1 = g.bitmap & cube_s & ~1 & ~(1 << s)
    g2 = g.bitmap & cube_sc & ~1 & ~(1 << sc)
    g3 = g.bitmap & ~(cube_s | cube_sc)
    assert g1 & g2 == 0 and (g1 | g2) & g3 == 0
    if not (g.bitmap >> s) & 1 and not (g.bitmap >> sc) & 1:
        assert g1 | g2 | g3 | (g.bitmap & 1) == g.bitmap
    return SetFamily(n, g1), SetFamily(n, g2), SetFamily(n, g3)


def product_bound_terms(
    g1_size: int, g2_size: int, g3_size: int, ell: int, eps: Fraction
) -> Tuple[Fraction, int]:
    """Both sides of the product bound on the three-way partition counts.

    Left side g1*g2 + g3*eps*2^ell, right side (2^ell - 2)(2^(ell+1) - 2).
    Under the audit hypotheses the bound holds with equality exactly when
    the outside part is empty.  The sizes and ell must be ints >= 0.
    """
    for name, value in dict(g1_size=g1_size, g2_size=g2_size, g3_size=g3_size, ell=ell).items():
        if type(value) is not int or value < 0:
            raise ValueError(f"{name} must be an int >= 0, got {value!r}")
    eps = _exact_eps(eps)
    lhs = Fraction(g1_size * g2_size) + g3_size * eps * (1 << ell)
    rhs = ((1 << ell) - 2) * ((1 << (ell + 1)) - 2)
    return lhs, rhs


@dataclass(frozen=True)
class ClaimCountsReport:
    """Exact counting audit of a maximal 3-wise family against a cube split.

    The audited chain: the number of masks outside both the family and the
    cube pair is bounded by the pair-decomposition count pair_bound, which
    in turn is bounded by the closed-form product_bound.  Verdicts are
    meaningful only when hypotheses_met is True (the complement family
    sits within eps*2^ell of the cube pair).
    """

    ell: int
    family_size: int
    cube_pair_size: int
    g1_size: int
    g2_size: int
    g3_size: int
    sym_diff_size: int
    hypotheses_met: bool
    outside_count: int
    chain_lower: int
    pair_bound: Fraction
    pair_bound_holds: bool
    product_bound: int
    product_bound_holds: bool
    product_bound_equality: bool
    g3_empty: bool


def audit_claim_counts(family: SetFamily, s: int, eps) -> ClaimCountsReport:
    """Audit the exact counting chain for a maximal 3-wise family.

    Builds the complement family, partitions it against the cube pair on
    s, and evaluates both counting bounds with exact rational arithmetic.
    Requires odd n and a family that is maximal 3-wise intersecting.
    """
    n = family.n
    if n % 2 == 0:
        raise ValueError("audit requires an odd ground size")
    check_mask(s, n)
    if s in (0, full_mask(n)):
        raise ValueError("split block must be a proper nonempty subset")
    eps = _exact_eps(eps)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if not ReachState.of(family, 3).maximal():
        raise ValueError("family must be maximal 3-wise intersecting")
    ell = (n - 1) // 2
    g = complement_family(family)
    f0 = pair_of_cubes(n, s)
    g1, g2, g3 = partition_relative_to_cubes(g, s)
    sym_diff = symmetric_difference_count(g, f0)
    hypotheses_met = Fraction(sym_diff) <= eps * (1 << ell)
    outside = (
        family_full_bitmap(n) & ~(family.bitmap | f0.bitmap)
    ).bit_count()
    pair_bound, product_bound = product_bound_terms(
        len(g1), len(g2), len(g3), ell, eps
    )
    chain_lower = (1 << (2 * ell + 1)) - (3 * (1 << ell) - 1) - len(family)
    return ClaimCountsReport(
        ell=ell,
        family_size=len(family),
        cube_pair_size=len(f0),
        g1_size=len(g1),
        g2_size=len(g2),
        g3_size=len(g3),
        sym_diff_size=sym_diff,
        hypotheses_met=hypotheses_met,
        outside_count=outside,
        chain_lower=chain_lower,
        pair_bound=pair_bound,
        pair_bound_holds=Fraction(outside) <= pair_bound,
        product_bound=product_bound,
        product_bound_holds=pair_bound <= product_bound,
        product_bound_equality=pair_bound == product_bound,
        g3_empty=len(g3) == 0,
    )
