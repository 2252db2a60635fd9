"""Minimum-size search over maximal k-wise intersecting families.

search_min answers, exactly, how small a maximal k-wise intersecting
family on n elements can be.  Families below the distinctness threshold
(fewer than k members) are decided by their common intersection, as
core.ReachState decides them.  The smallest size that can be maximal
there, the floor, always is, so the floor is the minimum, and the
witnesses are the canonical forms of the floor's maximal families.  An
oracle built from first principles re-derives the answer at tiny n.

The second half of the module holds the counting tools used to audit
size bounds around a paired-cube split: the three-way partition of a
family against the split and the exact bound arithmetic.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterator, List, Optional, Set, Tuple

from .bitops import (
    _relabelings,
    check_ground,
    check_mask,
    cube_bits,
    family_full_bitmap,
    full_mask,
    iter_bits,
    mask_complement,
)
from .constructions import balanced_block, linked_cubes, linked_cubes_size, pair_of_cubes
from .core import (
    KwiseMode,
    ReachState,
    SetFamily,
    _check_k,
    _exact_eps,
    complement_family,
    symmetric_difference_count,
)

MAX_SEARCH_GROUND = 7
MAX_ORACLE_GROUND = 5
MAX_UPSET_GROUND = 5
MAX_CANONICAL_GROUND = 10


def canonical_form(family: SetFamily) -> SetFamily:
    """Least relabeling of the family over all coordinate permutations.

    Relabeled copies of a family share one canonical form, so equality of
    canonical forms decides isomorphism.  The form is the least of the n!
    bitmaps of the swap walk `bitops._relabelings`, so the scan is
    factorial in n and capped accordingly.
    """
    n = family.n
    if n > MAX_CANONICAL_GROUND:
        raise ValueError(f"canonical form capped at n={MAX_CANONICAL_GROUND}, got {n}")
    return SetFamily(n, min(_relabelings(family.bitmap, n)))


def _least_relabeling(n: int, bitmap: int, seen: Set[int]) -> int:
    """Least bitmap among the n! relabelings of a family bitmap, for the
    witness strike-off of search_min.

    Every relabeling the walk meets is also added to seen, so a caller
    meeting many labeled copies of a few classes scans each class once.
    """
    copies = set(_relabelings(bitmap, n))
    seen |= copies
    return min(copies)


def enumerate_upsets(n: int) -> List[int]:
    """Bitmaps of every upward-closed family on n elements.

    Splitting on the top element writes each up-set as a low half L and a
    high half H, both up-sets one level down with L contained in H, so the
    counts follow the Dedekind numbers and the listing is exact.
    """
    check_ground(n)
    if n > MAX_UPSET_GROUND:
        raise ValueError(f"up-set enumeration capped at n={MAX_UPSET_GROUND}, got {n}")
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


def _below_k_maximal(n: int, k: int, mode: KwiseMode) -> Iterator[Tuple[int, int]]:
    """Families of fewer than k members from the smallest size that can be
    maximal, each as (size, bitmap if it is maximal, else 0).

    By the below-k rule of core.ReachState, the family is maximal when
    every non-member misses I, the AND of the members, and it passes
    itself: always in DISTINCT mode, with repetition at one member or I != 0.
    Every member contains I, so for I != 0 the first condition says the
    family is all 2^n - 2^(n - |I|) sets meeting I, which its size decides.
    """
    count = 1 << n
    distinct = mode is KwiseMode.DISTINCT
    for size in range(_first_below_k_size(n, k, mode), min(k, count + 1)):
        for combo in itertools.combinations(range(count), size):
            common = reduce(operator.and_, combo)
            maximal = (distinct or size == 1 or common) and (
                not common or size == count - (1 << (n - common.bit_count()))
            )
            yield size, sum(1 << m for m in combo) if maximal else 0


def enumerate_maximal_families(n: int, k: int, mode: KwiseMode) -> List[SetFamily]:
    """Every maximal k-wise intersecting family on n elements, n small.

    Families with fewer than k members follow from their common
    intersection; the rest are upward closed, so filtering the up-set
    listing completes the search.
    """
    if n > MAX_UPSET_GROUND:
        raise ValueError(f"exhaustive enumeration capped at n={MAX_UPSET_GROUND}, got {n}")
    results = [SetFamily(n, bm) for _, bm in _below_k_maximal(n, k, mode) if bm]
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
        if not isinstance(self.mode, KwiseMode):
            raise ValueError(f"mode must be a KwiseMode, got {self.mode!r}")
        if not math.isfinite(self.budget) or self.budget <= 0:
            raise ValueError(f"budget must be a positive finite number, got {self.budget!r}")


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a minimum-size search.

    f_value is the minimum, which always equals lower_bound, or None if the
    budget ran out before the scan met a maximal family.  Witnesses are
    canonical forms, pairwise non-isomorphic, sorted by bitmap;
    matched_linked_cubes aligns with them and flags isomorphism to the
    balanced linked-cubes family.  When optimal is False the scan was cut
    short, so the witness list may miss classes.
    """

    config: SearchConfig
    f_value: Optional[int]
    witnesses: Tuple[SetFamily, ...]
    matched_linked_cubes: Tuple[bool, ...]
    nodes_explored: int
    elapsed: float
    optimal: bool
    lower_bound: int

    @property
    def all_witnesses_linked_cubes(self) -> bool:
        return bool(self.witnesses) and all(self.matched_linked_cubes)


def search_min(config: SearchConfig) -> SearchReport:
    """Exact minimum size of a maximal k-wise intersecting family, with witnesses.

    Decides the families below the distinctness threshold by their common
    intersection; the floor always holds a maximal one, so the minimum is
    the floor and the witnesses are the canonical forms of the floor's
    maximal families.  nodes_explored counts the combinations the scan
    visited, C(2^n, floor) in a complete run.  A run cut short by the
    budget is flagged non-optimal and its witness list may miss classes.
    """
    start = time.monotonic()
    deadline = start + config.budget
    n, k, mode = config.n, config.k, config.mode
    floor = _first_below_k_size(n, k, mode)
    nodes = 0
    # one canonical form per class, each struck off when the scan first meets it
    forms: List[int] = []
    seen: Set[int] = set()
    interrupted = False
    for size, bm in _below_k_maximal(n, k, mode):
        if size > floor:
            break
        nodes += 1
        if nodes & 255 == 0 and time.monotonic() > deadline:
            interrupted = True
            break
        if bm and bm not in seen:
            forms.append(_least_relabeling(n, bm, seen))
    # the empty set and floor - 1 other masks are maximal: forms is empty
    # only when the budget ran out first
    best = floor if forms else None

    witnesses = tuple(SetFamily(n, bm) for bm in sorted(forms))
    matched = (False,) * len(witnesses)
    # isomorphic families have equal sizes, so the linked cubes can only
    # match when the minimum is their size
    if n >= 2 and best == linked_cubes_size(n, n // 2):
        target = canonical_form(linked_cubes(n, balanced_block(n))).bitmap
        matched = tuple(w.bitmap == target for w in witnesses)
    return SearchReport(
        config=config,
        f_value=best,
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


def _oracle_small_scan(n: int, k: int, mode: KwiseMode) -> Optional[int]:
    count = 1 << n
    for size in range(1, min(k, count + 1)):
        for combo in itertools.combinations(range(count), size):
            if _naive_is_maximal(n, list(combo), k, mode):
                return size
    return None


def _oracle_min_upsets(n: int, k: int, mode: KwiseMode) -> Optional[int]:
    best: Optional[int] = None
    for bm in enumerate_upsets(n):
        size = bm.bit_count()
        if size < k or (best is not None and size >= best):
            continue
        if _naive_is_maximal(n, list(iter_bits(bm)), k, mode):
            best = size
    return best


def oracle_min(n: int, k: int, mode: KwiseMode = KwiseMode.DISTINCT) -> int:
    """Reference minimum computed from first principles; test use only.

    Ground sizes up to 4 get a full filtration of all families in
    ascending size.  At n = 5 the direct scan stops at the distinctness
    threshold and the remaining candidates come from the up-set listing,
    which is sufficient because larger maximal families are upward closed.
    """
    check_ground(n)
    if n > MAX_ORACLE_GROUND:
        raise ValueError(f"oracle capped at n={MAX_ORACLE_GROUND}, got {n}")
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    count = 1 << n
    if n <= 4:
        for size in range(1, count + 1):
            for combo in itertools.combinations(range(count), size):
                if _naive_is_maximal(n, list(combo), k, mode):
                    return size
        raise RuntimeError("no maximal family found")
    small = _oracle_small_scan(n, k, mode)
    if small is not None:
        return small
    best = _oracle_min_upsets(n, k, mode)
    if best is None:
        raise RuntimeError("no maximal family found")
    return best


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
    the outside part is empty.
    """
    eps = Fraction(eps)
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

    n: int
    ell: int
    s: int
    eps: Fraction
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
        n=n,
        ell=ell,
        s=s,
        eps=eps,
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
