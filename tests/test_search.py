"""Canonicalization, exhaustive enumeration, minimum search, count audits."""

import hashlib
import itertools
import random
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kwise import (
    ClaimCountsReport,
    KwiseMode,
    SearchConfig,
    SetFamily,
    audit_claim_counts,
    balanced_block,
    canonical_form,
    complement_family,
    cube_bits,
    enumerate_maximal_families,
    enumerate_upsets,
    full_mask,
    linked_cubes,
    oracle_min,
    partition_relative_to_cubes,
    product_bound_terms,
    search_min,
    supercube_bits,
    up_close_bits,
)
from kwise.search import (
    _below_k_maximal,
    _least_relabeling,
    _naive_is_maximal,
    _relabelings,
)

DISTINCT = KwiseMode.DISTINCT
REPETITION = KwiseMode.WITH_REPETITION


def relabel(family, perm):
    """Apply a coordinate permutation given as a tuple of images of 0..n-1."""
    masks = []
    for m in family:
        out = 0
        for i in range(family.n):
            if (m >> i) & 1:
                out |= 1 << perm[i]
        masks.append(out)
    return SetFamily.from_masks(family.n, masks)


# -------------------------------------------------- canonical forms


@given(
    st.integers(min_value=0, max_value=(1 << 16) - 1),
    st.permutations(range(4)),
)
@settings(deadline=None, max_examples=60)
def test_canonical_form_is_relabeling_invariant(bm, perm):
    fam = SetFamily(4, bm)
    assert canonical_form(fam) == canonical_form(relabel(fam, tuple(perm)))


def test_canonical_form_idempotent_and_separating():
    two_block = canonical_form(linked_cubes(5, 0b00011))
    assert canonical_form(two_block) == two_block
    assert two_block == canonical_form(linked_cubes(5, 0b11000))
    assert two_block != canonical_form(linked_cubes(5, 0b00001))


def brute_canonical(family):
    return min(
        (relabel(family, perm) for perm in itertools.permutations(range(family.n))),
        key=lambda fam: fam.bitmap,
    )


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))
    )
)
@example((1, 0b01))
@example((1, 0b10))
@example((1, 0b11))
@example((4, 0))
@example((4, (1 << 16) - 1))
@example((5, (1 << 32) - 1))
@settings(deadline=None, max_examples=60)
def test_canonical_form_is_least_relabeling(case):
    n, bm = case
    fam = SetFamily(n, bm)
    assert canonical_form(fam) == brute_canonical(fam)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_relabelings_are_the_permuted_copies(n):
    """Swap by swap, the scan yields each relabeling once per coordinate
    permutation, for random, empty and full families."""
    rng = random.Random(n)
    full = (1 << (1 << n)) - 1
    for bm in [0, full] + [rng.getrandbits(1 << n) for _ in range(6)]:
        fam = SetFamily(n, bm)
        want = sorted(
            relabel(fam, perm).bitmap for perm in itertools.permutations(range(n))
        )
        assert sorted(_relabelings(bm, n)) == want


@pytest.mark.parametrize(
    "fam",
    [
        SetFamily(6, 1 | 1 << full_mask(6)),
        SetFamily(6, supercube_bits(0b000100, 6)),
        linked_cubes(6, balanced_block(6)),
    ],
    ids=["empty-and-full", "star", "linked-cubes"],
)
def test_canonical_form_of_symmetric_families(fam):
    """Many relabelings of these families tie; the least is still the brute-force one."""
    assert canonical_form(fam) == brute_canonical(fam)


def strike_off(n, found):
    """The witness strike-off of search_min: one scan per class not yet seen."""
    seen = set()
    return [_least_relabeling(n, bm, seen) for bm in found if bm not in seen]


@pytest.mark.parametrize("seed", range(12))
def test_strike_off_gives_one_form_per_class(seed):
    """Labeled copies of a few classes, shuffled, reduce to exactly the
    brute-force canonical forms, one per class."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    found = []
    for _ in range(rng.randint(1, 4)):
        fam = SetFamily(n, rng.getrandbits(1 << n))
        for _ in range(rng.randint(1, 5)):
            found.append(relabel(fam, tuple(rng.sample(range(n), n))).bitmap)
    rng.shuffle(found)
    want = {brute_canonical(SetFamily(n, bm)).bitmap for bm in found}
    forms = strike_off(n, found)
    assert len(forms) == len(want)
    assert set(forms) == want


def test_scan_strikes_off_every_relabeling():
    """After a scan, seen holds every relabeling of the scanned bitmap and
    no bitmap of another class."""
    n = 4
    fam = SetFamily.from_masks(n, [0b0001, 0b0011, 0b0111])
    other = SetFamily.from_masks(n, [0b0001, 0b0010, 0b0111])
    assert canonical_form(fam) != canonical_form(other)
    perms = list(itertools.permutations(range(n)))
    copies = {relabel(fam, perm).bitmap for perm in perms}
    others = {relabel(other, perm).bitmap for perm in perms}
    seen = set()
    assert _least_relabeling(n, fam.bitmap, seen) == canonical_form(fam).bitmap
    assert seen == copies
    assert not seen & others


def test_canonical_form_cap():
    with pytest.raises(ValueError):
        canonical_form(SetFamily(11, 1))


# --------------------------------------------------- enumerations


def test_upset_counts_match_known_lattice_sizes():
    for n, want in [(1, 3), (2, 6), (3, 20), (4, 168), (5, 7581)]:
        ups = enumerate_upsets(n)
        assert len(ups) == want
        assert len(set(ups)) == want
        assert all(up_close_bits(bm, n) == bm for bm in ups)
    with pytest.raises(ValueError):
        enumerate_upsets(6)


@pytest.mark.parametrize("mode", [DISTINCT, REPETITION])
@pytest.mark.parametrize("k", [2, 3])
def test_enumerate_maximal_complete_at_n3(k, mode):
    got = {fam.bitmap for fam in enumerate_maximal_families(3, k, mode)}
    want = {
        bm
        for bm in range(1, 1 << 8)
        if _naive_is_maximal(3, list(SetFamily(3, bm)), k, mode)
    }
    assert got == want


@pytest.mark.parametrize("mode", [DISTINCT, REPETITION])
@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3, 4) for k in (2, 3, 4, 5)])
def test_below_k_scan_matches_naive_filter(n, k, mode):
    """The common-intersection rule decides every family of fewer than k
    members as the naive oracle does, by size.  A combination the
    generator leaves out counts as a non-maximal verdict."""
    got = list(_below_k_maximal(n, k, mode))
    assert [size for size, _ in got] == sorted(size for size, _ in got)
    maximal = [bm for _, bm in got if bm]
    assert len(set(maximal)) == len(maximal)
    for size in range(1, min(k, (1 << n) + 1)):
        for combo in itertools.combinations(range(1 << n), size):
            bm = sum(1 << m for m in combo)
            assert (bm in maximal) == _naive_is_maximal(n, list(combo), k, mode), combo


# ------------------------------------------------- minimum search


@pytest.mark.parametrize("mode", [DISTINCT, REPETITION])
@pytest.mark.parametrize(
    "n,k", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3)]
)
def test_search_matches_oracle(n, k, mode):
    report = search_min(SearchConfig(n=n, k=k, mode=mode))
    assert report.optimal
    assert report.f_value == oracle_min(n, k, mode)
    assert report.lower_bound == report.f_value
    assert len(report.witnesses) == len(report.matched_linked_cubes)
    for w in report.witnesses:
        assert canonical_form(w) == w
        assert _naive_is_maximal(n, list(w), k, mode)


def test_search_witness_classes_are_disjoint_pairs():
    """For k = 3 the minimum is 2 and the classes are exactly the disjoint
    pairs (a, b) with |a| <= |b|, counted by size profile."""
    for n, want in [(3, 5), (5, 11)]:
        report = search_min(SearchConfig(n=n, k=3))
        assert report.f_value == 2
        assert len(report.witnesses) == want
        profiles = set()
        for w in report.witnesses:
            a, b = sorted(w, key=lambda m: m.bit_count())
            assert a & b == 0
            profiles.add((a.bit_count(), b.bit_count()))
        assert len(profiles) == want


@pytest.mark.parametrize(
    "n,k,mode",
    [(n, k, mode) for n in (1, 2, 3, 4) for k in (2, 3, 4) for mode in (DISTINCT, REPETITION)]
    + [(5, 3, DISTINCT), (5, 4, DISTINCT)],
)
def test_search_witnesses_match_enumeration(n, k, mode):
    """One canonical form per class of the minimum families, against the
    exhaustive listing canonicalised family by family."""
    families = enumerate_maximal_families(n, k, mode)
    f = min(len(fam) for fam in families)
    want = sorted({canonical_form(fam).bitmap for fam in families if len(fam) == f})
    report = search_min(SearchConfig(n=n, k=k, mode=mode))
    assert report.f_value == f
    assert [w.bitmap for w in report.witnesses] == want


def _witness_digest(report):
    text = ",".join(str(w.bitmap) for w in report.witnesses)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@pytest.mark.parametrize(
    "n,k,mode,f,two_stage_nodes,lower_bound,classes,digest",
    [
        (1, 2, DISTINCT, 1, 7, 1, 2, "17f8af97ad4a"),
        (1, 2, REPETITION, 1, 7, 1, 2, "17f8af97ad4a"),
        (1, 3, DISTINCT, 2, 8, 2, 1, "4e07408562be"),
        (1, 3, REPETITION, 1, 7, 1, 2, "17f8af97ad4a"),
        (1, 4, DISTINCT, 2, 8, 2, 1, "4e07408562be"),
        (1, 4, REPETITION, 1, 7, 1, 2, "17f8af97ad4a"),
        (1, 5, DISTINCT, 2, 8, 2, 1, "4e07408562be"),
        (1, 5, REPETITION, 1, 7, 1, 2, "17f8af97ad4a"),
        (2, 2, DISTINCT, 1, 13, 1, 1, "6b86b273ff34"),
        (2, 2, REPETITION, 1, 13, 1, 1, "6b86b273ff34"),
        (2, 3, DISTINCT, 2, 22, 2, 4, "afa538892956"),
        (2, 3, REPETITION, 1, 13, 1, 1, "6b86b273ff34"),
        (2, 4, DISTINCT, 3, 26, 3, 3, "19c36628a174"),
        (2, 4, REPETITION, 1, 13, 1, 1, "6b86b273ff34"),
        (2, 5, DISTINCT, 4, 27, 4, 1, "e629fa6598d7"),
        (2, 5, REPETITION, 1, 13, 1, 1, "6b86b273ff34"),
        (3, 2, DISTINCT, 1, 25, 1, 1, "6b86b273ff34"),
        (3, 2, REPETITION, 1, 25, 1, 1, "6b86b273ff34"),
        (3, 3, DISTINCT, 2, 67, 2, 5, "afa444052e13"),
        (3, 3, REPETITION, 1, 25, 1, 1, "6b86b273ff34"),
        (3, 4, DISTINCT, 3, 131, 3, 13, "280e46e3503b"),
        (3, 4, REPETITION, 1, 25, 1, 1, "6b86b273ff34"),
        (3, 5, DISTINCT, 4, 203, 4, 20, "eb4fceb75c80"),
        (3, 5, REPETITION, 1, 25, 1, 1, "6b86b273ff34"),
        (4, 2, DISTINCT, 1, 49, 1, 1, "6b86b273ff34"),
        (4, 2, REPETITION, 1, 49, 1, 1, "6b86b273ff34"),
        (4, 3, DISTINCT, 2, 214, 2, 8, "b4d2bb0c99dd"),
        (4, 3, REPETITION, 1, 49, 1, 1, "6b86b273ff34"),
        (4, 4, DISTINCT, 3, 822, 3, 36, "2c16ee1fd77c"),
        (4, 4, REPETITION, 1, 49, 1, 1, "6b86b273ff34"),
        (4, 5, DISTINCT, 4, 2683, 4, 116, "e2c1e9bf02c6"),
        (4, 5, REPETITION, 1, 49, 1, 1, "6b86b273ff34"),
        (5, 2, DISTINCT, 1, 97, 1, 1, "6b86b273ff34"),
        (5, 2, REPETITION, 1, 97, 1, 1, "6b86b273ff34"),
        (5, 3, DISTINCT, 2, 717, 2, 11, "d5a57d22579f"),
        (5, 3, REPETITION, 1, 97, 1, 1, "6b86b273ff34"),
        (5, 4, DISTINCT, 3, 5873, 3, 82, "600b494acc0c"),
        (5, 4, REPETITION, 1, 97, 1, 1, "6b86b273ff34"),
        (5, 5, DISTINCT, 4, 42097, 4, 489, "31468a4af4b9"),
        (5, 5, REPETITION, 1, 97, 1, 1, "6b86b273ff34"),
        (6, 3, DISTINCT, 2, 2524, 2, 15, "0303e0a39ec6"),
        (6, 4, DISTINCT, 3, 44860, 3, 168, "eca2fb098810"),
        (7, 3, DISTINCT, 2, 9275, 2, 19, "89078c930799"),
    ],
)
def test_search_min_pinned_results(n, k, mode, f, two_stage_nodes, lower_bound, classes, digest):
    """f, bounds and a digest of the sorted witness bitmaps: a change to the
    below-k scan or to canonicalisation shows up here.  The node count is
    every combination of f members, which never exceeds the pinned count
    of the scan plus the branch and bound that once followed it."""
    report = search_min(SearchConfig(n=n, k=k, mode=mode, budget=600))
    assert report.optimal
    assert (report.f_value, report.lower_bound) == (f, lower_bound)
    assert report.nodes_explored == comb(2**n, f)
    assert report.nodes_explored <= two_stage_nodes
    assert (len(report.witnesses), _witness_digest(report)) == (classes, digest)


def test_search_budget_interruption():
    report = search_min(SearchConfig(n=7, k=3, budget=1e-9))
    assert not report.optimal
    assert report.f_value == 2
    assert report.lower_bound == 2
    assert report.elapsed < 5


@pytest.mark.parametrize("n,k", [(7, 200), (6, 80)])
def test_search_with_k_above_the_ground_count_finishes(n, k):
    # k - 1 exceeds 2^n, so the floor is the family of every set: one
    # combination to check, not a walk over up-sets until the budget ends
    report = search_min(SearchConfig(n=n, k=k, budget=5))
    assert (report.f_value, report.lower_bound) == (1 << n, 1 << n)
    assert report.optimal and report.nodes_explored == 1
    assert report.elapsed < 1


def test_search_budget_covers_the_witness_strike_off():
    # (6, 5) scans 635,376 four-member families; every labeled witness
    # found before the deadline is canonicalised before the report returns
    budget = 0.2
    report = search_min(SearchConfig(n=6, k=5, budget=budget))
    assert not report.optimal
    assert report.elapsed < budget + 0.25


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n=8, k=3)
    with pytest.raises(ValueError):
        SearchConfig(n=True, k=3)
    with pytest.raises(ValueError):
        SearchConfig(n=3, k=1)
    for budget in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SearchConfig(n=3, k=3, budget=budget)
    with pytest.raises(ValueError):
        SearchConfig(n=3, k=3, mode="distinct")
    with pytest.raises(ValueError):
        oracle_min(6, 3)
    # a family of fewer than k members passes the oracle without listing
    # k-member collections
    assert oracle_min(3, 10**9) == 8
    assert oracle_min(3, 10**9, REPETITION) == 1


# -------------------------------------------------- cube-split audit


def test_partition_relative_to_cubes_star_complement():
    star = SetFamily(5, supercube_bits(0b00001, 5))
    comp = complement_family(star)  # the cube on {2,3,4,5}
    g1, g2, g3 = partition_relative_to_cubes(comp, 0b00011)
    assert g1.member_list() == [0b00010]
    assert len(g2) == 6
    # 16 members: the empty set, the block {3,4,5} itself, g1, g2, and g3
    assert len(g3) == 7
    assert 0b00110 in g3


@given(
    st.integers(min_value=0, max_value=(1 << 16) - 1),
    st.integers(min_value=1, max_value=14),
)
@settings(deadline=None, max_examples=60)
def test_partition_reconstructs_family(bm, s):
    fam = SetFamily(4, bm)
    g1, g2, g3 = partition_relative_to_cubes(fam, s)
    sc = s ^ full_mask(4)
    kept = 1 | (1 << s) | (1 << sc)
    assert g1.bitmap | g2.bitmap | g3.bitmap | (bm & kept) == bm
    assert g1.bitmap & ~cube_bits(s) == 0
    assert g2.bitmap & ~cube_bits(sc) == 0
    assert g3.bitmap & (cube_bits(s) | cube_bits(sc)) == 0


def test_product_bound_terms_directions():
    # equality exactly at the extremal counts with empty outside part
    lhs, rhs = product_bound_terms(14, 30, 0, 4, Fraction(1, 8))
    assert lhs == rhs == 420
    # a nonempty outside part pulls the left side strictly below
    lhs, rhs = product_bound_terms(13, 30, 1, 4, Fraction(1, 8))
    assert lhs == Fraction(392) and rhs == 420 and lhs < rhs
    # and inflated counts violate the bound, so the check is two sided
    lhs, rhs = product_bound_terms(15, 30, 0, 4, Fraction(1, 8))
    assert lhs > rhs


def test_audit_linked_cubes_n9():
    fam = linked_cubes(9, balanced_block(9))
    report = audit_claim_counts(fam, balanced_block(9), Fraction(1, 8))
    assert isinstance(report, ClaimCountsReport)
    assert report.ell == 4
    assert report.family_size == 45
    assert report.cube_pair_size == 47
    assert (report.g1_size, report.g2_size, report.g3_size) == (14, 30, 0)
    assert report.sym_diff_size == 2
    assert report.hypotheses_met
    assert report.outside_count == 420
    assert report.chain_lower == 420
    assert report.pair_bound == 420
    assert report.product_bound == 420
    assert report.pair_bound_holds and report.product_bound_holds
    assert report.product_bound_equality and report.g3_empty


def test_audit_linked_cubes_n7():
    fam = linked_cubes(7, balanced_block(7))
    # the symmetric difference is always 2, so eps*2^ell must reach 2;
    # at ell = 3 that takes eps = 1/4 where n = 9 already passes at 1/8
    tight = audit_claim_counts(fam, balanced_block(7), Fraction(1, 8))
    assert not tight.hypotheses_met
    report = audit_claim_counts(fam, balanced_block(7), Fraction(1, 4))
    assert report.hypotheses_met
    assert report.family_size == 21
    assert report.cube_pair_size == 23
    assert report.chain_lower == 84
    assert report.outside_count == 84
    assert report.product_bound == (6) * (14)
    assert report.product_bound_equality and report.g3_empty


def test_audit_star_misses_hypotheses():
    star = SetFamily(5, supercube_bits(0b00001, 5))
    report = audit_claim_counts(star, 0b00011, Fraction(1, 8))
    assert not report.hypotheses_met
    assert report.g3_size == 7
    assert not report.g3_empty


def test_audit_validation():
    with pytest.raises(ValueError):
        audit_claim_counts(SetFamily(4, 1), 0b0011, Fraction(1, 8))
    fam = linked_cubes(5, 0b00011)
    with pytest.raises(ValueError):
        audit_claim_counts(fam, 0, Fraction(1, 8))
    with pytest.raises(ValueError):
        audit_claim_counts(fam, full_mask(5), Fraction(1, 8))
    with pytest.raises(ValueError):
        audit_claim_counts(fam, 0b00011, Fraction(-1, 8))
    huge_exponents = ("1e1000", "1E-0_999999999", Decimal("1e3000000"))
    for eps in (float("inf"), float("-inf"), "1/0", *huge_exponents):
        with pytest.raises(ValueError, match="eps"):
            audit_claim_counts(fam, 0b00011, eps)
    assert audit_claim_counts(fam, 0b00011, "1e-999").eps == Fraction(1, 10**999)
    with pytest.raises(ValueError):
        audit_claim_counts(SetFamily.from_masks(5, [0]), 0b00011, Fraction(1, 8))
