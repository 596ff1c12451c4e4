"""Families, quasi-smoothness, and the enumeration of all 95."""

import hashlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from wfano import golden
from wfano.census import (eliminating_monomial, is_terminal_family,
                          no_singular_curves, vertex_elimination_candidates,
                          vertex_singularity)
from wfano.exactmath import COORDS, _reduce_to_chart
from wfano.wps import (Family, UnknownSpecialMember, _eliminating_monomials,
                       _extend_mask, anticanonical_degree,
                       bare_weight_candidates, enumerate_families,
                       general_quasismooth, generic_member, hat_lcms,
                       is_wellformed, normal_form_support, special_member)

from oracles import weighted_monomials


class TestBasics:
    def test_weights_validation(self):
        with pytest.raises(ValueError):
            Family((2, 1, 1, 1, 1))
        with pytest.raises(ValueError):
            Family((1, 3, 2, 4, 5))
        with pytest.raises(ValueError):
            Family((1, 0, 1, 1, 1))
        with pytest.raises(ValueError):
            Family((1, 1, 1, 1))

    @pytest.mark.parametrize("w,expected", [
        ((1, 1, 1, 2), Fraction(5, 2)),     # No. 2
        ((2, 3, 4, 5), Fraction(7, 60)),    # No. 23
        ((5, 6, 22, 33), Fraction(1, 330)),  # No. 95
    ])
    def test_anticanonical_degree(self, w, expected):
        assert anticanonical_degree(Family.of(*w)) == expected

    def test_hat_lcms(self):
        assert hat_lcms(Family.of(1, 2, 2, 3)) == (6, 6, 2)
        assert hat_lcms(Family.of(1, 1, 1, 1)) == (1, 1, 1)
        assert hat_lcms(Family.of(5, 6, 22, 33))[2] == 330

    @pytest.mark.parametrize("w,expected", [
        ((1, 1, 2, 2, 3), True),
        ((1, 2, 4, 6, 8), False),
        ((1, 5, 6, 22, 33), True),
    ])
    def test_is_wellformed(self, w, expected):
        assert is_wellformed(w) is expected


def quasismooth_oracle(f, exclude_pure=None):
    """The coordinate-subset test read off the degree-d monomials, with
    every monomial supported inside `exclude_pure` removed."""
    banned = set(exclude_pure or ())
    support = []
    for m in weighted_monomials(f.w, f.d):
        used = {i for i in range(5) if m[i]}
        if not used <= banned:
            support.append((m, used))
    for bits in range(1, 32):
        subset = {i for i in range(5) if bits >> i & 1}
        if any(used <= subset for _m, used in support):
            continue
        externals = {e for m, used in support for e in used - subset
                     if m[e] == 1 and used - {e} <= subset}
        if len(externals) < len(subset):
            names = "".join(COORDS[i] for i in sorted(subset))
            return (False,
                    f"subset {{{names}}}: no pure degree-{f.d} monomial and "
                    f"only {len(externals)} external eliminations (need "
                    f"{len(subset)})")
    return (True, "")


class TestQuasiSmooth:
    @given(st.sets(st.integers(0, 80), min_size=1),
           st.lists(st.integers(1, 12), max_size=5), st.integers(0, 80))
    @settings(max_examples=300, deadline=None)
    def test_extend_mask_matches_brute_force(self, start, weights, bound):
        reachable = {t for t in start if t <= bound}
        mask = sum(1 << t for t in reachable)
        for a in weights:
            reachable = {s + k * a for s in reachable
                         for k in range((bound - s) // a + 1)}
            mask = _extend_mask(mask, a, bound)
        assert {t for t in range(bound + 1) if mask >> t & 1} == reachable
        assert mask >> (bound + 1) == 0

    # in the first three, an excluded x_e has cofactors in I only inside
    # the excluded set, so the member has no monomial that eliminates it
    @example((2, 4, 5, 10), (2, 3))
    @example((2, 6, 8, 9), (3, 4))
    @example((6, 7, 8, 10), (1, 2))
    @example((2, 2, 2, 3), None)
    @given(st.lists(st.integers(1, 12), min_size=4, max_size=4)
           .map(sorted).filter(lambda w: sum(w) <= 40),
           st.none() | st.sampled_from([(3, 4), (0, 4), (1, 2)])
           | st.sets(st.integers(0, 4), min_size=1).map(sorted).map(tuple))
    @settings(max_examples=300, deadline=None)
    def test_matches_monomial_oracle(self, w, exclude_pure):
        f = Family.of(*w)
        assert tuple(general_quasismooth(f, exclude_pure)) == \
            quasismooth_oracle(f, exclude_pure)

    def test_family_7(self):
        assert general_quasismooth(Family.of(1, 2, 2, 3)).ok

    def test_degree9_counterexample(self):
        diag = general_quasismooth(Family.of(2, 2, 2, 3))
        assert not diag.ok
        # the three weight-2 coords
        assert diag.detail.startswith("subset {yzt}: ")

    def test_no_w_elimination(self):
        # w has no x_e with 4k + a_e = 7: the w-chart condition fails
        diag = general_quasismooth(Family.of(1, 1, 1, 4))
        assert not diag.ok
        assert diag.detail.startswith("subset {w}: ")

    def test_monotone_under_shrinking_exclusions(self):
        # members with extra monomials stay quasi-smooth: whenever the
        # support without pure t-w monomials works, the full support does
        for rec in golden.data().families:
            if general_quasismooth(rec.family, exclude_pure=(3, 4)).ok:
                assert general_quasismooth(rec.family).ok

    def test_stratum_members_partition(self):
        # of the twelve hard families, exactly these admit quasi-smooth
        # members through the t-w line
        hits = {no for no in (2, 5, 12, 13, 20, 23, 25, 33, 40, 58, 61, 76)
                if general_quasismooth(golden.data().family(no),
                                       exclude_pure=(3, 4)).ok}
        assert hits == {2, 5, 12, 13, 20, 25, 33, 58}


@st.composite
def chained_quadruples(draw):
    """Weights whose general member of degree d <= 400 has x_i^k or
    x_i^k * x_j for three of its coordinates; the fourth weight closes
    the sum to d.  Uniform draws of weights near 200 are almost never
    quasi-smooth; about one in twenty of these is."""
    d = draw(st.integers(4, 400))
    ws = [1]
    for left in (3, 2, 1):
        n = d - draw(st.sampled_from([0] + ws))
        room = d - sum(ws[1:]) - left
        ws.append(draw(st.sampled_from(
            [m for m in range(1, min(n, room) + 1) if n % m == 0])))
    return tuple(sorted(ws[1:] + [d - sum(ws[1:])]))


def four_loop_scan(bound):
    """The enumeration as a plain scan of every quadruple up to bound."""
    found = []
    for a1 in range(1, bound + 1):
        for a2 in range(a1, bound + 1):
            for a3 in range(a2, bound + 1):
                for a4 in range(a3, bound + 1):
                    f = Family.of(a1, a2, a3, a4)
                    if (gcd(gcd(a1, a2), gcd(a3, a4)) == 1
                            and general_quasismooth(f).ok
                            and is_terminal_family(f)):
                        found.append((f.d, a1, a2, a3, a4))
    return sorted(found)


def vertex_tests_pass(f):
    """The singleton quasi-smoothness test at O_y .. O_w, read off the
    elimination candidates: each vertex is missed (a_i | d) or has some
    x_i^k * x_j of degree d."""
    return all(f.d % f.w[i] == 0 or vertex_elimination_candidates(f, i)
               for i in range(1, 5))


@pytest.fixture(scope="module")
def families():
    return enumerate_families(33)


class TestEnumeration:

    def test_exactly_95(self, families):
        assert len(families) == 95

    def test_first_entry(self, families):
        assert families[0].w == (1, 1, 1, 1, 1) and families[0].d == 4
        assert families[0].entry_no == 1

    def test_corrected_entries(self, families):
        assert families[44].w == (1, 3, 4, 5, 8) and families[44].d == 20
        assert families[92].w == (1, 7, 8, 10, 25) and families[92].d == 50

    def test_matches_reference_list(self, families):
        expected = [rec.family for rec in golden.data().families]
        assert [(f.d, f.w) for f in families] == [
            (f.d, f.w) for f in expected]

    @pytest.mark.parametrize("bound", [1, 5, 8, 12, 24, 25, 32, 33, 50, 100])
    def test_reference_families_up_to_the_bound(self, bound):
        # the 95 have a4 <= 33, and a larger bound finds no other family
        expected = [rec.family for rec in golden.data().families
                    if rec.family.w[4] <= bound]
        assert [(f.d, f.w) for f in enumerate_families(bound)] == [
            (f.d, f.w) for f in expected]

    def test_numbering_is_lexicographic(self, families):
        keys = [(f.d, *f.w[1:]) for f in families]
        assert keys == sorted(keys)
        assert [f.entry_no for f in families] == list(range(1, 96))

    # quasi-smooth, with a4 dividing only s, s-1, s-a1, s-a2 or s-a3 in turn
    @example((1, 1, 1, 3)).via("a4 | s")
    @example((2, 3, 3, 7)).via("a4 | s-1")
    @example((2, 3, 4, 7)).via("a4 | s-a1")
    @example((1, 2, 3, 4)).via("a4 | s-a2")
    @example((2, 3, 4, 5)).via("a4 | s-a3")
    @given(chained_quadruples())
    @settings(max_examples=400, deadline=None)
    def test_candidate_filter_keeps_every_quasismooth_quadruple(self, w):
        f = Family.of(*w)
        a1, a2, a3, a4 = w
        if general_quasismooth(f).ok and gcd(a1, a2, a3) == 1:
            assert (a3, a4) in bare_weight_candidates(a1, a2, a4)

    def test_candidates_are_the_large_divisors(self):
        # n, n/2 and n/3 for n in s, s-1, s-a1, s-a2, s-a3, read literally,
        # that pass the vertex test, for every a3 in [a2, bound] that shares
        # no factor with a1 and a2; no pair may come twice.  The bound 72
        # runs a3 past the cap at max(72 - a1, a1 + a2).
        for a1 in range(1, 25):
            for a2 in range(a1, 25):
                for bound in (a2, 24, 3 * 24):
                    expected = []
                    for a3 in range(a2, bound + 1):
                        if gcd(a1, a2, a3) != 1:
                            continue
                        s = a1 + a2 + a3
                        for a4 in sorted({
                                n // q for n in (s, s - 1, s - a1, s - a2,
                                                 s - a3)
                                for q in (1, 2, 3)
                                if n % q == 0 and a3 <= n // q <= bound}):
                            if vertex_tests_pass(Family.of(a1, a2, a3, a4)):
                                expected.append((a3, a4))
                    got = list(bare_weight_candidates(a1, a2, bound))
                    assert len(got) == len(set(got))
                    assert sorted(got) == expected, (a1, a2, bound)

    def test_candidates_pass_the_singleton_test_at_all_four_vertices(self):
        # a brute-force statement of the tests up to max-weight 100: (a3,
        # a4) is kept iff a1, a2, a3 share no factor and at each of O_y,
        # O_z, O_t and O_w, d = a_j mod a_i for some j (j = i for x_i^k).
        # O_w holds only where a4 divides s or some s - a_j, so a4 runs
        # over the divisors of those that are at least a3; the candidates
        # skip the test at O_w, which this one makes.
        bound = 100
        for a1 in range(1, bound + 1):
            for a2 in range(a1, bound + 1):
                expected = set()
                for a3 in range(a2, bound + 1):
                    if gcd(a1, a2, a3) != 1:
                        continue
                    s = a1 + a2 + a3
                    for n in (s, s - 1, s - a1, s - a2, s - a3):
                        for q in range(1, n // a3 + 1):
                            a4 = n // q
                            if n % q or a4 > bound:
                                continue
                            w = (1, a1, a2, a3, a4)
                            d = s + a4
                            if all(d % a in {b % a for b in w}
                                   for a in w[1:]):
                                expected.add((a3, a4))
                got = list(bare_weight_candidates(a1, a2, bound))
                assert len(got) == len(set(got))
                assert set(got) == expected, (a1, a2)

    # each pre-test rejecting a quadruple that the other two keep
    @example((1, 1, 1, 4)).via("a4 not a candidate")
    @example((1, 1, 4, 5)).via("vertex test at O_t")
    @example((1, 2, 2, 4)).via("a2, a3, a4 share 2")
    @given(chained_quadruples()
           | st.lists(st.integers(1, 30), min_size=4, max_size=4)
           .map(sorted).map(tuple))
    @settings(max_examples=400, deadline=None)
    def test_bare_weight_rejection_is_never_a_family(self, w):
        a1, a2, a3, a4 = w
        if ((a3, a4) in bare_weight_candidates(a1, a2, a4)
                and no_singular_curves((1, *w))):
            return
        f = Family.of(*w)
        assert not (general_quasismooth(f).ok and is_terminal_family(f))

    def test_vertex_conditions_read_the_elimination_candidates(self):
        # a triple that shares a factor yields no a4 at all
        for a1 in range(1, 16):
            for a2 in range(a1, 16):
                kept = set(bare_weight_candidates(a1, a2, 15))
                for a3 in range(a2, 16):
                    for a4 in range(a3, 16):
                        f = Family.of(a1, a2, a3, a4)
                        assert ((a3, a4) in kept) == (
                            gcd(a1, a2, a3) == 1 and vertex_tests_pass(f)), f

    def test_matches_four_loop_scan(self):
        assert [(f.d, *f.w[1:]) for f in enumerate_families(20)] == \
            four_loop_scan(20)


class TestMembers:
    def test_normal_form_drops_absorbed_monomials(self):
        f50 = golden.data().family(50)
        support = normal_form_support(f50, _eliminating_monomials(f50))
        assert (0, 1, 0, 3, 0) in support      # y t^3 stays
        assert (1, 0, 0, 3, 0) not in support  # x t^3 absorbed into it

    def test_normal_form_matches_per_vertex_absorption(self):
        # at each quotient vertex O_i, x_e absorbs x_i^k * m for every m of
        # degree a_e free of x_e, except the eliminating monomial itself
        for rec in golden.data().families:
            f = rec.family
            support = weighted_monomials(f.w, f.d)
            units = set()
            for i in range(1, 5):
                sing = vertex_singularity(f, i)
                if sing is None:
                    continue
                e = sing.eliminated
                unit = eliminating_monomial(f, i, e)
                units.add(unit)
                for m in weighted_monomials(f.w, f.w[e]):
                    if m[e] == 0:
                        support.discard(tuple(
                            x + unit[i] * (j == i) for j, x in enumerate(m)))
            assert normal_form_support(f, _eliminating_monomials(f)) \
                == support | units, f

    def test_generic_member_is_deterministic(self):
        f = golden.data().family(23)
        assert generic_member(f) == generic_member(f)
        assert generic_member(f, seed=1) != generic_member(f, seed=2)

    def test_generic_member_draws_are_pinned(self):
        # the members, keys in order, for all 95 families at seeds 0-3;
        # a change to the support or to the draw order changes the digest
        digest = hashlib.sha256()
        for rec in golden.data().families:
            for seed in range(4):
                digest.update(repr(list(
                    generic_member(rec.family, seed).items())).encode())
        assert digest.hexdigest() == (
            "7b6c7480b354d121255f29b3b49ead1e"
            "e6eafd81004f79e230b6c468fd549de5")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generic_member_is_integral(self, seed):
        # int coefficients in [1, 2^20], and on every eliminated vertex
        # chart the reduced member stays on int
        charts = 0
        for rec in golden.data().families:
            f = rec.family
            member = generic_member(f, seed)
            assert all(type(c) is int and 1 <= c <= 2**20
                       for c in member.values()), f
            for i in range(1, 5):
                sing = vertex_singularity(f, i)
                if sing is None:
                    continue
                reduced = _reduce_to_chart(member, i, sing.eliminated)
                assert reduced and all(type(c) is int and c
                                       for c, _loc, _ey in reduced), (f, i)
                charts += 1
        assert charts == 139

    def test_special_member_support(self):
        f = golden.data().family(23)
        member = special_member(f)
        assert (0, 1, 4, 0, 0) in member       # z^4 y
        assert (1, 0, 3, 1, 0) in member       # x t z^3
        assert (0, 0, 3, 0, 1) not in member   # no z^3 w
        assert (0, 0, 2, 2, 0) not in member   # no z^2 t^2
        assert all(sum(e * w for e, w in zip(exps, f.w)) == 14
                   for exps in member)

    def test_unknown_special_member(self):
        with pytest.raises(UnknownSpecialMember,
                           match="^unknown special member '7:special'$"):
            special_member(golden.data().family(7))
