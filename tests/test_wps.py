"""Families, quasi-smoothness, and the enumeration of all 95."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from wfano import golden
from wfano.census import (is_terminal_family, vertex_conditions_hold,
                          vertex_singularity)
from wfano.exactmath import weighted_monomials
from wfano.wps import (Family, UnknownSpecialMember, _semigroup_mask,
                       a4_candidates, anticanonical_degree,
                       admits_member_with_stratum, divisor_table,
                       eliminating_monomial, enumerate_families,
                       general_quasismooth, generic_member, hat_lcms,
                       is_wellformed, normal_form_support, special_member)


class TestBasics:
    def test_weights_validation(self):
        with pytest.raises(ValueError):
            Family((2, 1, 1, 1, 1))
        with pytest.raises(ValueError):
            Family((1, 3, 2, 4, 5))

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


class TestQuasiSmooth:
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=5),
           st.integers(0, 80))
    @settings(max_examples=300, deadline=None)
    def test_semigroup_mask_matches_brute_force(self, weights, bound):
        reachable = {0}
        for a in weights:
            reachable = {s + k * a for s in reachable
                         for k in range((bound - s) // a + 1)}
        mask = _semigroup_mask(tuple(sorted(weights)), bound)
        assert {t for t in range(bound + 1) if mask >> t & 1} == reachable
        assert mask >> (bound + 1) == 0

    def test_family_7(self):
        assert general_quasismooth(Family.of(1, 2, 2, 3)).ok

    def test_degree9_counterexample(self):
        diag = general_quasismooth(Family.of(2, 2, 2, 3))
        assert not diag.ok
        assert diag.failing_subset == (1, 2, 3)  # the three weight-2 coords

    def test_no_w_elimination(self):
        # w has no x_e with 4k + a_e = 7: the w-chart condition fails
        diag = general_quasismooth(Family.of(1, 1, 1, 4))
        assert not diag.ok
        assert diag.failing_subset == (4,)

    def test_monotone_under_shrinking_exclusions(self):
        # members with extra monomials stay quasi-smooth: whenever the
        # support without pure t-w monomials works, the full support does
        for rec in golden.data().families:
            if admits_member_with_stratum(rec.family, (3, 4)):
                assert general_quasismooth(rec.family).ok

    def test_stratum_members_partition(self):
        # of the twelve hard families, exactly these admit quasi-smooth
        # members through the t-w line
        hits = {no for no in (2, 5, 12, 13, 20, 23, 25, 33, 40, 58, 61, 76)
                if admits_member_with_stratum(golden.data().family(no).family,
                                              (3, 4))}
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
        if general_quasismooth(f).ok:
            a1, a2, a3, a4 = w
            assert a4 in a4_candidates(a1, a2, a3, a4,
                                       divisor_table(a1 + a2 + a3))
            assert vertex_conditions_hold(f)

    def test_matches_four_loop_scan(self):
        assert [(f.d, *f.w[1:]) for f in enumerate_families(20)] == \
            four_loop_scan(20)


class TestMembers:
    def test_normal_form_drops_absorbed_monomials(self):
        f50 = golden.data().family(50).family
        support = normal_form_support(f50)
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
            assert normal_form_support(f) == support | units, f

    def test_generic_member_is_deterministic(self):
        f = golden.data().family(23).family
        assert generic_member(f) == generic_member(f)
        assert generic_member(f, seed=1) != generic_member(f, seed=2)

    def test_special_member_support(self):
        f = golden.data().family(23).family
        member = special_member(f, "special")
        assert (0, 1, 4, 0, 0) in member       # z^4 y
        assert (1, 0, 3, 1, 0) in member       # x t z^3
        assert (0, 0, 3, 0, 1) not in member   # no z^3 w
        assert (0, 0, 2, 2, 0) not in member   # no z^2 t^2
        assert all(sum(e * w for e, w in zip(exps, f.w)) == 14
                   for exps in member)

    def test_unknown_special_member(self):
        with pytest.raises(UnknownSpecialMember):
            special_member(golden.data().family(7).family, "special")
