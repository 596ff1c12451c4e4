"""Exclusion inequalities, method dispatch, and certificates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wfano import golden
from wfano.blowup import BlowupContext
from wfano.census import edge_singularities, vertex_singularity
from wfano.golden import UnknownVariantFlag, match_rows
from wfano.rigidity import (NotApplicable, NotSymmetric, certify_row,
                            curve_status, involution_case,
                            k3_self_intersection, neg_definite,
                            smooth_point_status, super_rigid_families)
# aliased so pytest does not collect the library operations as tests
from wfano.rigidity import test_b as ineq_b
from wfano.rigidity import test_n as ineq_n
from wfano.rigidity import test_p as ineq_p
from wfano.wps import Family

DATA = golden.data()


def fam(no):
    return DATA.family(no).family


def vertex_ctx(no, i):
    f = fam(no)
    return BlowupContext(f, vertex_singularity(f, i))


def edge_ctx(no, i, j):
    f = fam(no)
    return BlowupContext(f, edge_singularities(f, i, j))


class TestInequalities:
    def test_b_examples(self):
        ok, lhs, rhs = ineq_b(vertex_ctx(9, 2), c=1, m=1, k=1)
        assert (ok, lhs, rhs) == (True, Fraction(1), Fraction(1))
        ok, lhs, rhs = ineq_b(edge_ctx(95, 2, 3), c=5, m=1, k=1)
        assert ok and lhs == Fraction(5, 33)
        ok, lhs, _ = ineq_b(vertex_ctx(2, 4), c=1, m=1, k=1)
        assert not ok and lhs == Fraction(5)

    def test_n_examples(self):
        ok, lhs, _ = ineq_n(edge_ctx(38, 1, 4), c=5, m=1, k=1)
        assert ok and lhs == Fraction(3, 4)
        ok, lhs, _ = ineq_n(edge_ctx(44, 1, 3), c=7, m=1, k=1)
        assert ok and lhs == Fraction(2, 3)
        ok, _, _ = ineq_n(vertex_ctx(2, 4), c=1, m=1, k=1)
        assert not ok

    @given(st.integers(min_value=1, max_value=50),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=60)
    def test_b_monotone_in_m(self, m, dm):
        ctx = vertex_ctx(23, 2)
        if ineq_b(ctx, c=2, m=m, k=1)[0]:
            assert ineq_b(ctx, c=2, m=m + dm, k=1)[0]

    def test_b_antitone_in_a3(self):
        # equal (r, a, b, c, m, k) at points with A^3 = 1/2 and 1/330:
        # the smaller anticanonical degree only makes the test easier
        big = ineq_b(vertex_ctx(9, 2), c=1, m=1, k=1)
        small = ineq_b(edge_ctx(95, 2, 3), c=1, m=1, k=1)
        assert small[1] < big[1]
        assert big[0] and small[0]

    def test_p_examples(self):
        assert ineq_p(fam(10))[0]            # 2*5 = 3*3 + 1
        assert ineq_p(fam(21))[0]            # 2*7 = 3*4 + 2
        assert not ineq_p(fam(7))[0]
        assert ineq_p(fam(62))[0]            # 2*13 = 3*7 + 5

    def test_p_z_analogue(self):
        # with z playing the role of t: 2 a4 = 3 a2 + a_i
        assert ineq_p(Family.of(1, 5, 7, 13), "Oz") == (False, None)
        assert ineq_p(Family.of(2, 4, 5, 7), "Oz") == (True, 1)


class TestNegDefinite:
    def test_reference_matrices(self):
        assert neg_definite([[Fraction(-7, 12), Fraction(2, 3)],
                             [Fraction(2, 3), Fraction(-5, 6)]])
        assert not neg_definite([[Fraction(-5, 6), Fraction(1)],
                                 [Fraction(1), Fraction(-1, 2)]])
        assert neg_definite([[Fraction(-1)]])

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            neg_definite([[Fraction(-1), Fraction(0)],
                          [Fraction(1), Fraction(-1)]])
        with pytest.raises(NotSymmetric):
            neg_definite([[Fraction(-1), Fraction(0)]])

    @given(st.lists(st.integers(min_value=-9, max_value=9),
                    min_size=6, max_size=6))
    @settings(max_examples=100)
    def test_float_eigenvalue_oracle(self, entries):
        a, b, c, d, e, f = entries
        m = [[Fraction(a), Fraction(b), Fraction(c)],
             [Fraction(b), Fraction(d), Fraction(e)],
             [Fraction(c), Fraction(e), Fraction(f)]]
        got = neg_definite(m)
        # numeric cross-check on clearly non-degenerate matrices
        import numpy as np
        eig = np.linalg.eigvalsh(np.array(m, dtype=float))
        if max(abs(x) for x in eig) > 0 and min(abs(x) for x in eig) > 1e-9:
            assert got == bool(eig.max() < 0)


class TestK3SelfIntersection:
    def test_examples(self):
        assert k3_self_intersection([3, 6]) == Fraction(-11, 28)
        assert k3_self_intersection([1, 2]) == Fraction(-5, 6)
        assert k3_self_intersection([]) == Fraction(-2)


class TestSmoothPoints:
    def test_lemma1_failures(self):
        failures = {no for no in range(1, 96)
                    if smooth_point_status(fam(no)).kind != "LEMMA1"}
        assert failures == {2, 5, 12, 13, 20, 23, 25, 33, 40, 58, 61, 76}

    def test_partition_of_failures(self):
        kinds = {no: smooth_point_status(fam(no)).kind
                 for no in (2, 5, 12, 13, 20, 23, 25, 33, 40, 58, 61, 76)}
        assert {no for no, k in kinds.items() if k == "MPIM_PAIR"} == {33, 58}
        assert {no for no, k in kinds.items() if k == "LEMMA2"} == \
            {23, 40, 61, 76}
        assert {no for no, k in kinds.items() if k == "SPECIAL"} == \
            {2, 5, 12, 13, 20, 25}

    def test_lemma1_reports_vertex(self):
        status = smooth_point_status(fam(95))
        assert status.kind == "LEMMA1" and status.vertex in (2, 3, 4)

    def test_special_case_ids(self):
        assert smooth_point_status(fam(2)).case == "2"
        assert smooth_point_status(fam(5)).case == "5"
        assert smooth_point_status(fam(12)).case == "12/20"
        assert smooth_point_status(fam(20)).case == "12/20"
        assert smooth_point_status(fam(13)).case == "13/25"
        assert smooth_point_status(fam(25)).case == "13/25"


class TestCurves:
    def test_special_set(self):
        # families 1 and 3 are covered by the classical results and carry
        # no certificate tables; among the tabulated families the curve
        # argument needs special care exactly for 2, 4 and 5
        special = {no for no in range(4, 96)
                   if curve_status(fam(no)).kind == "SPECIAL"}
        assert special == {4, 5}
        assert curve_status(fam(2)).kind == "SPECIAL"
        assert curve_status(fam(2)).max_degree == 2
        assert curve_status(fam(4)).max_degree == 1
        assert curve_status(fam(5)).max_degree == 1

    def test_numeric(self):
        assert curve_status(fam(7)).kind == "NUMERIC"
        assert curve_status(fam(95)).kind == "NUMERIC"


class TestInvolutionCase:
    def test_quadratic_at_w(self):
        case = involution_case(fam(2), "Ow")
        assert case.label == "TAU" and case.witness == "tw^2"

    def test_quadratic_fallback_at_t(self):
        assert involution_case(fam(5), "Ot").label == "TAU1"
        assert involution_case(fam(12), "Ot").label == "TAU1"

    def test_elliptic(self):
        assert involution_case(fam(23), "Ot").label == "EPS"
        assert involution_case(fam(7), "OzOt", {"type": "I"}).label == "EPS"
        assert involution_case(fam(7), "OzOt", {"type": "II"}).label == "IOTA"
        assert involution_case(fam(36), "Oz").label == "EPS1"
        assert involution_case(fam(20), "Oz").label == "EPS2"

    def test_invisible(self):
        case = involution_case(fam(23), "Oz",
                               {"a1": "zero", "c": "zero"})
        assert case.label == "IOTA1"

    def test_not_applicable(self):
        with pytest.raises(NotApplicable):
            involution_case(fam(9), "Oz")
        with pytest.raises(NotApplicable):
            involution_case(fam(23), "Oz")  # generic O_z is excluded, not untwisted


class TestClassifyPoint:
    """A point's certificate: the golden row the variant selects, re-derived."""

    def test_no95_generic(self):
        (row,) = match_rows(DATA, 95, "Oy", {})
        cert = certify_row(fam(95), row)
        assert cert.row.method == "B" and cert.row.kind == "exclude"
        assert cert.valid
        assert cert.inputs["c"] == 6 and cert.inputs["m"] == 6
        assert cert.inputs["k"] == (1, 6)

    def test_no10_two_ray(self):
        (row,) = match_rows(DATA, 10, "Ot", {})
        cert = certify_row(fam(10), row)
        assert cert.row.method == "P" and cert.valid

    def test_no23_invisible_variant(self):
        (row,) = match_rows(DATA, 23, "Oz", {"a1": "zero", "c": "zero"})
        cert = certify_row(fam(23), row)
        assert cert.row.method == "IOTA1" and cert.row.kind == "untwist"
        assert cert.valid

    def test_no23_generic_vs_variants(self):
        for variant, method in (({}, "B"), ({"c": "zero"}, "F")):
            (row,) = match_rows(DATA, 23, "Oz", variant)
            cert = certify_row(fam(23), row)
            assert cert.row.method == method and cert.valid

    def test_unknown_flag(self):
        with pytest.raises(UnknownVariantFlag):
            match_rows(DATA, 23, "Oz", {"zz": "zero"})

    def test_no_matching_row(self):
        assert match_rows(DATA, 23, "Oy", {}) == []  # not a singular point


class TestSuperRigid:
    def test_exact_fifty(self):
        expected = {1, 3, 10, 11, 14, 19, 21, 22, 28, 29, 34, 35, 37, 39, 49,
                    50, 51, 52, 53, 55, 57, 59, 62, 63, 64, 66, 67, 70, 71,
                    72, 73, 75, 77, 78, 80, 81, 82, 83, 84, 85, 86, 87, 88,
                    89, 90, 91, 92, 93, 94, 95}
        assert len(expected) == 50
        assert super_rigid_families(DATA) == expected
        assert expected == {rec.family.entry_no for rec in DATA.families
                            if rec.superrigid}
