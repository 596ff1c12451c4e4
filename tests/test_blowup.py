"""Intersection numbers on the Kawamata blow-up."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from wfano import golden
from wfano.blowup import (B, NonIntegral, b_cubed, divisor_multiplicity,
                          monomial_order, s_class_ks, triple)
from wfano.census import (census, default_eliminated, edge_singularities,
                          vertex_singularity)
from wfano.exactmath import (COORDS, OVERCUTOFF, _graded_substitute,
                             _reduce_to_chart, _sum_products,
                             implicit_eliminate, parse_poly, series_order)
from wfano.wps import anticanonical_degree, generic_member, special_member

from oracles import E, proper_transform_class, row_point, s_class


def fam(no):
    return golden.data().family(no)


def vertex_point(no, i, eliminated=None):
    f = fam(no)
    return f, vertex_singularity(f, i, eliminated=eliminated)


def edge_point(no, i, j):
    f = fam(no)
    return f, edge_singularities(f, i, j)


def census_points():
    """(family, point) at each of the 248 census points of the 95
    families."""
    points = [(rec.family, sing) for rec in golden.data().families
              for sing in census(rec.family).entries]
    assert len(points) == 248
    return points


def chart_of(sing):
    """(chart vertex, eliminated coordinate, residues) at a vertex point,
    the chart arguments of the series functions."""
    return sing.location[1], sing.eliminated, sing.residues


def recharted_rows():
    """(family, row) for the 31 vertex rows whose subscripts leave a
    coordinate other than the census's to be eliminated."""
    out = []
    data = golden.data()
    for rec in data.families:
        f = rec.family
        for row in data.rows_for(f.entry_no):
            if row.location[0] != "vertex" or row.local_params is None:
                continue
            i = row.location[1]
            if set(range(5)) - {i, *row.local_params} != {
                    default_eliminated(f, i)}:
                out.append((f, row))
    assert len(out) == 31
    return out


def scan_every_term(reduced, weights, cutoff, parts):
    """`_graded_substitute` as a plain loop.  It differs from the engine in
    two ways only: it builds every part of each power S^k, where the engine
    builds a part of S^k only from the first degree that can read it
    (`lag`), and it multiplies every pair of parts, empty or not, where the
    engine forms no product without a pair of non-empty parts."""
    terms = [({loc: c}, ey, sum(e * w for e, w in zip(loc, weights)))
             for c, loc, ey in reduced]
    terms = [(mono, ey, base) for mono, ey, base in terms
             if base + ey < cutoff]
    max_ey = max((ey for _mono, ey, _base in terms), default=0)
    powers = [[{(0, 0, 0): 1}] + [{}] * (cutoff - 1), parts]
    powers += [[] for _ in range(2, max_ey + 1)]
    for deg in range(cutoff):
        for k in range(2, max_ey + 1):
            powers[k].append(_sum_products(
                (parts[j], powers[k - 1][deg - j]) for j in range(1, deg)))
        yield _sum_products((mono, powers[ey][deg - base])
                            for mono, ey, base in terms if base <= deg)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@pytest.fixture(scope="module")
def blowup_points():
    """(family, point) at every census point and at the chart of every
    re-charted row: 248 + 31 blow-ups."""
    return census_points() + [(f, row_point(f, row))
                              for f, row in recharted_rows()]


def triple_in_ae_basis(f, sing, c1, c2, c3):
    """`triple` by its textbook formula, on `Fraction`s: the class
    b*B + e*E is b*A + (e - b/r)*E in the {A, E} basis, and only A^3 and
    E^3 = r^2/(a b) are nonzero."""
    (a1, e1), (a2, e2), (a3, e3) = (
        (Fraction(b), e - Fraction(b) / sing.r) for b, e in (c1, c2, c3))
    return (a1 * a2 * a3 * anticanonical_degree(f)
            + e1 * e2 * e3 * Fraction(sing.r ** 2, sing.a * sing.b))


class TestTriple:
    def test_pullback_cubed(self):
        f, sing = vertex_point(23, 2)
        A = (1, Fraction(1, sing.r))  # A = B + (1/r)E
        assert triple(f, sing, A, A, A) == Fraction(7, 60)

    def test_mixed_products_vanish(self):
        f, sing = vertex_point(23, 2)
        A = (1, Fraction(1, sing.r))  # A = B + (1/r)E
        assert triple(f, sing, A, A, E) == 0
        assert triple(f, sing, A, E, E) == 0
        assert triple(f, sing, E, E, E) == Fraction(sing.r ** 2,
                                                    sing.a * sing.b)

    @given(rationals, rationals, rationals, rationals, rationals, rationals)
    @settings(max_examples=60)
    def test_symmetric_and_trilinear(self, b1, e1, b2, e2, b3, e3):
        f, sing = vertex_point(23, 2)
        c1, c2, c3 = (b1, e1), (b2, e2), (b3, e3)
        t = triple(f, sing, c1, c2, c3)
        assert t == triple(f, sing, c2, c1, c3) == triple(f, sing, c3, c2, c1)
        lam = Fraction(3, 2)
        assert triple(f, sing, (lam * b1, lam * e1), c2, c3) == lam * t
        c4 = (b1 + b2, e1 + e2)
        assert triple(f, sing, c4, c2, c3) == t + triple(f, sing, c2, c2, c3)

    def test_b_cubed_is_triple_of_B(self, blowup_points):
        for f, sing in blowup_points:
            val, sign = b_cubed(f, sing)
            assert val == triple(f, sing, B, B, B), sing
            assert val == anticanonical_degree(f) - Fraction(
                1, sing.r * sing.a * sing.b), sing
            assert sign == ("+" if val > 0 else "0" if val == 0 else "-")

    def test_matches_the_ae_basis_formula(self, blowup_points):
        # B, E, B - E with `Fraction` coefficients, the pull-back A, and
        # classes with plain `int` and mixed coefficients, in every
        # unordered triple
        for f, sing in blowup_points:
            A = (1, Fraction(1, sing.r))
            classes = (B, E, (Fraction(1), Fraction(-1)), A, (2, -1),
                       (-3, Fraction(2, 7)))
            for c1, c2, c3 in combinations_with_replacement(classes, 3):
                got = triple(f, sing, c1, c2, c3)
                assert type(got) is Fraction
                assert got == triple_in_ae_basis(f, sing, c1, c2, c3), (
                    f, sing, c1, c2, c3)

    @given(st.data(), rationals, rationals, rationals, rationals, rationals,
           rationals)
    @settings(max_examples=100)
    def test_matches_the_ae_basis_formula_on_rational_classes(
            self, blowup_points, data, b1, e1, b2, e2, b3, e3):
        f, sing = data.draw(st.sampled_from(blowup_points))
        c1, c2, c3 = (b1, e1), (b2, e2), (b3, e3)
        assert triple(f, sing, c1, c2, c3) == triple_in_ae_basis(
            f, sing, c1, c2, c3)


class TestBCubed:
    @pytest.mark.parametrize("ctx_args,value,sign", [
        (("v", 10, 3), Fraction(1, 2), "+"),
        (("v", 9, 2), Fraction(0), "0"),
        (("e", 12, 2, 4), Fraction(-1, 12), "-"),
        (("e", 95, 3, 4), Fraction(0), "0"),
        (("v", 95, 1), Fraction(-1, 33), "-"),
    ])
    def test_spot_values(self, ctx_args, value, sign):
        point = (vertex_point(*ctx_args[1:]) if ctx_args[0] == "v"
                 else edge_point(*ctx_args[1:]))
        assert b_cubed(*point) == (value, sign)


class TestSClass:
    def test_forced_by_weight_one(self):
        f, sing = vertex_point(9, 2)
        assert s_class(f, sing.r) == (B,)
        assert s_class_ks(f, sing.r) == (1,)

    def test_ambiguous(self):
        f, sing = vertex_point(95, 1)  # a1 = 5, d - 1 = 65 divisible by r = 5
        assert s_class(f, sing.r) == (B, (1, -1))
        assert s_class_ks(f, sing.r) == (1, 6)

    def test_forced_by_indivisibility(self):
        f, sing = edge_point(38, 1, 4)  # a1 = 2 but d - 1 = 17 is odd
        assert s_class(f, sing.r) == (B,)
        assert s_class_ks(f, sing.r) == (1,)


class TestProperTransform:
    def test_spot_classes(self):
        # at No. 23 O_z (r = 3), No. 50 O_t (r = 7) and No. 95 O_y (r = 5)
        assert vertex_point(23, 2)[1].r == 3
        assert proper_transform_class(3, 2, Fraction(2, 3)) == (2, 0)
        assert vertex_point(50, 3)[1].r == 7
        assert proper_transform_class(7, 1, Fraction(8, 7)) == (1, -1)
        assert vertex_point(95, 1)[1].r == 5
        assert proper_transform_class(5, 6, Fraction(6, 5)) == (6, 0)

    def test_non_integral(self):
        with pytest.raises(NonIntegral):
            proper_transform_class(3, 2, Fraction(1, 3))
        with pytest.raises(NonIntegral):
            proper_transform_class(3, 2, Fraction(1, 2))


class TestMonomialOrder:
    def test_scaled_residues(self):
        w5 = fam(50).w  # (1, 1, 3, 7, 11)
        assert monomial_order((0, 0, 0, 0, 2), w5, 7) == 8   # w^2 at O_t
        assert monomial_order((0, 1, 0, 0, 0), w5, 7) == 1   # y
        assert monomial_order((0, 0, 0, 3, 0), w5, 7) == 0   # t^3 at its vertex

    def test_local_parameters_carry_the_kawamata_weights(self):
        # `monomial_order` reads the raw weight residues as the blow-up
        # weights (1, a, r-a)/r, with no unit rescaling: pinned at every
        # census point and at the chart of every subscripted exclusion row
        charts = [sing for _, sing in census_points()]
        data = golden.data()
        rows = [(rec.family, row) for rec in data.families
                for row in data.rows_for(rec.family.entry_no)
                if row.local_params is not None and row.kind == "exclude"]
        assert len(rows) == 228
        charts += [row_point(f, row) for f, row in rows]
        for sing in charts:
            assert sorted(sing.residues) == sorted(
                (1, sing.a, sing.r - sing.a)), sing


class TestDivisorMultiplicity:
    def test_driven_by_w_squared(self):
        _, sing = vertex_point(50, 3)
        got = divisor_multiplicity(sing, parse_poly("y"),
                                   generic_member(fam(50)))
        assert got == Fraction(8, 7)

    def test_special_member_two_thirds(self):
        f, sing = vertex_point(23, 2, eliminated=1)
        got = divisor_multiplicity(sing, parse_poly("y"),
                                   special_member(f))
        assert got == Fraction(2, 3)

    def test_local_parameter_is_one_over_r(self):
        for no, i in ((23, 4), (50, 3), (95, 1)):
            _, sing = vertex_point(no, i)
            got = divisor_multiplicity(sing, parse_poly("x"),
                                       generic_member(fam(no)))
            assert got == Fraction(1, sing.r)

    def test_each_local_parameter_has_order_residue_over_r(self):
        # the census pairs each local parameter with its weight residue, and
        # the series takes the residues as the weights of its own chart
        # coordinates: the two orders agree when, on the generic member at
        # every eliminated vertex point, each local parameter x_k has order
        # (a_k mod r)/r
        wrong, checks = [], 0
        for rec in golden.data().families:
            f = rec.family
            member = generic_member(f)
            for sing in census(f).entries:
                if sing.eliminated is None:
                    continue
                for k, res in zip(sing.local_params, sing.residues):
                    x_k = {tuple(int(j == k) for j in range(5)): 1}
                    got = divisor_multiplicity(sing, x_k, member)
                    if got != Fraction(res, sing.r):
                        wrong.append((f.entry_no, str(sing), COORDS[k], got))
                    checks += 1
        assert checks == 417
        assert wrong == []

    def test_overcutoff_propagates(self):
        f, sing = vertex_point(23, 2, eliminated=1)
        member = special_member(f)
        assert divisor_multiplicity(sing, member, member) is OVERCUTOFF

    def test_refuses_an_edge_point(self):
        # an edge point has no chart to eliminate in
        f, sing = edge_point(95, 3, 4)
        with pytest.raises(ValueError, match="vertex chart"):
            divisor_multiplicity(sing, parse_poly("x"), generic_member(f))

    def test_generic_member_eliminates_over_the_integers(self):
        # the eliminating monomial of the generic member has coefficient 1,
        # so no division enters the series
        for no, i in ((50, 3), (23, 2)):
            _, sing = vertex_point(no, i)
            series = implicit_eliminate(generic_member(fam(no)),
                                        *chart_of(sing), 4 * sing.r)
            assert series.terms
            assert all(type(c) is int for c in series.terms.values()), no
        # the member vanishes on its series at the deep cutoff 8r of No. 50 O_t
        vertex, eliminated, residues = chart_of(vertex_point(50, 3)[1])
        member = generic_member(fam(50))
        assert series_order(member, member, vertex, eliminated, residues, 56,
                            7) is OVERCUTOFF

    def test_eliminated_order_is_the_same_at_three_seeds(self):
        # at every eliminated vertex point the order of x_e is a property
        # of the family, not of the pseudo-random coefficients
        points = 0
        for rec in golden.data().families:
            f = rec.family
            for sing in census(f).entries:
                if sing.eliminated is None:
                    continue
                x_e = {tuple(int(j == sing.eliminated) for j in range(5)): 1}
                orders = {divisor_multiplicity(sing, x_e, generic_member(f, s))
                          for s in (0, 1, 2)}
                assert len(orders) == 1 and OVERCUTOFF not in orders, (
                    f, sing, orders)
                points += 1
        assert points == 139

    @pytest.mark.parametrize("no,point", [
        (50, "Ot"), (23, "Oz"), (73, "Ot"), (93, "Oz")])
    def test_member_substitutes_as_the_full_scan(self, no, point):
        _, sing = vertex_point(no, COORDS.index(point[1]))
        vertex, eliminated, residues = chart_of(sing)
        member = generic_member(fam(no))
        wrapped = {exps: Fraction(c) for exps, c in member.items()}
        cutoff = 4 * sing.r
        series = implicit_eliminate(member, vertex, eliminated, residues,
                                    cutoff)
        assert series.terms
        assert implicit_eliminate(wrapped, vertex, eliminated, residues,
                                  cutoff).parts == series.parts
        for f in (member, wrapped):
            assert series_order(f, f, vertex, eliminated, residues, cutoff,
                                sing.r) is OVERCUTOFF
        # f = Y + rest with rest(S) = -S, so the parts compared are nonzero
        rest = [(c, loc, ey) for c, loc, ey
                in _reduce_to_chart(member, vertex, eliminated)
                if (loc, ey) != ((0, 0, 0), 1)]
        got = list(_graded_substitute(rest, residues, cutoff, series.parts))
        assert got == list(scan_every_term(rest, residues, cutoff,
                                           series.parts))
        assert got == [{e: -c for e, c in part.items()}
                       for part in series.parts]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_substitute_matches_the_full_scan_on_any_series(self, data):
        # a series with a degree-1 part and terms up to Y^4, which the
        # members above need not have: every power part read must be built
        weights = tuple(data.draw(st.lists(st.integers(1, 3), min_size=3,
                                           max_size=3)))
        cutoff = data.draw(st.integers(1, 9))
        exps = st.tuples(*[st.integers(0, 2)] * 3)
        coeffs = st.integers(-3, 3).filter(bool)
        parts = [{}] + [data.draw(st.dictionaries(exps, coeffs, max_size=2))
                        for _ in range(1, cutoff)]
        reduced = data.draw(st.lists(st.tuples(coeffs, exps,
                                               st.integers(0, 4)),
                                     max_size=6))
        assert list(_graded_substitute(reduced, weights, cutoff, parts)) == \
            list(scan_every_term(reduced, weights, cutoff, parts))

    def test_series_route_agrees_with_residue_route(self):
        """Dual-route check over all generic vertex rows.

        The table multiplicities are decided by the weight-residue rule;
        the power-series elimination on a pseudo-random member must agree
        wherever the printed surface has concrete coefficients.
        """
        import random
        from fractions import Fraction as F
        from wfano.golden import match_rows

        data = golden.data()
        rng = random.Random(11)
        checked = 0
        for rec in data.families:
            f = rec.family
            no = f.entry_no
            for point in data.points_of(no):
                rows = match_rows(data, no, point, {})
                row = rows[0]
                if row.linsys is None or row.location[0] != "vertex":
                    continue
                sing = row_point(f, row)
                member = generic_member(f)
                g = {}
                for gen in row.surface:
                    lam = F(rng.randint(1, 999))
                    for mono in gen:
                        g[mono] = g.get(mono, F(0)) + lam
                c, b_coef = row.linsys
                expected = F(c - b_coef * row.r, row.r)  # m/r from the class
                got = divisor_multiplicity(sing, g, member)
                assert got == expected, (no, point, got, expected)
                checked += 1
        assert checked >= 80
