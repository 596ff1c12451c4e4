"""Quotient singularity census: types, locations, counts."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from wfano import golden
from wfano.census import (REFUSALS, NonTerminal, canonical_type, census,
                          default_eliminated, edge_point_count,
                          edge_singularities, eliminating_monomial,
                          is_terminal_family, is_wellformed, member_chart,
                          no_singular_curves, normalize_type,
                          vertex_elimination_candidates, vertex_singularity)
from wfano.exactmath import NoEliminatingMonomial
from wfano.wps import Family, generic_member, special_member

from oracles import normalized_types


def fam(no):
    return golden.data().family(no)


class TestNormalizeType:
    def test_examples(self):
        assert normalize_type(3, (1, 2, 1)) == (1, 2, 1)
        assert normalize_type(2, (1, 1, 1)) == (1, 1, 1)
        with pytest.raises(NonTerminal):
            normalize_type(4, (1, 1, 1))

    def test_unit_scaling(self):
        # (2, 4, 3) mod 7 = 2 * (1, 2, 5)
        assert normalize_type(7, (2, 4, 3)) == (1, 2, 5)

    def test_permuted_slot(self):
        # the unit slot need not come first
        assert normalize_type(3, (2, 1, 1)) == (1, 2, 1)

    def test_shared_factor(self):
        with pytest.raises(NonTerminal):
            normalize_type(4, (1, 2, 3))  # residue 2 shares a factor with 4

    def test_matches_the_forward_oracle(self):
        # every residue triple mod r <= 30, the unit in the earliest slot;
        # a triple the oracle does not list raises NonTerminal
        def normalized(r, res):
            try:
                return normalize_type(r, res)
            except NonTerminal:
                return None
        for r in range(1, 31):
            table = normalized_types(r)
            for res in product(range(r), repeat=3):
                assert normalized(r, res) == table.get(res), (r, res)

    @pytest.mark.parametrize("residues", [(1, 2), (1, 2, 3, 4)])
    def test_three_residues(self, residues):
        with pytest.raises(ValueError, match="need exactly three residues"):
            normalize_type(5, residues)

    @given(st.integers(min_value=2, max_value=60), st.data())
    @settings(max_examples=200)
    def test_idempotent(self, r, data):
        a = data.draw(st.integers(min_value=1, max_value=r - 1))
        if gcd(a, r) != 1:
            return
        t = normalize_type(r, (1, a, r - a))
        assert t == (1, a, r - a)
        assert normalize_type(r, t) == t

    @given(st.integers(min_value=2, max_value=60), st.data())
    @settings(max_examples=200)
    def test_unit_invariance(self, r, data):
        a = data.draw(st.integers(min_value=1, max_value=r - 1))
        u = data.draw(st.integers(min_value=1, max_value=r - 1))
        if gcd(a, r) != 1 or gcd(u, r) != 1:
            return
        scaled = tuple((u * x) % r for x in (1, a, r - a))
        assert canonical_type(normalize_type(r, scaled)) == \
            canonical_type((1, a, r - a))


class TestVertex:
    def test_family_23_w_vertex(self):
        s = vertex_singularity(fam(23), 4)
        assert (s.r, s.type_) == (5, (1, 2, 3))
        assert s.local_params == (0, 1, 2)  # x, y, z
        assert s.eliminated == 3            # t, via the t w^2 monomial

    def test_family_7_w_vertex(self):
        s = vertex_singularity(fam(7), 4)
        assert (s.r, canonical_type(s.type_)) == (3, (1, 1, 2))

    def test_smooth_quartic_has_none(self):
        assert all(vertex_singularity(fam(1), i) is None for i in (1, 2, 3, 4))

    def test_weight_divides_degree(self):
        # No. 3: a4 = 3 divides d = 6, the general member misses O_w
        assert vertex_singularity(fam(3), 4) is None

    def test_explicit_elimination_override(self):
        s = vertex_singularity(fam(50), 2, eliminated=0)
        assert s.local_params == (1, 3, 4)
        with pytest.raises(NoEliminatingMonomial):
            vertex_singularity(fam(50), 2, eliminated=4)

    def test_not_quasismooth_raises(self):
        with pytest.raises(NoEliminatingMonomial):
            vertex_singularity(Family.of(1, 1, 1, 4), 4)
        with pytest.raises(NoEliminatingMonomial):
            default_eliminated(Family.of(1, 1, 1, 4), 4)

    def test_default_chart_is_the_heaviest_candidate(self):
        # the candidate of largest weight, largest index on ties, at all
        # 139 vertex quotient points of the 95 families
        points = 0
        for rec in golden.data().families:
            f = rec.family
            for i in range(1, 5):
                e = default_eliminated(f, i)
                sing = vertex_singularity(f, i)
                assert (e is None) == (sing is None), (f, i)
                if e is None:
                    continue
                assert e == sing.eliminated == max(
                    vertex_elimination_candidates(f, i),
                    key=lambda j: (f.w[j], j)), (f, i)
                points += 1
        assert points == 139


class TestMemberChart:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_generic_member_solves_for_the_census_chart(self, seed):
        points = 0
        for rec in golden.data().families:
            f = rec.family
            member = generic_member(f, seed=seed)
            for i in range(1, 5):
                e = default_eliminated(f, i)
                if e is not None:
                    assert member_chart(f, i, member) == e, (f, i)
                    points += 1
        assert points == 139

    def test_special_member_of_23(self):
        # z^4*y and no z^3*w: the member solves for y at O_z, where the
        # census eliminates w; at O_t and O_w it keeps the census chart
        f = fam(23)
        member = special_member(f)
        assert default_eliminated(f, 2) == 4
        assert member_chart(f, 2, member) == 1
        for i, e in ((3, 1), (4, 3)):
            assert member_chart(f, i, member) == default_eliminated(f, i) == e

    def test_heaviest_contained_candidate_wins(self):
        # O_z of No. 23 has the candidates y (z^4*y) and w (z^3*w)
        f = fam(23)
        both = {eliminating_monomial(f, 2, e): 1 for e in (1, 4)}
        assert member_chart(f, 2, both) == 4
        assert member_chart(f, 2, {}) is None


class TestEdges:
    @pytest.mark.parametrize("no,i,j,count,r,ctype", [
        (7, 2, 3, 4, 2, (1, 1, 1)),
        (36, 2, 3, 1, 2, (1, 1, 1)),
        (22, 1, 2, 7, 2, (1, 1, 1)),
        (95, 3, 4, 1, 11, (1, 5, 6)),
    ])
    def test_table_counts(self, no, i, j, count, r, ctype):
        s = edge_singularities(fam(no), i, j)
        assert (s.count, s.r, canonical_type(s.type_)) == (count, r, ctype)

    def test_coprime_edge_has_none(self):
        assert edge_singularities(fam(23), 1, 2) is None  # gcd(2,3) = 1

    def test_edge_contained_raises(self):
        # weights (3,4,4,6): d = 17 is odd, so no pure monomial in the two
        # weight-4 coordinates exists and the edge, a curve of 1/4 points,
        # lies inside every member
        with pytest.raises(NonTerminal, match="purely in z,t of degree 17"):
            edge_point_count(Family.of(3, 4, 4, 6), 2, 3)


class TestEdgeOracle:
    """Root counting of random binary forms (exact arithmetic)."""

    @staticmethod
    def distinct_root_count(coeffs):
        """Number of distinct nonzero roots of sum c_p u^p over the rationals,
        via the degree drop to the squarefree part."""
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        low = next(i for i, c in enumerate(coeffs) if c != 0)
        poly = coeffs[low:]
        deriv = [i * c for i, c in enumerate(poly)][1:]

        def polymod(a, b):
            a = a[:]
            while len(a) >= len(b) and any(a):
                while a and a[-1] == 0:
                    a.pop()
                if len(a) < len(b):
                    break
                f = a[-1] / b[-1]
                off = len(a) - len(b)
                for i, c in enumerate(b):
                    a[off + i] -= f * c
                a.pop()
            while a and a[-1] == 0:
                a.pop()
            return a

        a, b = poly[:], deriv[:]
        while b:
            a, b = b, polymod(a, b)
        return (len(poly) - 1) - (len(a) - 1)

    @pytest.mark.parametrize("no,i,j", [(7, 2, 3), (36, 2, 3), (22, 1, 2),
                                        (95, 3, 4), (95, 2, 4), (95, 2, 3)])
    def test_oracle_matches_formula(self, no, i, j):
        f = fam(no)
        w5, d = f.w, f.d
        rng = random.Random(f"{no}:{i}:{j}")
        expected = edge_point_count(f, i, j)
        h = gcd(w5[i], w5[j])
        for _ in range(25):
            coeffs = [Fraction(0)] * (d // w5[i] + 1)
            for p in range(len(coeffs)):
                if (d - p * w5[i]) % w5[j] == 0:
                    coeffs[p] = Fraction(rng.randint(1, 10**9))
            pmin = next(k for k, c in enumerate(coeffs) if c != 0)
            nroots = self.distinct_root_count(coeffs)
            # each stratum point lifts to a_j/h distinct u-values
            assert nroots % (w5[j] // h) == 0
            assert nroots // (w5[j] // h) == expected


class TestCensus:
    def test_family_95(self):
        entries = {(e.point_id(), e.count, e.r, canonical_type(e.type_))
                   for e in census(fam(95)).entries}
        assert entries == {
            ("Oy", 1, 5, (1, 2, 3)),
            ("OtOw", 1, 11, (1, 5, 6)),
            ("OzOw", 1, 3, (1, 1, 2)),
            ("OzOt", 1, 2, (1, 1, 1)),
        }

    def test_family_1_empty(self):
        assert census(fam(1)).entries == ()

    def test_family_33_vertices(self):
        entries = {(e.point_id(), e.r, canonical_type(e.type_))
                   for e in census(fam(33)).entries}
        assert entries == {
            ("Ow", 7, (1, 2, 5)), ("Ot", 5, (1, 2, 3)),
            ("Oz", 3, (1, 1, 2)), ("Oy", 2, (1, 1, 1)),
        }

    def test_by_point(self):
        by_point = {e.point_id(): e for e in census(fam(95)).entries}
        assert by_point["OtOw"].r == 11
        assert "Ow" not in by_point


    def test_digest_of_every_small_quadruple(self):
        # the records, or the exception's class and message, of the census
        # of each of the 17,550 quadruples with a4 <= 24
        lines = []
        for w in combinations_with_replacement(range(1, 25), 4):
            try:
                out = repr(census(Family.of(*w)).entries)
            except REFUSALS as e:
                out = f"{type(e).__name__}: {e}"
            lines.append(f"{w} {out}")
        assert len(lines) == 17550
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "3004617e78de99acb78f20192259476ab0cb96f81c237028548881ba4fb060f3")


class TestTerminalFamily:
    def test_members_of_the_95(self):
        assert is_terminal_family(fam(7))
        assert is_terminal_family(fam(95))

    def test_non_terminal_vertex(self):
        assert not is_terminal_family(Family.of(1, 1, 1, 4))

    def test_singular_curve(self):
        assert not is_terminal_family(Family.of(2, 2, 4, 4))

    def test_the_census_refuses_a_family_only_with_its_refusals(self):
        # over the 20,475 quadruples with a4 <= 25 the census returns or
        # raises one of REFUSALS, each of them somewhere, and a family is
        # terminal exactly when no triple of weights shares a factor and the
        # census returns
        outcomes = Counter()
        for w in combinations_with_replacement(range(1, 26), 4):
            f = Family.of(*w)
            try:
                census(f)
            except REFUSALS as exc:
                outcome = type(exc).__name__
            else:
                outcome = "returned"
            outcomes[outcome] += 1
            assert is_terminal_family(f) == (
                no_singular_curves(f.w) and outcome == "returned"), w
        assert {cls.__name__ for cls in REFUSALS} <= set(outcomes)
        assert outcomes == {"returned": 93, "NoEliminatingMonomial": 14247,
                            "NonTerminal": 6135}

    def test_the_triple_gcd_rules_over_every_small_quadruple(self):
        # over the 8,855 quadruples with a4 <= 20: no singular curves
        # exactly when no three weights share a factor, and then X is
        # well-formed, as `enumerate_families` relies on
        count = 0
        for a in combinations_with_replacement(range(1, 21), 4):
            w = (1, *a)
            coprime = all(gcd(*t) == 1 for t in combinations(a, 3))
            assert no_singular_curves(w) is coprime, a
            assert is_wellformed(w) or not coprime, a
            count += 1
        assert count == 8855
