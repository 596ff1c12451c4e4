"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every expected value is an exact rational or an exact set; there are no
numeric tolerances to tune.  Each test prints its own pass line so a
plain `pytest -v -s tests/test_acceptance.py` reads as a checklist.
"""

import random
from fractions import Fraction

import pytest

from wfano import golden
from wfano.blowup import (BlowupContext, b_cubed, divisor_multiplicity,
                          monomial_order, proper_transform_class, s_class_ks)
from wfano.census import (canonical_type, census, edge_point_count,
                          vertex_singularity)
from wfano.exactmath import OVERCUTOFF, implicit_eliminate, parse_poly, series_order
from wfano.golden import match_rows
from wfano.rigidity import (certify_row, curve_status, smooth_point_status,
                            super_rigid_families)
from wfano.rigidity import test_b as ineq_b
from wfano.rigidity import test_n as ineq_n
from wfano.wps import (anticanonical_degree, enumerate_families,
                       generic_member, special_member)

DATA = golden.data()


def fam(no):
    return DATA.family(no).family


def done(label):
    print(f"\nACCEPTANCE {label}: PASS")


def test_criterion_01_enumeration():
    families = enumerate_families(33)
    assert len(families) == 95
    for got, rec in zip(families, DATA.families):
        assert (got.d, got.w) == (rec.family.d, rec.family.w)
        assert got.entry_no == rec.family.entry_no
    # the two documented list corrections
    assert fam(45).w == (1, 3, 4, 5, 8)
    assert fam(93).w == (1, 7, 8, 10, 25)
    assert sum(1 for rec in DATA.families if rec.list_typo) == 2
    done("1 enumeration: 95 families, both list corrections applied")


def test_criterion_02_anticanonical_sweep():
    for rec in DATA.families:
        assert anticanonical_degree(rec.family) == rec.A3
    assert anticanonical_degree(fam(23)) == Fraction(7, 60)
    assert anticanonical_degree(fam(95)) == Fraction(1, 330)
    done("2 anticanonical degrees: 95 exact equalities")


def test_criterion_03_census_sweep():
    entries = 0
    for rec in DATA.families:
        no = rec.family.entry_no
        cens = census(rec.family)
        computed = {e.point_id(): (e.count, e.r, canonical_type(e.type_))
                    for e in cens.entries}
        tabulated: dict[str, set] = {}
        for row in DATA.rows_for(no):
            tabulated.setdefault(row.point, set()).add(
                (row.count, row.r, canonical_type(row.normalized)))
        assert set(computed) == set(tabulated), no
        for point, key in computed.items():
            assert tabulated[point] == {key}, (no, point)
        entries += len(computed)
    assert entries == 248
    done(f"3 census: locations, counts and types match at {entries} points")


def test_criterion_04_b3_signs():
    checked = 0
    for row in DATA.rows:
        if not row.b3_sign:
            continue
        f = fam(row.family_no)
        cert = certify_row(f, row)
        check = next(c for c in cert.checks if c.name == "B^3 sign")
        assert check.passed, (row.family_no, row.point)
        checked += 1
    # spot values
    spots = [
        (10, "Ot", {}, Fraction(1, 2), "+"),
        (9, "Oz", {}, Fraction(0), "0"),
        (12, "OzOw", {}, Fraction(-1, 12), "-"),
        (95, "OtOw", {}, Fraction(0), "0"),
    ]
    for no, point, variant, value, sign in spots:
        row = match_rows(DATA, no, point, variant)[0]
        from wfano.rigidity import _row_singularity
        ctx = BlowupContext(fam(no), _row_singularity(fam(no), row))
        assert b_cubed(ctx) == (value, sign), (no, point)
    done(f"4 B^3 signs: {checked} table signs reproduced, spot values exact")


def test_criterion_05_class_order_consistency():
    checked = 0
    for row in DATA.rows:
        if row.linsys is None:
            continue
        f = fam(row.family_no)
        cert = certify_row(f, row)
        for name in ("transform class", "surface degree"):
            check = next(c for c in cert.checks if c.name == name)
            assert check.passed, (row.family_no, row.point, name, check.detail)
        checked += 1
    # spot values
    f50 = fam(50)
    ctx = BlowupContext(f50, vertex_singularity(f50, 3))
    m = monomial_order((0, 0, 0, 0, 2), f50.w, 7)
    assert m == 8
    cls = proper_transform_class(ctx, 1, Fraction(m, 7))
    assert (cls.beta_B, cls.beta_E) == (1, -1)
    f95 = fam(95)
    ctx = BlowupContext(f95, vertex_singularity(f95, 1))
    m = monomial_order((0, 0, 0, 0, 2), f95.w, 5)
    assert m == 6
    cls = proper_transform_class(ctx, 6, Fraction(m, 5))
    assert (cls.beta_B, cls.beta_E) == (6, 0)
    done(f"5 class/order: {checked} rows consistent, spot classes B-E and 6B")


def test_criterion_06_inequality_certificates():
    from wfano.rigidity import _row_singularity
    n_b = n_n = n_p = 0
    defect_rows = []
    for row in DATA.rows:
        if row.method not in ("B", "N", "P"):
            continue
        f = fam(row.family_no)
        cert = certify_row(f, row)
        if row.method == "P":
            check = next(c for c in cert.checks if c.name == "two-ray game")
            assert check.passed, (row.family_no, row.point)
            n_p += 1
            continue
        name = ("boundary inequality" if row.method == "B"
                else "nef-divisor inequality")
        check = next(c for c in cert.checks if c.name == name)
        if row.defect:
            # the one documented defect: fails by exactly 3 > 1
            ctx = BlowupContext(f, _row_singularity(f, row))
            ok, lhs, rhs = ineq_n(ctx, c=row.linsys[0], m=1, k=1)
            assert not ok and lhs == 3 and rhs == 1
            defect_rows.append((row.family_no, row.point))
            continue
        assert check.passed, (row.family_no, row.point, check.detail)
        n_b += row.method == "B"
        n_n += row.method == "N"
    assert defect_rows == [(52, "Oz")]
    assert (n_b, n_n, n_p) == (155, 31, 16)

    # fault injection: lowering m by one flips every (b) certificate,
    # via the class integrality or the inequality itself
    flipped = 0
    for row in DATA.rows:
        if row.method != "B":
            continue
        f = fam(row.family_no)
        ctx = BlowupContext(f, _row_singularity(f, row))
        c = row.linsys[0]
        m = min(monomial_order(v, f.w, row.r) for v in row.vanishing)
        ok_class = (c - (m - 1)) % row.r == 0
        ok_ineq = all(ineq_b(ctx, c, m - 1, k)[0] for k in s_class_ks(ctx))
        if not (ok_class and ok_ineq and m - 1 > 0):
            flipped += 1
    assert flipped == 155
    done(f"6 inequalities: {n_b} (b) + {n_n} (n) + {n_p} (p) rows pass under "
         f"conservative k; 1 documented defect at No. 52 O_z (3 > 1); "
         f"m-1 flips all 155 (b) certificates")


def test_criterion_07_smooth_point_partition():
    lemma1_fail = {no for no in range(1, 96)
                   if smooth_point_status(fam(no)).kind != "LEMMA1"}
    assert lemma1_fail == {2, 5, 12, 13, 20, 23, 25, 33, 40, 58, 61, 76}
    mpim = {no for no in lemma1_fail
            if smooth_point_status(fam(no)).kind == "MPIM_PAIR"}
    assert mpim == {33, 58}
    # families 1 and 3 carry no certificate tables (classical results);
    # among the tabulated families the special curve set is exactly 2, 4, 5
    curve_special = {no for no in range(1, 96) if DATA.rows_for(no)
                     and curve_status(fam(no)).kind == "SPECIAL"}
    assert curve_special == {2, 4, 5}
    done("7 smooth points: Lemma-1 failures, MPIM pair {33,58}, "
         "curve specials {2,4,5}")


def test_criterion_08_orbifold_multiplicity_oracle():
    f23 = fam(23)
    member = special_member(f23, "special")
    sing = vertex_singularity(f23, 2, eliminated=1)
    ctx = BlowupContext(f23, sing)
    assert divisor_multiplicity(ctx, parse_poly("y"), member,
                                cutoff=4 * 3) == Fraction(2, 3)
    assert divisor_multiplicity(ctx, parse_poly("y*z+x*t"), member,
                                cutoff=4 * 3) == Fraction(5, 3)
    f50 = fam(50)
    sing50 = vertex_singularity(f50, 3)
    ctx50 = BlowupContext(f50, sing50)
    assert divisor_multiplicity(ctx50, parse_poly("y"), generic_member(f50),
                                cutoff=4 * 7) == Fraction(8, 7)

    # the naive residue bound never exceeds the series order
    rng = random.Random(2023)
    for ctx_, member_, label in ((ctx, member, "23 special O_z"),
                                 (ctx50, generic_member(f50), "50 O_t")):
        sing_ = ctx_.singularity
        vertex = sing_.location[1]
        series = implicit_eliminate(member_, vertex, sing_.eliminated,
                                    sing_.residues, 4 * sing_.r)
        w5 = ctx_.family.w
        finite = 0
        for _ in range(1000):
            g = {}
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 2) if i != vertex
                             else rng.randint(0, 1) for i in range(5))
                if any(exps):
                    g[exps] = Fraction(rng.randint(1, 99))
            if not g:
                continue
            naive = min(monomial_order(e, w5, sing_.r) for e in g)
            got = series_order(g, vertex, sing_.eliminated, series, sing_.r)
            if got is OVERCUTOFF:
                continue
            finite += 1
            assert Fraction(naive, sing_.r) <= got, (label, g)
        assert finite > 900, label
    done("8 orbifold orders: 2/3, 5/3, 8/7 at cutoff 4r; naive bound holds "
         "over 1000 random polynomials per point")


def test_criterion_09_super_rigid_audit():
    expected = {1, 3, 10, 11, 14, 19, 21, 22, 28, 29, 34, 35, 37, 39, 49, 50,
                51, 52, 53, 55, 57, 59, 62, 63, 64, 66, 67, 70, 71, 72, 73,
                75, 77, 78, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91,
                92, 93, 94, 95}
    assert len(expected) == 50
    got = super_rigid_families(DATA)
    assert got == expected
    assert got == {rec.family.entry_no for rec in DATA.families
                   if rec.superrigid}
    done("9 super-rigid audit: the 50 all-exclude families match exactly")


def test_criterion_10_edge_count_oracle():
    def distinct_roots(coeffs):
        coeffs = coeffs[:]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        low = next(i for i, c in enumerate(coeffs) if c != 0)
        poly = coeffs[low:]
        deriv = [i * c for i, c in enumerate(poly)][1:]

        def polymod(a, b):
            a = a[:]
            while True:
                while a and a[-1] == 0:
                    a.pop()
                if len(a) < len(b):
                    return a
                factor = a[-1] / b[-1]
                off = len(a) - len(b)
                for i, c in enumerate(b):
                    a[off + i] -= factor * c
                a.pop()

        a, b = poly[:], deriv[:]
        while b:
            a, b = b, polymod(a, b)
            while b and b[-1] == 0:
                b.pop()
        return (len(poly) - 1) - (len(a) - 1)

    from math import gcd
    rng = random.Random(95)
    edges = 0
    for rec in DATA.families:
        f = rec.family
        w5, d = f.w, f.d
        for i in range(1, 5):
            for j in range(i + 1, 5):
                h = gcd(w5[i], w5[j])
                if h == 1:
                    continue
                edges += 1
                expected = edge_point_count(f, i, j)
                lift = w5[j] // h  # u-roots per stratum point
                for _ in range(100):
                    coeffs = [Fraction(0)] * (d // w5[i] + 1)
                    for p in range(len(coeffs)):
                        if (d - p * w5[i]) % w5[j] == 0:
                            coeffs[p] = Fraction(rng.randint(1, 10**9))
                    nroots = distinct_roots(coeffs)
                    assert nroots == lift * expected, (f.entry_no, i, j)
    assert edges >= 60
    done(f"10 edge counts: closed form matches the root-count oracle on "
         f"{edges} edges x 100 samples")
