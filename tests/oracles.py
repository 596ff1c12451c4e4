"""Reference versions of package rules, kept for the tests only.

Each is a slower or more general statement of a rule that the package
decides another way, so the tests can compare the two:

- `ineq_b`, `ineq_n`: the (b) and (n) inequalities with both sides as
  separate `Fraction`s, against the inequality check of
  `rigidity.certify_row`;
- `leading_minors`: the leading minors of a matrix by cofactor expansion,
  against the single elimination of `rigidity.neg_definite`;
- `s_class`: the possible classes of the surface {x = 0}, as (b, e)
  pairs, against the k values of `blowup.s_class_ks`;
- `proper_transform_class`: the transform class from an order m/r, over
  `blowup.transform_beta_E`;
- `weighted_monomials`: every monomial of a degree, against the support of
  `wps.normal_form_support`;
- `normalized_types`: every residue triple mod r that a unit scales to
  (1, a, r-a), built forward from the shapes, against
  `census.normalize_type`;
- `row_point`: the quotient point a golden row names, in the chart its
  subscripts pick, where `rigidity.certify_row` takes the census point,
  whose r, count and type are the same in every chart.

The inequality oracles are not named `test_*`, so pytest does not collect
them where a test file imports them.
"""

from fractions import Fraction
from math import gcd

from wfano.blowup import B, NonIntegral, transform_beta_E
from wfano.census import (QuotientSingularity, edge_singularities,
                          vertex_singularity)
from wfano.exactmath import Exp5
from wfano.golden import GoldenRow
from wfano.rigidity import _subscript_chart
from wfano.wps import Family, anticanonical_degree

E = (0, 1)


def ineq_b(f: Family, sing: QuotientSingularity, c: int, m: int,
           k: int) -> tuple[bool, Fraction, Fraction]:
    """Boundary test for method (b): r*a*(r-a)*c^2*A^3 <= k*m^2."""
    lhs = sing.r * sing.a * sing.b * c * c * anticanonical_degree(f)
    rhs = Fraction(k * m * m)
    return lhs <= rhs, lhs, rhs


def ineq_n(f: Family, sing: QuotientSingularity, c: int, m: int,
           k: int) -> tuple[bool, Fraction, Fraction]:
    """Nef-divisor test for method (n): r*a*(r-a)*c*A^3 <= k*m."""
    lhs = sing.r * sing.a * sing.b * c * anticanonical_degree(f)
    rhs = Fraction(k * m)
    return lhs <= rhs, lhs, rhs


def leading_minors(m: list[list[Fraction]]) -> list[Fraction]:
    """D_1..D_n of a square matrix: the determinants of its top-left k x k
    blocks, each by cofactor expansion along the first row."""
    return [_cofactor_det([row[:k] for row in m[:k]])
            for k in range(1, len(m) + 1)]


def _cofactor_det(m: list[list[Fraction]]) -> Fraction:
    if not m:
        return Fraction(1)
    return sum((-1) ** j * m[0][j]
               * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def s_class(f: Family, r: int) -> tuple[tuple[int, int], ...]:
    """Class of the proper transform of the surface {x = 0} at a 1/r point.

    Exactly B when a1 = 1 or r does not divide d-1; otherwise B or B - E
    depending on the member, returned as a two-element possibility set.
    """
    if f.w[1] != 1 and (f.d - 1) % r == 0:
        return (B, (1, -1))
    return (B,)


def proper_transform_class(r: int, c: int,
                           mult: Fraction) -> tuple[int, int]:
    """Class c*B + ((c-m)/r)E of the transform of a degree-c divisor at a
    1/r point, as a (b, e) pair.

    `mult` is the vanishing order m/r at the point.
    """
    m = mult * r
    if m.denominator != 1:
        raise NonIntegral(f"multiplicity {mult} is not of the form m/{r}")
    return (c, transform_beta_E(r, c, int(m)))


def weighted_monomials(weights, d: int) -> set[Exp5]:
    """All exponent vectors of weighted degree exactly d.

    `weights` is the 5-vector (1, a1, a2, a3, a4).  The empty set is a
    valid result; degree 0 yields the single constant monomial.
    """
    weights = tuple(weights)
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    # fill the heaviest coordinates first; x (weight 1) takes what is left
    partial = [((), d)]  # (trailing exponents, degree still to fill)
    for w in reversed(weights[1:]):
        partial = [((e,) + exps, rest - e * w) for exps, rest in partial
                   for e in range(rest // w + 1)]
    first = weights[0]
    return {(rest // first,) + exps for exps, rest in partial
            if rest % first == 0}


def normalized_types(r: int) -> dict[tuple[int, int, int],
                                      tuple[int, int, int]]:
    """Each residue triple mod r that is a unit times a slot arrangement of
    (1, a, r-a), a a unit, mapped to that (1, a, r-a).

    The 1 may sit in any slot, with a and r-a in the other two in order; a
    triple that two slots reach keeps the result of the earliest one.
    """
    units = [u for u in range(1, r) if gcd(u, r) == 1]
    out = {}
    for k in (2, 1, 0):  # an earlier slot overwrites a later one
        for a in units:
            shape = [a, r - a]
            shape.insert(k, 1)
            for c in units:
                out[tuple(c * x % r for x in shape)] = (1, a, r - a)
    return out


def row_point(f: Family, row: GoldenRow) -> QuotientSingularity:
    """The quotient point at the row's location; at a vertex whose
    subscripts leave one coordinate besides the vertex, that coordinate is
    the one eliminated, so the residues and chart are the row's own."""
    loc = row.location
    if loc[0] == "vertex":
        return vertex_singularity(f, loc[1], eliminated=_subscript_chart(row))
    return edge_singularities(f, loc[1], loc[2])
