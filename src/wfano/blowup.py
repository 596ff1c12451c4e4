"""Intersection calculus on the Kawamata blow-up Y -> X at a terminal point.

The blow-up is fixed by the family and its census point 1/r(1, a, r-a);
the functions here take the two as they are.  Divisor classes on Y are
(b, e) pairs, the class b*B + e*E in the basis {B, E}, where B = -K_Y and
E is the exceptional divisor; the coefficients are `int`s or `Fraction`s.
A denotes the pull-back of -K_X, with B = A - (1/r)E.  The only nonzero
top products are A^3 (the anticanonical degree of the family) and
E^3 = r^2/(a(r-a)); the mixed products A^2 E and A E^2 vanish.
"""

from __future__ import annotations

from fractions import Fraction

from .census import QuotientSingularity
from .exactmath import Poly, series_order
from .wps import Family

# The default series cutoff of `divisor_multiplicity`, in multiples of r.
DEFAULT_CUTOFF = 4

# The class B = -K_Y as a (b, e) pair.
B = (1, 0)


class NonIntegral(ValueError):
    """(c - m)/r is not an integer: inconsistent family/point/divisor data."""


class CrossCheckFailed(ArithmeticError):
    """The closed form of B^3 disagrees with the trilinear product B.B.B."""


def format_class(b, e) -> str:
    """The class b*B + e*E as text, e.g. "2B-E"; b and e may be `int`s or
    `Fraction`s, which print alike at integer values."""
    if e == 0:
        return f"{b}B" if b != 1 else "B"
    bs = "B" if b == 1 else f"{b}B"
    es = "E" if abs(e) == 1 else f"{abs(e)}E"
    return f"{bs}{'+' if e > 0 else '-'}{es}"


def triple(f: Family, sing: QuotientSingularity, c1, c2, c3) -> Fraction:
    """Trilinear product of three (b, e) classes on Y, on integer numerators.

    The class b*B + e*E is b*A + (g/r)*E with g = r*e - b, so with
    A^3 = d/P (P = a1 a2 a3 a4) and E^3 = r^2/(a b) the product is
    b1 b2 b3 d/P + g1 g2 g3/(r a b).  Each coefficient is read as its
    numerator over its denominator (`int`s and `Fraction`s alike), the sum
    is taken over one common denominator and one `Fraction` is built.
    """
    r = sing.r
    w = f.w
    prod = w[1] * w[2] * w[3] * w[4]
    rab = r * sing.a * sing.b
    # Over den_i = db_i * de_i, b_i = nb_i * de_i / den_i and
    # g_i = (r * ne_i * db_i - nb_i * de_i) / den_i; bn, gn and den are the
    # products over the three classes.
    bn = gn = den = 1
    for beta_B, beta_E in (c1, c2, c3):
        nb, db = beta_B.numerator, beta_B.denominator
        ne, de = beta_E.numerator, beta_E.denominator
        bn *= nb * de
        gn *= r * ne * db - nb * de
        den *= db * de
    return Fraction(bn * f.d * rab + gn * prod, den * prod * rab)


def b_cubed(f: Family, sing: QuotientSingularity) -> tuple[Fraction, str]:
    """B^3 = A^3 - 1/(r a (r-a)) with its sign tag.

    With P = a1 a2 a3 a4 and A^3 = d/P this is (d r a b - P)/(P r a b),
    b = r - a, so the sign is that of the integer numerator.  The value is
    checked against the trilinear product B.B.B on every call, under
    `python -O` too: a disagreement raises `CrossCheckFailed`.
    """
    w = f.w
    prod = w[1] * w[2] * w[3] * w[4]
    rab = sing.r * sing.a * sing.b
    num = f.d * rab - prod
    val = Fraction(num, prod * rab)
    cross = triple(f, sing, B, B, B)
    if val != cross:
        raise CrossCheckFailed(
            f"No. {f.entry_no} {sing}: B^3 = {val} by "
            f"its closed form but {cross} as B.B.B")
    return val, ("+" if num > 0 else ("0" if num == 0 else "-"))


def s_class_ks(f: Family, r: int) -> tuple[int, ...]:
    """The k values of the proper transform S of the surface {x = 0} at a
    1/r point: 1 for S ~ B and r+1 for S ~ B-E.

    S is exactly B when a1 = 1 or r does not divide d-1; otherwise it is B
    or B - E depending on the member, and both k values are returned.
    """
    if f.w[1] != 1 and (f.d - 1) % r == 0:
        return (1, r + 1)
    return (1,)


def monomial_order(exps, weights5, r: int) -> int:
    """Scaled local order of an ambient monomial at a 1/r point.

    Each coordinate contributes its weight residue mod r; coordinates with
    weight divisible by r (the vertex or edge coordinates) contribute 0.
    For a coordinate eliminated by the local chart this is a lower bound,
    exact when its series has no leading cancellation.
    """
    return sum(e * (w % r) for e, w in zip(exps, weights5))


def transform_beta_E(r: int, c: int, m: int) -> int:
    """(c - m)/r, the E-coefficient of the transform class of a degree-c
    divisor of vanishing order m/r; it must be an integer because B and E
    generate the class group of Y."""
    if (c - m) % r != 0:
        raise NonIntegral(f"(c - m)/r = ({c} - {m})/{r} is not an integer")
    return (c - m) // r


def divisor_multiplicity(sing: QuotientSingularity, g: Poly, member: Poly,
                         cutoff: int | None = None):
    """Vanishing order m/r of g at the point, on the given member.

    The point must be a vertex with an eliminated coordinate, or
    `ValueError` is raised.  Eliminates that coordinate from the member
    equation only as deep as the first surviving degree of g, at most to
    the given cutoff (default DEFAULT_CUTOFF * r).  Returns OVERCUTOFF when
    no term of g survives below the cutoff, cancelled or lying past it: the
    order is at least cutoff/r.
    """
    if sing.location[0] != "vertex" or sing.eliminated is None:
        raise ValueError("series orders need a vertex chart")
    if cutoff is None:
        cutoff = DEFAULT_CUTOFF * sing.r
    return series_order(g, member, sing.location[1], sing.eliminated,
                        sing.residues, cutoff, sing.r)
