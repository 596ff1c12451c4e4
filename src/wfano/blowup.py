"""Intersection calculus on the Kawamata blow-up Y -> X at a terminal point.

Divisor classes on Y are written in the basis {B, E}, where B = -K_Y and
E is the exceptional divisor; A denotes the pull-back of -K_X, with
B = A - (1/r)E.  The only nonzero top products are A^3 (the anticanonical
degree of the family) and E^3 = r^2/(a(r-a)); the mixed products A^2 E
and A E^2 vanish.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .census import QuotientSingularity
from .exactmath import Poly, series_order
from .wps import Family, anticanonical_degree

# The default series cutoff of `divisor_multiplicity`, in multiples of r.
DEFAULT_CUTOFF = 4


class NonIntegral(ValueError):
    """(c - m)/r is not an integer: inconsistent family/point/divisor data."""


class CrossCheckFailed(ArithmeticError):
    """The closed form of B^3 disagrees with the trilinear product B.B.B."""


class YClass(NamedTuple):
    """The divisor class beta_B * B + beta_E * E."""

    beta_B: Fraction
    beta_E: Fraction

    @classmethod
    def of(cls, beta_B, beta_E=0) -> "YClass":
        return cls(Fraction(beta_B), Fraction(beta_E))

    def __str__(self):
        return format_class(self.beta_B, self.beta_E)


def format_class(b, e) -> str:
    """The class b*B + e*E as `YClass` prints it, e.g. "2B-E"; b and e may
    be `int`s or `Fraction`s, which print alike at integer values."""
    if e == 0:
        return f"{b}B" if b != 1 else "B"
    bs = "B" if b == 1 else f"{b}B"
    es = "E" if abs(e) == 1 else f"{abs(e)}E"
    return f"{bs}{'+' if e > 0 else '-'}{es}"


B = YClass.of(1, 0)


class BlowupContext(NamedTuple):
    """The weighted blow-up of the family member at one quotient point."""

    family: Family
    singularity: QuotientSingularity

    @property
    def r(self) -> int:
        return self.singularity.r

    @property
    def a(self) -> int:
        return self.singularity.a

    @property
    def b(self) -> int:
        return self.singularity.b

    @property
    def A3(self) -> Fraction:
        return anticanonical_degree(self.family)


def triple(ctx: BlowupContext, c1: YClass, c2: YClass, c3: YClass) -> Fraction:
    """Trilinear product of three classes on Y, on integer numerators.

    The class b*B + e*E is b*A + (f/r)*E with f = r*e - b, so with
    A^3 = d/P (P = a1 a2 a3 a4) and E^3 = r^2/(a b) the product is
    b1 b2 b3 d/P + f1 f2 f3/(r a b).  Each coefficient is read as its
    numerator over its denominator (`int`s and `Fraction`s alike), the sum
    is taken over one common denominator and one `Fraction` is built.
    """
    r = ctx.r
    w = ctx.family.w
    prod = w[1] * w[2] * w[3] * w[4]
    rab = r * ctx.a * ctx.b
    # Over den_i = db_i * de_i, b_i = nb_i * de_i / den_i and
    # f_i = (r * ne_i * db_i - nb_i * de_i) / den_i; bn, fn and den are the
    # products over the three classes.
    bn = fn = den = 1
    for beta_B, beta_E in (c1, c2, c3):
        nb, db = beta_B.numerator, beta_B.denominator
        ne, de = beta_E.numerator, beta_E.denominator
        bn *= nb * de
        fn *= r * ne * db - nb * de
        den *= db * de
    return Fraction(bn * ctx.family.d * rab + fn * prod, den * prod * rab)


def b_cubed(ctx: BlowupContext) -> tuple[Fraction, str]:
    """B^3 = A^3 - 1/(r a (r-a)) with its sign tag.

    With P = a1 a2 a3 a4 and A^3 = d/P this is (d r a b - P)/(P r a b),
    b = r - a, so the sign is that of the integer numerator.  The value is
    checked against the trilinear product B.B.B on every call, under
    `python -O` too: a disagreement raises `CrossCheckFailed`.
    """
    w = ctx.family.w
    prod = w[1] * w[2] * w[3] * w[4]
    rab = ctx.r * ctx.a * ctx.b
    num = ctx.family.d * rab - prod
    val = Fraction(num, prod * rab)
    cross = triple(ctx, B, B, B)
    if val != cross:
        raise CrossCheckFailed(
            f"No. {ctx.family.entry_no} {ctx.singularity}: B^3 = {val} by "
            f"its closed form but {cross} as B.B.B")
    return val, ("+" if num > 0 else ("0" if num == 0 else "-"))


def s_class_ks(ctx: BlowupContext) -> tuple[int, ...]:
    """The k values of the proper transform S of the surface {x = 0}: 1 for
    S ~ B and r+1 for S ~ B-E.

    S is exactly B when a1 = 1 or r does not divide d-1; otherwise it is B
    or B - E depending on the member, and both k values are returned.
    """
    if ctx.family.w[1] != 1 and (ctx.family.d - 1) % ctx.r == 0:
        return (1, ctx.r + 1)
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


def vertex_chart(ctx: BlowupContext):
    """(chart_vertex, eliminated, local residue weights) for series work."""
    sing = ctx.singularity
    if sing.location[0] != "vertex" or sing.eliminated is None:
        raise ValueError("series orders need a vertex chart")
    return sing.location[1], sing.eliminated, sing.residues


def divisor_multiplicity(ctx: BlowupContext, g: Poly, member: Poly,
                         cutoff: Optional[int] = None):
    """Vanishing order m/r of g at the point, on the given member.

    Eliminates the chart coordinate from the member equation only as deep
    as the first surviving degree of g, at most to the given cutoff
    (default DEFAULT_CUTOFF * r).  Returns OVERCUTOFF when no term of g
    survives below the cutoff, cancelled or lying past it: the order is at
    least cutoff/r.
    """
    if cutoff is None:
        cutoff = DEFAULT_CUTOFF * ctx.r
    return series_order(g, member, *vertex_chart(ctx), cutoff, ctx.r)
