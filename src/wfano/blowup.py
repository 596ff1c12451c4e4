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


class YClass(NamedTuple):
    """The divisor class beta_B * B + beta_E * E."""

    beta_B: Fraction
    beta_E: Fraction

    @classmethod
    def of(cls, beta_B, beta_E=0) -> "YClass":
        return cls(Fraction(beta_B), Fraction(beta_E))

    def ae_coords(self, r: int) -> tuple[Fraction, Fraction]:
        """Coordinates (alpha_A, alpha_E) in the {A, E} basis."""
        return self.beta_B, self.beta_E - self.beta_B / r

    def __str__(self):
        b, e = self.beta_B, self.beta_E
        if e == 0:
            return f"{b}B" if b != 1 else "B"
        bs = "B" if b == 1 else f"{b}B"
        es = "E" if abs(e) == 1 else f"{abs(e)}E"
        return f"{bs}{'+' if e > 0 else '-'}{es}"


B = YClass.of(1, 0)
E = YClass.of(0, 1)


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

    @property
    def E3(self) -> Fraction:
        return Fraction(self.r * self.r, self.a * self.b)


def triple(ctx: BlowupContext, c1: YClass, c2: YClass, c3: YClass) -> Fraction:
    """Trilinear product of three classes on Y."""
    a1, e1 = c1.ae_coords(ctx.r)
    a2, e2 = c2.ae_coords(ctx.r)
    a3, e3 = c3.ae_coords(ctx.r)
    return a1 * a2 * a3 * ctx.A3 + e1 * e2 * e3 * ctx.E3


def b_cubed(ctx: BlowupContext) -> tuple[Fraction, str]:
    """B^3 = A^3 - 1/(r a (r-a)) with its sign tag."""
    val = triple(ctx, B, B, B)
    assert val == ctx.A3 - Fraction(1, ctx.r * ctx.a * ctx.b)
    return val, ("+" if val > 0 else ("0" if val == 0 else "-"))


def s_class(ctx: BlowupContext) -> tuple[YClass, ...]:
    """Class of the proper transform of the surface {x = 0}.

    Exactly B when a1 = 1 or r does not divide d-1; otherwise B or B - E
    depending on the member, returned as a two-element possibility set.
    """
    a1 = ctx.family.w[1]
    if a1 == 1 or (ctx.family.d - 1) % ctx.r != 0:
        return (B,)
    return (B, YClass.of(1, -1))


def s_class_ks(ctx: BlowupContext) -> tuple[int, ...]:
    """The k values (1 for S ~ B, r+1 for S ~ B-E) matching s_class."""
    return (1,) if len(s_class(ctx)) == 1 else (1, ctx.r + 1)


def monomial_order(exps, weights5, r: int) -> int:
    """Scaled local order of an ambient monomial at a 1/r point.

    Each coordinate contributes its weight residue mod r; coordinates with
    weight divisible by r (the vertex or edge coordinates) contribute 0.
    For a coordinate eliminated by the local chart this is a lower bound,
    exact when its series has no leading cancellation.
    """
    return sum(e * (w % r) for e, w in zip(exps, weights5))


def proper_transform_class(ctx: BlowupContext, c: int, mult: Fraction) -> YClass:
    """Class c*B + ((c-m)/r)E of the transform of a degree-c divisor.

    `mult` is the vanishing order m/r at the point; (c - m)/r must be an
    integer because B and E generate the class group of Y.
    """
    m = mult * ctx.r
    if m.denominator != 1:
        raise NonIntegral(f"multiplicity {mult} is not of the form m/{ctx.r}")
    m = int(m)
    if (c - m) % ctx.r != 0:
        raise NonIntegral(
            f"(c - m)/r = ({c} - {m})/{ctx.r} is not an integer")
    return YClass.of(c, (c - m) // ctx.r)


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
