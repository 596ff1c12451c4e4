"""Singular locus of the general member: cyclic quotient points.

Vertices O_i with a_i > 1 not dividing d carry one quotient point each;
edges O_iO_j with h = gcd(a_i, a_j) > 1 carry finitely many 1/h points,
counted by the degrees of the pure binary part of the equation.  Each
point gets a terminal type 1/r(1, a, r-a), the three coordinates inducing
local parameters, and (at vertices) the coordinate eliminated by the
quasi-smoothness monomial.  The bare-weight triple-gcd rules live here too.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .exactmath import COORDS, OTHERS, Exp5, NoEliminatingMonomial, Poly


# The 4 vertices and 6 edges that carry quotient points, by name, as
# `QuotientSingularity.point_id` writes them: "Oz" -> ("vertex", 2),
# "OzOt" -> ("edge", 2, 3).
EDGES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
LOCATIONS = {"O" + COORDS[i]: ("vertex", i) for i in range(1, 5)}
LOCATIONS.update(("O" + COORDS[i] + "O" + COORDS[j], ("edge", i, j))
                 for i, j in EDGES)


class NonTerminal(ValueError):
    """A quotient type that cannot be normalized to 1/r(1, a, r-a)."""


# What the census raises for a family whose points it cannot place
REFUSALS = (NonTerminal, NoEliminatingMonomial)


def _unit_slot(r: int, v: int, p: int, q: int) -> tuple | None:
    """(v, p, q) / v mod r if that is (1, a, r-a) with v and a units."""
    if r > 1 and gcd(v, r) == gcd(p, r) == 1 and (p + q) % r == 0:
        a = pow(v, -1, r) * p % r
        return 1, a, r - a


def normalize_type(r: int, residues) -> tuple[int, int, int]:
    """Normalize residues to (1, a, r-a) by a unit mod r, or raise
    `NonTerminal`.

    The slot carrying the 1 is chosen as early as possible, so an input
    already of the shape (1, a, r-a) is returned unchanged.
    """
    if len(residues) != 3:
        raise ValueError("need exactly three residues")
    x, y, z = residues
    nt = (_unit_slot(r, x, y, z) or _unit_slot(r, y, x, z)
          or _unit_slot(r, z, x, y))
    if nt is None:
        raise NonTerminal(f"1/{r}{tuple(residues)} is not a terminal type")
    return nt


def canonical_type(t: tuple[int, int, int]) -> tuple[int, int, int]:
    """(1, a, r-a) up to the a <-> r-a symmetry, smaller part first."""
    return (1, min(t[1], t[2]), max(t[1], t[2]))


class QuotientSingularity(namedtuple("QuotientSingularity", (
        "r",
        "type_",          # normalized (1, a, r-a)
        "location",       # ("vertex", i) or ("edge", i, j)
        "count",
        "local_params",   # ambient coordinate indices
        "residues",       # weights of local_params mod r
        "eliminated",     # vertex charts only; else None
))):
    """One cyclic quotient point (or orbit of identical points) on X."""

    __slots__ = ()

    @property
    def a(self) -> int:
        return self.type_[1]

    @property
    def b(self) -> int:
        return self.type_[2]

    def point_id(self) -> str:
        return "".join("O" + COORDS[i] for i in self.location[1:])

    def __str__(self):
        mult = f"{self.count}x" if self.count > 1 else ""
        return f"{self.point_id()} = {mult}1/{self.r}{self.type_}"


Census = namedtuple("Census", "entries")  # tuple[QuotientSingularity, ...]


def _point(f: Family, r: int, location: tuple, count: int,
           eliminated: int | None, locs: tuple) -> QuotientSingularity:
    """The point of order r with local parameters `locs`: their weight
    residues mod r and the type they normalize to."""
    w5 = f.w
    k, l, m = locs
    residues = w5[k] % r, w5[l] % r, w5[m] % r
    return QuotientSingularity(r, normalize_type(r, residues), location,
                               count, locs, residues, eliminated)


def vertex_elimination_candidates(f: Family, i: int) -> list[int]:
    """Coordinates x_j with x_i^k * x_j of degree d, k >= 1 as d-a_j >= a_i."""
    w5, d = f.w, f.d
    return [j for j in range(5) if j != i and (d - w5[j]) % w5[i] == 0]


def eliminating_monomial(f: Family, i: int, e: int) -> Exp5:
    """x_i^k * x_e of degree d, the monomial solving for x_e at O_i."""
    k = (f.d - f.w[e]) // f.w[i]
    return tuple(k if j == i else int(j == e) for j in range(5))


def member_chart(f: Family, i: int, member: Poly) -> int | None:
    """The coordinate the member's equation solves for at O_i: the heaviest
    x_e whose monomial x_i^k * x_e it contains, largest index on ties, or
    None if there is none.  The candidates come in index order and the
    weights never decrease along the coordinates, so the last one the
    member contains is the heaviest."""
    for e in reversed(vertex_elimination_candidates(f, i)):
        if eliminating_monomial(f, i, e) in member:
            return e
    return None


def default_eliminated(f: Family, i: int) -> int | None:
    """The coordinate eliminated at the quotient point O_i by default.

    None when a_i = 1 (smooth point) or a_i | d (the general member misses
    the vertex).  Otherwise the candidate of largest weight, largest index
    on ties, which matches the normal form of the defining equation: the
    weights never decrease along the coordinates, so it is the last one.
    """
    w5, d, r = f.w, f.d, f.w[i]
    if r == 1 or d % r == 0:
        return None
    for j in (4, 3, 2, 1, 0):
        if j != i and (d - w5[j]) % r == 0:
            return j
    raise NoEliminatingMonomial(
        f"no monomial x_{COORDS[i]}^k*x_j of degree {d}: "
        f"family not quasi-smooth at O_{COORDS[i]}")


def vertex_singularity(f: Family, i: int,
                       eliminated: int | None = None
                       ) -> QuotientSingularity | None:
    """The quotient point at the vertex O_i of the general member.

    None when a_i = 1 (smooth point) or a_i | d (the general member misses
    the vertex).  The eliminated coordinate defaults to
    `default_eliminated`; variant members may override it.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError("vertex index must be 1..4")
    default = default_eliminated(f, i)
    if default is None:
        return None
    if eliminated is None:
        eliminated = default
    elif eliminated not in vertex_elimination_candidates(f, i):
        raise NoEliminatingMonomial(
            f"{COORDS[eliminated]} cannot be eliminated at O_{COORDS[i]}")
    return _point(f, f.w[i], ("vertex", i), 1, eliminated,
                  OTHERS[i, eliminated])


def edge_point_count(f: Family, i: int, j: int) -> int:
    """Number of general-member points on the open edge O_iO_j.

    The pure (x_i, x_j) part of the equation is a binary form of degree d;
    after removing the forced vertex powers x_i^pmin x_j^qmin, the open
    stratum of P(a_i, a_j) carries (d - pmin a_i - qmin a_j)/lcm(a_i, a_j)
    distinct zeros for a general member.  That is the number of steps from
    pmin to pmax, as the exponents p step by lcm/a_i = a_j/gcd(a_i, a_j)
    and d - pmin a_i - qmin a_j = (pmax - pmin) a_i.  With no monomial
    purely in x_i, x_j of degree d, the edge, a curve of 1/h points, lies
    in every member: `NonTerminal`.
    `census` never gets here.  It places O_i first, a_i does not divide d,
    and O_i cannot eliminate x_j, so it is refused or keeps x_j, whose
    residue shares h with a_i, as a local parameter.
    """
    d, ai, aj = f.d, f.w[i], f.w[j]
    top = d // ai
    for pmin in range(top + 1):
        if (d - pmin * ai) % aj == 0:
            return (top - pmin) // (aj // gcd(ai, aj))
    raise NonTerminal(
        f"no monomial purely in {COORDS[i]},{COORDS[j]} of degree {d}")


def edge_singularities(f: Family, i: int, j: int
                       ) -> QuotientSingularity | None:
    """Quotient points along the edge O_iO_j, or None when gcd = 1 or empty."""
    if not (1 <= i < j <= 4):
        raise ValueError("edge indices must satisfy 1 <= i < j <= 4")
    h = gcd(f.w[i], f.w[j])
    if h == 1:
        return None
    count = edge_point_count(f, i, j)
    if count == 0:
        return None
    return _point(f, h, ("edge", i, j), count, None, OTHERS[i, j])


def census(f: Family) -> Census:
    """All vertex and edge quotient points of the general member."""
    found = [vertex_singularity(f, i) for i in range(1, 5)]
    found += [edge_singularities(f, i, j) for i, j in EDGES]
    return Census(tuple(s for s in found if s is not None))


def _triple_gcds(w: tuple[int, ...]) -> tuple[int, int, int, int]:
    """The gcds of the four triples of a1..a4 in w = (1, a1, a2, a3, a4)."""
    _, a1, a2, a3, a4 = w
    g12, g34 = gcd(a1, a2), gcd(a3, a4)
    return gcd(g12, a3), gcd(g12, a4), gcd(a1, g34), gcd(a2, g34)


def no_singular_curves(w: tuple[int, int, int, int, int]) -> bool:
    """No three of the bare weights w = (1, a1, a2, a3, a4) share a factor.

    Three weights with a common prime p span a weighted plane whose points
    all have a stabilizer of order p.  X, a hypersurface, meets it in a
    curve of quotient singularities, and terminal threefold singularities
    are isolated.  The enumeration tests it before it builds a `Family`.
    """
    return _triple_gcds(w) == (1, 1, 1, 1)


def is_wellformed(w: tuple[int, int, int, int, int]) -> bool:
    """Whether X_d in P(w) is well-formed (Iano-Fletcher 2000, section 6).
    As a0 = 1: a1..a4 have gcd 1, and each three of them a gcd dividing d."""
    g = _triple_gcds(w)
    d = w[1] + w[2] + w[3] + w[4]
    return gcd(*g) == 1 and not any(d % t for t in g)


def is_terminal_family(f: Family) -> bool:
    """X has only terminal singularities: no triple of weights shares a
    factor (`no_singular_curves`) and every census point is terminal."""
    if not no_singular_curves(f.w):
        return False
    try:
        census(f)
    except REFUSALS:
        return False
    return True
