"""Singular locus of the general member: cyclic quotient points.

Vertices O_i with a_i > 1 not dividing d carry one quotient point each;
edges O_iO_j with h = gcd(a_i, a_j) > 1 carry finitely many 1/h points,
counted by the degrees of the pure binary part of the equation.  Each
point gets a terminal type 1/r(1, a, r-a), the three coordinates inducing
local parameters, and (at vertices) the coordinate eliminated by the
quasi-smoothness monomial.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .exactmath import COORDS, Exp5, NoEliminatingMonomial, Poly


# The 4 vertices and 6 edges that carry quotient points, by name, as
# `QuotientSingularity.point_id` writes them: "Oz" -> ("vertex", 2),
# "OzOt" -> ("edge", 2, 3).
EDGES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
LOCATIONS = {"O" + COORDS[i]: ("vertex", i) for i in range(1, 5)}
LOCATIONS.update(("O" + COORDS[i] + "O" + COORDS[j], ("edge", i, j))
                 for i, j in EDGES)

# (i, j) -> the three coordinates other than i and j, in order: the local
# parameters at O_i when x_j is eliminated, and along the edge O_iO_j
OTHERS = {(i, j): tuple(k for k in range(5) if k not in (i, j))
          for i in range(5) for j in range(5) if i != j}


class NonTerminal(ValueError):
    """A quotient type that cannot be normalized to 1/r(1, a, r-a)."""


class EdgeContained(ValueError):
    """The coordinate edge lies inside every member of the family."""


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
        "eliminated",     # vertex charts only; None by default
), defaults=(None,))):
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


def vertex_elimination_candidates(f: Family, i: int) -> list[int]:
    """Coordinates x_j with x_i^k * x_j of degree d for some k >= 1."""
    w5, d = f.w, f.d
    return [j for j in range(5)
            if j != i and (d - w5[j]) % w5[i] == 0 and (d - w5[j]) >= w5[i]]


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
        if j != i and (d - w5[j]) % r == 0 and d - w5[j] >= r:
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
    w5, r = f.w, f.w[i]
    k, l, m = locs = OTHERS[i, eliminated]
    residues = w5[k] % r, w5[l] % r, w5[m] % r
    return QuotientSingularity(
        r=r, type_=normalize_type(r, residues), location=("vertex", i),
        count=1, local_params=locs, residues=residues, eliminated=eliminated)


def edge_point_count(f: Family, i: int, j: int) -> int:
    """Number of general-member points on the open edge O_iO_j.

    The pure (x_i, x_j) part of the equation is a binary form of degree d;
    after removing the forced vertex powers x_i^pmin x_j^qmin, the open
    stratum of P(a_i, a_j) carries (d - pmin a_i - qmin a_j)/lcm(a_i, a_j)
    distinct zeros for a general member.  That is the number of steps from
    pmin to pmax, as the exponents p step by lcm/a_i = a_j/gcd(a_i, a_j)
    and d - pmin a_i - qmin a_j = (pmax - pmin) a_i.
    """
    d, ai, aj = f.d, f.w[i], f.w[j]
    top = d // ai
    for pmin in range(top + 1):
        if (d - pmin * ai) % aj == 0:
            return (top - pmin) // (aj // gcd(ai, aj))
    raise EdgeContained(
        f"no monomial purely in {COORDS[i]},{COORDS[j]} of degree {d}")


def edge_singularities(f: Family, i: int, j: int
                       ) -> QuotientSingularity | None:
    """Quotient points along the edge O_iO_j, or None when gcd = 1 or empty."""
    if not (1 <= i < j <= 4):
        raise ValueError("edge indices must satisfy 1 <= i < j <= 4")
    w5 = f.w
    h = gcd(w5[i], w5[j])
    if h == 1:
        return None
    count = edge_point_count(f, i, j)
    if count == 0:
        return None
    k, l, m = locs = OTHERS[i, j]
    residues = w5[k] % h, w5[l] % h, w5[m] % h
    return QuotientSingularity(
        r=h, type_=normalize_type(h, residues), location=("edge", i, j),
        count=count, local_params=locs, residues=residues, eliminated=None)


def census(f: Family) -> Census:
    """All vertex and edge quotient points of the general member."""
    found = [vertex_singularity(f, i) for i in range(1, 5)]
    found += [edge_singularities(f, i, j) for i, j in EDGES]
    return Census(tuple(s for s in found if s is not None))


def no_singular_curves(w: tuple[int, int, int, int, int]) -> bool:
    """No three of the bare weights w = (1, a1, a2, a3, a4) share a factor.

    Three weights with a common prime p span a weighted plane whose points
    all have a stabilizer of order p.  X, a hypersurface, meets it in a
    curve of quotient singularities, and terminal threefold singularities
    are isolated.  The enumeration tests it before it builds a `Family`.
    """
    _, a1, a2, a3, a4 = w
    g12 = gcd(a1, a2)
    g34 = gcd(a3, a4)
    return (gcd(g12, a3) == 1 and gcd(g12, a4) == 1
            and gcd(a1, g34) == 1 and gcd(a2, g34) == 1)


def is_terminal_family(f: Family) -> bool:
    """X has only terminal singularities: no triple of weights shares a
    factor (`no_singular_curves`) and every census point is terminal."""
    if not no_singular_curves(f.w):
        return False
    try:
        census(f)
    except (NonTerminal, EdgeContained, NoEliminatingMonomial):
        return False
    return True
