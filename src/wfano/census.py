"""Singular locus of the general member: cyclic quotient points.

Vertices O_i with a_i > 1 not dividing d carry one quotient point each;
edges O_iO_j with h = gcd(a_i, a_j) > 1 carry finitely many 1/h points,
counted by the degrees of the pure binary part of the equation.  Each
point gets a terminal type 1/r(1, a, r-a), the three coordinates inducing
local parameters, and (at vertices) the coordinate eliminated by the
quasi-smoothness monomial.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import TYPE_CHECKING, NamedTuple, Optional

from .exactmath import COORDS, NoEliminatingMonomial

if TYPE_CHECKING:
    from .wps import Family


# The 4 vertices and 6 edges that carry quotient points, by name, as
# `QuotientSingularity.point_id` writes them: "Oz" -> ("vertex", 2),
# "OzOt" -> ("edge", 2, 3).
LOCATIONS = {"O" + COORDS[i]: ("vertex", i) for i in range(1, 5)}
LOCATIONS.update(("O" + COORDS[i] + "O" + COORDS[j], ("edge", i, j))
                 for i in range(1, 5) for j in range(i + 1, 5))


class NonTerminal(ValueError):
    """A quotient type that cannot be normalized to 1/r(1, a, r-a)."""


class EdgeContained(ValueError):
    """The coordinate edge lies inside every member of the family."""


def try_normalize_type(r: int, residues) -> Optional[tuple[int, int, int]]:
    """Normalize residues to (1, a, r-a) by a unit mod r, or None.

    The slot carrying the 1 is chosen as early as possible, so an input
    already of the shape (1, a, r-a) is returned unchanged.
    """
    res = tuple(x % r for x in residues)
    if len(res) != 3:
        raise ValueError("need exactly three residues")
    for k in range(3):
        v = res[k]
        if v == 0 or gcd(v, r) != 1:
            continue
        u = pow(v, -1, r)
        rest = [res[i] for i in range(3) if i != k]
        a, b = (u * rest[0]) % r, (u * rest[1]) % r
        if a != 0 and (a + b) % r == 0 and gcd(a, r) == 1:
            return (1, a, b)
    return None


def normalize_type(r: int, residues) -> tuple[int, int, int]:
    if r < 2:
        raise ValueError("quotient order must be at least 2")
    nt = try_normalize_type(r, residues)
    if nt is None:
        raise NonTerminal(f"1/{r}{tuple(residues)} is not a terminal type")
    return nt


def canonical_type(t: tuple[int, int, int]) -> tuple[int, int, int]:
    """(1, a, r-a) up to the a <-> r-a symmetry, smaller part first."""
    return (1, min(t[1], t[2]), max(t[1], t[2]))


class QuotientSingularity(NamedTuple):
    """One cyclic quotient point (or orbit of identical points) on X."""

    r: int
    type_: tuple[int, int, int]          # normalized (1, a, r-a)
    location: tuple                       # ("vertex", i) or ("edge", i, j)
    count: int
    local_params: tuple[int, int, int]    # ambient coordinate indices
    residues: tuple[int, int, int]        # weights of local_params mod r
    eliminated: Optional[int] = None      # vertex charts only

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


class Census(NamedTuple):
    entries: tuple[QuotientSingularity, ...]


def vertex_elimination_candidates(f: Family, i: int) -> list[int]:
    """Coordinates x_j with x_i^k * x_j of degree d for some k >= 1."""
    w5, d = f.w, f.d
    return [j for j in range(5)
            if j != i and (d - w5[j]) % w5[i] == 0 and (d - w5[j]) >= w5[i]]


def default_eliminated(f: Family, i: int) -> Optional[int]:
    """The coordinate eliminated at the quotient point O_i by default.

    None when a_i = 1 (smooth point) or a_i | d (the general member misses
    the vertex).  Otherwise the candidate of largest weight, largest index
    on ties, which matches the normal form of the defining equation: the
    weights never decrease along the coordinates, so it is the last one.
    """
    w5, d = f.w, f.d
    r = w5[i]
    if r == 1 or d % r == 0:
        return None
    cands = vertex_elimination_candidates(f, i)
    if not cands:
        raise NoEliminatingMonomial(
            f"no monomial x_{COORDS[i]}^k*x_j of degree {d}: "
            f"family not quasi-smooth at O_{COORDS[i]}")
    return cands[-1]


def vertex_singularity(f: Family, i: int,
                       eliminated: Optional[int] = None
                       ) -> Optional[QuotientSingularity]:
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
    locs = tuple(j for j in range(5) if j not in (i, eliminated))
    residues = tuple(w5[j] % r for j in locs)
    return QuotientSingularity(
        r=r, type_=normalize_type(r, residues), location=("vertex", i),
        count=1, local_params=locs, residues=residues, eliminated=eliminated)


def edge_point_count(f: Family, i: int, j: int) -> int:
    """Number of general-member points on the open edge O_iO_j.

    The pure (x_i, x_j) part of the equation is a binary form of degree d;
    after removing the forced vertex powers x_i^pmin x_j^qmin, the open
    stratum of P(a_i, a_j) carries (d - pmin a_i - qmin a_j)/lcm(a_i, a_j)
    distinct zeros for a general member.
    """
    w5, d = f.w, f.d
    sols = [(p, (d - p * w5[i]) // w5[j])
            for p in range(d // w5[i] + 1)
            if (d - p * w5[i]) % w5[j] == 0]
    if not sols:
        raise EdgeContained(
            f"no monomial purely in {COORDS[i]},{COORDS[j]} of degree {d}")
    pmin = min(p for p, _q in sols)
    qmin = min(q for _p, q in sols)
    return (d - pmin * w5[i] - qmin * w5[j]) // lcm(w5[i], w5[j])


def edge_singularities(f: Family, i: int, j: int
                       ) -> Optional[QuotientSingularity]:
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
    locs = tuple(k for k in range(5) if k not in (i, j))
    residues = tuple(w5[k] % h for k in locs)
    return QuotientSingularity(
        r=h, type_=normalize_type(h, residues), location=("edge", i, j),
        count=count, local_params=locs, residues=residues, eliminated=None)


def census(f: Family) -> Census:
    """All vertex and edge quotient points of the general member."""
    entries = []
    for i in range(1, 5):
        s = vertex_singularity(f, i)
        if s is not None:
            entries.append(s)
    for i in range(1, 5):
        for j in range(i + 1, 5):
            s = edge_singularities(f, i, j)
            if s is not None:
                entries.append(s)
    return Census(tuple(entries))


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
