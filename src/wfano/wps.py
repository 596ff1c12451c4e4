"""Weighted projective spaces P(1,a1,a2,a3,a4) and their Fano hypersurfaces.

A family is a weight quadruple a1 <= a2 <= a3 <= a4 together with the
anticanonical degree d = a1+a2+a3+a4, held in an immutable `Family`.  The
module decides well-formedness and quasi-smoothness of the general member
combinatorially, enumerates all families with terminal singularities, and
builds concrete general members with deterministic pseudo-random
coefficients for order computations.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import gcd, lcm

from .census import (default_eliminated, eliminating_monomial,
                     is_terminal_family, no_singular_curves)
from .exactmath import COORDS, Exp5, Poly, parse_poly


# `Family.__init__` fills the slots that its own `__setattr__` refuses
_set = object.__setattr__


class Family:
    """An anticanonically embedded hypersurface family X_d in P(1,a1..a4).

    `w` is the 5-vector (1, a1, a2, a3, a4) with 0 < a1 <= a2 <= a3 <= a4,
    and the degree d = a1+a2+a3+a4 is derived from it.  Families are
    immutable and compare by identity: code that compares two families
    compares their `w`.
    """

    __slots__ = ("w", "entry_no", "d")

    def __init__(self, w: tuple[int, int, int, int, int],
                 entry_no: int | None = None):
        if len(w) != 5 or w[0] != 1:
            raise ValueError("weights must be (1, a1, a2, a3, a4)")
        if not 0 < w[1] <= w[2] <= w[3] <= w[4]:
            raise ValueError("weights must be positive and nondecreasing "
                             "from index 1")
        _set(self, "w", w)
        _set(self, "entry_no", entry_no)
        _set(self, "d", w[1] + w[2] + w[3] + w[4])

    @classmethod
    def of(cls, a1: int, a2: int, a3: int, a4: int,
           entry_no: int | None = None) -> "Family":
        return cls((1, a1, a2, a3, a4), entry_no)

    def _frozen(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __setattr__ = __delattr__ = _frozen

    def __repr__(self):
        return f"Family(w={self.w!r}, entry_no={self.entry_no!r}, d={self.d!r})"

    def __str__(self):
        tag = f"No. {self.entry_no}: " if self.entry_no else ""
        return f"{tag}X_{self.d} in P{self.w}"


def anticanonical_degree(f: Family) -> Fraction:
    """A^3 = -K^3 = d / (a1*a2*a3*a4)."""
    a = f.w
    return Fraction(f.d, a[1] * a[2] * a[3] * a[4])


def hat_lcms(f: Family) -> tuple[int, int, int]:
    """(hat a2, hat a3, hat a4): lcm of the three weights other than a_i."""
    a = f.w
    return (lcm(a[1], a[3], a[4]), lcm(a[1], a[2], a[4]), lcm(a[1], a[2], a[3]))


def is_wellformed(w: Iterable[int]) -> bool:
    """Every 4-subset of the weights has gcd 1 (a0 = 1 reduces this to one gcd)."""
    a = tuple(w)
    return gcd(gcd(a[1], a[2]), gcd(a[3], a[4])) == 1


# ----------------------------------------------------- quasi-smoothness

def _extend_mask(mask: int, a: int, bound: int) -> int:
    """`mask` with the generator a added: bit t is set iff t - k*a is set in
    `mask` for some k >= 0, for t <= bound.

    a enters by doubling shifts: after the shifts by a, 2a, ..., 2^j a the
    mask holds every sum with up to 2^(j+1) - 1 more copies of a.
    """
    full = (1 << (bound + 1)) - 1
    while a <= bound:
        mask |= (mask << a) & full
        a *= 2
    return mask


def _has_monomial_with(mask: int, t: int, coords: int, w5) -> bool:
    """Whether degree t is reached, within the subset of `mask`, by a
    monomial that contains some x_i with bit i set in `coords`."""
    return any(coords >> i & 1 and mask >> (t - w5[i]) & 1 for i in range(5))


QuasiSmoothDiagnostics = namedtuple("QuasiSmoothDiagnostics", "ok detail",
                                    defaults=("",))


def general_quasismooth(f: Family, exclude_pure: tuple[int, ...] | None = None,
                        ) -> QuasiSmoothDiagnostics:
    """Quasi-smoothness of the general member by the coordinate-subset test.

    For every nonempty subset I of the five coordinates, the general member
    must admit either (a) a degree-d monomial supported in I, or (b) |I|
    degree-d monomials of the shape (monomial in I) * x_e with pairwise
    distinct external indices e.

    `exclude_pure`, when given, removes from the support every monomial
    supported inside that coordinate set (used to probe members containing
    the corresponding coordinate stratum, e.g. the t-w line); neither (a)
    nor (b) may then rest on such a monomial.

    Subsets are bit sets over the coordinates, walked in increasing order.
    masks[I] has bit t set iff degree t is reached by monomials in I; it
    extends the mask of I minus its lowest coordinate by that coordinate's
    weight, and every I that holds x (weight 1) reaches all of 0..d.  Any
    two weights sum to less than d, so no shift below is negative.
    """
    w5, d = f.w, f.d
    banned = sum(1 << i for i in exclude_pure) if exclude_pure else 0
    full = (1 << (d + 1)) - 1
    masks = [1] * 32
    for bits in range(1, 32):
        rest = bits & (bits - 1)
        mask = masks[bits] = full if bits & 1 else _extend_mask(
            masks[rest], w5[(bits ^ rest).bit_length() - 1], d)
        free = bits & ~banned
        if (_has_monomial_with(mask, d, free, w5) if banned
                else mask >> d & 1):
            continue
        subset = tuple(i for i in range(5) if bits >> i & 1)
        # an excluded x_e needs a cofactor that leaves the excluded set
        externals = sum(
            1 for e in range(5) if not bits >> e & 1
            and (_has_monomial_with(mask, d - w5[e], free, w5)
                 if banned >> e & 1 else mask >> (d - w5[e]) & 1))
        if externals < len(subset):
            names = "".join(COORDS[i] for i in subset)
            return QuasiSmoothDiagnostics(
                False,
                f"subset {{{names}}}: no pure degree-{d} monomial and only "
                f"{externals} external eliminations (need {len(subset)})")
    return QuasiSmoothDiagnostics(True)


# ----------------------------------------------------------- enumeration

def bare_weight_candidates(a1: int, a2: int, max_weight: int
                           ) -> Iterator[tuple[int, int]]:
    """The (a3, a4) with a2 <= a3 <= a4 <= max_weight whose bare weights
    (1, a1, a2, a3, a4) pass two tests: a1, a2, a3 share no factor, and
    the singleton case of the quasi-smoothness test holds at every vertex.

    With s = a1+a2+a3 and d = s + a4, x_w^k has degree d iff a4 | s, and
    x_w^k * x_j has degree d for some k >= 1 iff a4 | s - a_j (a0 = 1), so
    a4 divides one of s, s-1, s-a1, s-a2, s-a3.  Each such n is at most s,
    and a4 >= a3 >= s/3 >= n/3, so a4 is n, n/2 or n/3.  These come down
    to the six values s, s-1, a2+a3, a1+a3, a1+a2 and s//2 (which is s/2
    or (s-1)/2), and a3 itself when a2 = a3 (the half of s-a1 = 2a3):
    every other n/2 or n/3 is below a3, or equals a3 with a1 = a2 = a3.

    Once a3 > a1+a2, only s, s-1, a2+a3 and a1+a3 are at least a3 (s//2
    and a1+a2 are below it, and a2 < a3), and the least of them is a1+a3.
    So a3 stops at max_weight - a1 once that is past a1+a2.

    Each value is then tested at O_t, O_z and O_y in turn (O_t rejects the
    most): for I = {i}, some x_i^k or x_i^k * x_j has degree d, that is
    d = a_j mod a_i for some j, where j = i stands for x_i^k alone.  Each
    is a necessary condition for `general_quasismooth`.  The test at O_w
    always holds, so it is not made: a4 divides s or s - a_j, so
    d = s + a4 = a_j mod a4, with j = w for s.  The pairs come in no
    particular order.
    """
    g12 = gcd(a1, a2)
    for a3 in range(a2, min(max_weight, max(max_weight - a1, a1 + a2)) + 1):
        if gcd(g12, a3) != 1:
            continue
        s = a1 + a2 + a3
        for a4 in {s, s - 1, a2 + a3, a1 + a3, a1 + a2, s // 2,
                   a3 if a2 == a3 else s}:
            if not a3 <= a4 <= max_weight:
                continue
            d = s + a4
            for a in (a3, a2, a1):
                r = d % a
                if (r != 1 % a and r != a1 % a and r != a2 % a
                        and r != a3 % a and r != a4 % a):
                    break
            else:
                yield a3, a4


def enumerate_families(max_weight: int = 33) -> list[Family]:
    """All terminal quasi-smooth anticanonical families with a4 <= max_weight.

    Sorted lexicographically by (d, a1, a2, a3, a4) and numbered from 1.
    Johnson and Kollar ("Fano hypersurfaces in weighted projective
    4-spaces", Experiment. Math. 2001) show that the list of 95 is
    complete; all of them have a4 <= 33.

    The scan runs over a1 <= a2 <= a3 and narrows the quadruples on their
    bare weights, by three necessary conditions, before it builds a
    `Family`:

    - No three of a1..a4 share a factor (`census.no_singular_curves`).
      Three weights with a common prime p span a plane of 1/p points,
      which X meets in a curve of singular points, so X is not terminal.
      A triple (a1, a2, a3) that shares a factor is skipped with all its
      a4; the three triples that hold a4 are tested after the vertex test.
      Well-formedness follows, so the scan does not test it apart.
    - a4 passes the subset {w} of Iano-Fletcher's quasi-smoothness
      criterion ("Working with weighted complete intersections"): x_w^k or
      x_w^k * x_j has degree d = a1+a2+a3+a4, so a4 divides d - a_j for
      some coordinate j, with j = w for x_w^k alone.  The same singleton
      test holds at the other vertices.  `bare_weight_candidates`, one
      pass per pair (a1, a2), draws only the (a3, a4) that pass both.

    Every quadruple that is left is decided by the full
    `is_terminal_family` and then `general_quasismooth`, so the pre-tests
    only save work.  The terminal test goes first because it rejects more
    of the survivors, and the conjunction does not depend on the order:
    `is_terminal_family` returns False, never raises, on a family that is
    not quasi-smooth.  At max_weight 33 the scan visits 5,504 of the 6,545
    triples (the rest are past the a3 cap); 4,532 share no factor and give
    8,867 candidates, 577 pass the vertex test and 258 the triple test, and
    of those 95 are terminal and 95 quasi-smooth.
    """
    found = []
    for a1 in range(1, max_weight + 1):
        for a2 in range(a1, max_weight + 1):
            for a3, a4 in bare_weight_candidates(a1, a2, max_weight):
                w = (1, a1, a2, a3, a4)
                if not no_singular_curves(w):
                    continue
                fam = Family(w)
                if not (is_terminal_family(fam)
                        and general_quasismooth(fam).ok):
                    continue
                found.append((fam.d, a1, a2, a3, a4))
    found.sort()
    return [Family.of(a1, a2, a3, a4, entry_no=i + 1)
            for i, (_d, a1, a2, a3, a4) in enumerate(found)]


# ------------------------------------------------------- concrete members

class UnknownSpecialMember(ValueError):
    """`special_member` has no member for the family."""


def _eliminating_monomials(f: Family) -> dict[Exp5, int]:
    """x_i^k * x_e -> i for each quotient point O_i of the general member,
    where x_e is the coordinate the census eliminates there."""
    out = {}
    for i in range(1, 5):
        e = default_eliminated(f, i)
        if e is not None:
            out[eliminating_monomial(f, i, e)] = i
    return out


def normal_form_support(f: Family, kept: dict[Exp5, int]) -> set[Exp5]:
    """Support of the general member after the standard linear normalizations.

    At each singular vertex O_i the coordinate x_e eliminated there
    (largest weight, then largest index) absorbs, via the change
    x_e -> x_e + h with h of degree a_e free of x_e, every other monomial
    x_i^k * m with deg(m) = a_e, where x_i^k * x_e is the eliminating
    monomial.  Those are left out, so the series order of x_e at O_i is the
    one the certificate tables read off.  `kept` maps each eliminating
    monomial to its vertex i, as `_eliminating_monomials(f)` gives it.

    A degree-d monomial is x_i^k * m with deg(m) = a_e exactly when its
    exponent of x_i is at least k, so the support is every degree-d
    monomial whose exponent of x_i stays below k at each such O_i, plus the
    eliminating monomials.  It is filled from the heaviest coordinate down,
    with x (weight 1) taking what is left.
    """
    _, a1, a2, a3, a4 = f.w
    d = f.d
    caps = [d] * 5
    for unit, i in kept.items():
        caps[i] = unit[i] - 1
    _, cap1, cap2, cap3, cap4 = caps
    support = set(kept)
    add = support.add
    for ew in range(min(d // a4, cap4) + 1):
        r4 = d - ew * a4
        for et in range(min(r4 // a3, cap3) + 1):
            r3 = r4 - et * a3
            for ez in range(min(r3 // a2, cap2) + 1):
                r2 = r3 - ez * a2
                for ey in range(min(r2 // a1, cap1) + 1):
                    add((r2 - ey * a1, ey, ez, et, ew))
    return support


def generic_member(f: Family, seed: int = 0) -> Poly:
    """A deterministic pseudo-random member on the normal-form support.

    Every coefficient is an `int`.  Each eliminating monomial x_i^k * x_e
    has coefficient 1, so the series solved from it at O_i has integer
    coefficients.  Every other monomial, in sorted order, draws
    `getrandbits(20) + 1`, uniform in [1, 2^20], from a
    `random.Random` seeded with the family and `seed`.  The `random`
    module is imported here, not at module level, so commands that build
    no member never load it.
    """
    import random

    units = _eliminating_monomials(f)
    draw = random.Random((f.d, f.w, seed).__repr__()).getrandbits
    return {exps: 1 if exps in units else draw(20) + 1
            for exps in sorted(normal_form_support(f, units))}


def special_member(f: Family) -> Poly:
    """The non-generic member of No. 23 used by an untwisting certificate.

    It is the degree-14 hypersurface in P(1,2,3,4,5) whose z-vertex carries
    the invisible elliptic involution: the z^3-coefficient of w and the
    z^2 t^2 term both vanish, forcing the monomials z^4 y and x t z^3.
    Any other family raises `UnknownSpecialMember`.
    """
    if f.entry_no == 23:
        return parse_poly(
            "t*w^2 + y^2*w^2"          # (t + b y^2) w^2 with b = 1
            "+ y*t^3 - 3*y^3*t^2 + 2*y^5*t"  # y t (t - y^2)(t - 2 y^2)
            "+ z^4*y + x*t*z^3")
    raise UnknownSpecialMember(
        f"unknown special member '{f.entry_no}:special'")
