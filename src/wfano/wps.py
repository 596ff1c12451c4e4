"""Weighted projective spaces P(1,a1,a2,a3,a4) and their Fano hypersurfaces.

A family is a weight quadruple a1 <= a2 <= a3 <= a4 together with the
anticanonical degree d = a1+a2+a3+a4.  The module decides well-formedness
and quasi-smoothness of the general member combinatorially, enumerates all
families with terminal singularities, and builds concrete general members
with deterministic pseudo-random coefficients for order computations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional

from .exactmath import (COORDS, Exp5, Poly, Fraction as Rat, parse_poly,
                        weighted_monomials)


@dataclass(frozen=True, order=True)
class Family:
    """An anticanonically embedded hypersurface family X_d in P(1,a1..a4).

    `w` is the 5-vector (1, a1, a2, a3, a4) with 0 < a1 <= a2 <= a3 <= a4,
    and the degree d = a1+a2+a3+a4 is derived from it.
    """

    w: tuple[int, int, int, int, int]
    entry_no: Optional[int] = None
    d: int = field(init=False)

    def __post_init__(self):
        w = self.w
        if len(w) != 5 or w[0] != 1:
            raise ValueError("weights must be (1, a1, a2, a3, a4)")
        if not 0 < w[1] <= w[2] <= w[3] <= w[4]:
            raise ValueError("weights must be positive and nondecreasing "
                             "from index 1")
        object.__setattr__(self, "d", w[1] + w[2] + w[3] + w[4])

    @classmethod
    def of(cls, a1: int, a2: int, a3: int, a4: int,
           entry_no: Optional[int] = None) -> "Family":
        return cls((1, a1, a2, a3, a4), entry_no)

    def __str__(self):
        tag = f"No. {self.entry_no}: " if self.entry_no else ""
        return f"{tag}X_{self.d} in P{self.w}"


def anticanonical_degree(f: Family) -> Rat:
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

@lru_cache(maxsize=None)
def _semigroup_mask(weights: tuple[int, ...], bound: int) -> int:
    """Bit t is set iff t is a nonnegative integer combination of weights.

    Each weight a enters by doubling shifts: after the shifts by a, 2a, ...,
    2^j a the mask holds every sum with up to 2^(j+1) - 1 more copies of a.
    """
    m = 1
    full = (1 << (bound + 1)) - 1
    for a in weights:
        shift = a
        while shift <= bound:
            m |= (m << shift) & full
            shift *= 2
    return m


@dataclass(frozen=True)
class QuasiSmoothDiagnostics:
    ok: bool
    failing_subset: Optional[tuple[int, ...]] = None
    detail: str = ""


def general_quasismooth(f: Family, exclude_pure: Optional[tuple[int, ...]] = None,
                        ) -> QuasiSmoothDiagnostics:
    """Quasi-smoothness of the general member by the coordinate-subset test.

    For every nonempty subset I of the five coordinates, the general member
    must admit either (a) a degree-d monomial supported in I, or (b) |I|
    degree-d monomials of the shape (monomial in I) * x_e with pairwise
    distinct external indices e.

    `exclude_pure`, when given, removes from the support every monomial
    supported inside that coordinate set (used to probe members containing
    the corresponding coordinate stratum, e.g. the t-w line).
    """
    w5, d = f.w, f.d
    banned = set(exclude_pure) if exclude_pure else None
    for bits in range(1, 32):
        subset = tuple(i for i in range(5) if bits >> i & 1)
        mask = _semigroup_mask(tuple(sorted(w5[i] for i in subset)), d)
        if banned is not None and set(subset) <= banned:
            ok_a = False
        elif banned is not None:
            non_banned = [i for i in subset if i not in banned]
            ok_a = any((mask >> (d - w5[i])) & 1
                       for i in non_banned if w5[i] <= d)
        else:
            ok_a = bool((mask >> d) & 1)
        if ok_a:
            continue
        externals = 0
        for e in range(5):
            if e in subset or w5[e] > d:
                continue
            if not (mask >> (d - w5[e])) & 1:
                continue
            if banned is not None and set(subset) | {e} <= banned:
                continue
            externals += 1
        if externals < len(subset):
            names = "".join(COORDS[i] for i in subset)
            return QuasiSmoothDiagnostics(
                False, subset,
                f"subset {{{names}}}: no pure degree-{d} monomial and only "
                f"{externals} external eliminations (need {len(subset)})")
    return QuasiSmoothDiagnostics(True)


def admits_member_with_stratum(f: Family, coords: tuple[int, ...]) -> bool:
    """Whether some quasi-smooth member contains the given coordinate stratum."""
    return general_quasismooth(f, exclude_pure=coords).ok


# ----------------------------------------------------------- enumeration

def divisor_table(n: int) -> list[list[int]]:
    """divisors[m] lists the divisors of m in increasing order, 1 <= m <= n."""
    divisors: list[list[int]] = [[] for _ in range(n + 1)]
    for k in range(1, n + 1):
        for m in range(k, n + 1, k):
            divisors[m].append(k)
    return divisors


def a4_candidates(a1: int, a2: int, a3: int, max_weight: int,
                  divisors: list[list[int]]) -> list[int]:
    """The a4 in [a3, max_weight] that pass the singleton test at O_w.

    With s = a1+a2+a3 and d = s + a4, x_w^k has degree d iff a4 | s, and
    x_w^k * x_j has degree d for some k >= 1 iff a4 | s - a_j (a0 = 1), so
    a4 divides one of s, s-1, s-a1, s-a2, s-a3.  `divisors` must cover s.
    """
    s = a1 + a2 + a3
    return sorted({k for n in (s, s - 1, s - a1, s - a2, s - a3)
                   for k in divisors[n] if a3 <= k <= max_weight})


def enumerate_families(max_weight: int = 33) -> list[Family]:
    """All terminal quasi-smooth anticanonical families with a4 <= max_weight.

    Sorted lexicographically by (d, a1, a2, a3, a4) and numbered from 1.
    Johnson and Kollar ("Fano hypersurfaces in weighted projective
    4-spaces", Experiment. Math. 2001) show that the list of 95 is
    complete; all of them have a4 <= 33.

    The scan runs over a1 <= a2 <= a3 and draws a4 from the divisors of
    s, s-1, s-a1, s-a2 and s-a3 (s = a1+a2+a3) that lie in [a3, max_weight].
    The subset {w} of Iano-Fletcher's quasi-smoothness criterion ("Working
    with weighted complete intersections") needs x_w^k or x_w^k * x_j of
    degree d = s + a4, so a4 divides d - a_j for some coordinate j, with
    j = w for x_w^k alone.  Candidates that fail the same singleton test
    at another vertex are dropped before the full `general_quasismooth`
    and `is_terminal_family` run; the filter is only a necessary
    condition, so both still decide every family.
    """
    # lazy: census imports COORDS and Family from this module
    from .census import is_terminal_family, vertex_conditions_hold

    divisors = divisor_table(3 * max_weight)
    found = []
    for a1 in range(1, max_weight + 1):
        for a2 in range(a1, max_weight + 1):
            for a3 in range(a2, max_weight + 1):
                for a4 in a4_candidates(a1, a2, a3, max_weight, divisors):
                    if gcd(gcd(a1, a2), gcd(a3, a4)) != 1:
                        continue
                    fam = Family.of(a1, a2, a3, a4)
                    if not vertex_conditions_hold(fam):
                        continue
                    if not general_quasismooth(fam).ok:
                        continue
                    if not is_terminal_family(fam):
                        continue
                    found.append((fam.d, a1, a2, a3, a4))
    found.sort()
    return [Family.of(a1, a2, a3, a4, entry_no=i + 1)
            for i, (_d, a1, a2, a3, a4) in enumerate(found)]


# ------------------------------------------------------- concrete members

class UnknownSpecialMember(KeyError):
    """`special_member` has no member of that name for the family."""

    __str__ = LookupError.__str__  # the message, not KeyError's repr of it


def eliminating_monomial(f: Family, i: int, e: int) -> Exp5:
    """x_i^k * x_e of degree d, the monomial solving for x_e at O_i."""
    k = (f.d - f.w[e]) // f.w[i]
    return tuple(k if j == i else int(j == e) for j in range(5))


def _eliminating_monomials(f: Family) -> dict[Exp5, tuple[int, int]]:
    """x_i^k * x_e -> (i, e) for each quotient point O_i of the general
    member, where x_e is the coordinate the census eliminates there."""
    from .census import vertex_singularity

    out = {}
    for i in range(1, 5):
        sing = vertex_singularity(f, i)
        if sing is not None:
            e = sing.eliminated
            out[eliminating_monomial(f, i, e)] = i, e
    return out


def normal_form_support(f: Family) -> set[Exp5]:
    """Support of the general member after the standard linear normalizations.

    Starts from all degree-d monomials.  At each singular vertex O_i the
    coordinate x_e eliminated there (largest weight, then largest index)
    absorbs, via the change x_e -> x_e + h with h of degree a_e free of
    x_e, every other monomial x_i^k * m with deg(m) = a_e; those are
    removed, so the series order of x_e at O_i is the one the certificate
    tables read off.
    """
    kept = _eliminating_monomials(f)
    # x_i^k | M means M = x_i^k * m with deg(m) = a_e; m = x_e only for the
    # eliminating monomial itself, which stays
    absorbed = [(i, unit[i]) for unit, (i, _e) in kept.items()]
    return {m for m in weighted_monomials(f.w, f.d)
            if not any(m[i] >= k for i, k in absorbed)} | kept.keys()


def generic_member(f: Family, seed: int = 0) -> Poly:
    """A deterministic pseudo-random member on the normal-form support.

    Each eliminating monomial x_i^k * x_e has coefficient 1, so the series
    solved from it at O_i has integer coefficients.
    """
    units = _eliminating_monomials(f)
    rng = random.Random((f.d, f.w, seed).__repr__())
    return {exps: Fraction(1 if exps in units else rng.randint(1, 10**6))
            for exps in sorted(normal_form_support(f))}


def special_member(f: Family, name: str) -> Poly:
    """Named non-generic members used by untwisting certificates.

    ``23:special`` is the degree-14 hypersurface in P(1,2,3,4,5) whose
    z-vertex carries the invisible elliptic involution: the z^3-coefficient
    of w and the z^2 t^2 term both vanish, forcing the monomials z^4 y and
    x t z^3.
    """
    key = f"{f.entry_no}:{name}"
    if key == "23:special":
        return parse_poly(
            "t*w^2 + y^2*w^2"          # (t + b y^2) w^2 with b = 1
            "+ y*t^3 - 3*y^3*t^2 + 2*y^5*t"  # y t (t - y^2)(t - 2 y^2)
            "+ z^4*y + x*t*z^3")
    raise UnknownSpecialMember(f"unknown special member {key!r}")
