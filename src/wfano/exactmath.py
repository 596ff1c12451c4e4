"""Exact rational arithmetic, polynomial parsing, and truncated power series.

Every quantity in the engine is an integer or a `fractions.Fraction`; no
floating point is used anywhere.  Polynomials in the five ambient
coordinates x, y, z, t, w are sparse dictionaries mapping exponent tuples
to exact coefficients:

    Poly = dict[Exp5, int | Fraction]      Exp5 = (ex, ey, ez, et, ew)

Parsed polynomials and the members that orders are computed on carry
`int` coefficients; `Fraction` enters only through a non-unit eliminating
coefficient.

The zero polynomial is the empty dict.

The series machinery solves a quasi-homogeneous equation f = 0 locally at
a coordinate vertex for one coordinate (the "eliminated" one) as a
truncated power series in the three remaining local parameters, graded by
their weight residues.  One degree-graded substitution serves elimination
and vanishing orders: it builds the degree-D parts of the series and of
its powers once each, from lower degrees only.
A vanishing order solves the member and reads the divisor in one pass,
degree by degree, so the series is built only as deep as the first degree
that survives; the cutoff only caps the work.  An integer member whose
eliminating monomial has coefficient 1 keeps every series coefficient an
`int`.
Orders of vanishing are exact rationals m/r; the integer grading is scaled
by r internally and divided out only at the API boundary.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Mapping
from fractions import Fraction

Exp5 = tuple[int, int, int, int, int]
Exp3 = tuple[int, int, int]
Coeff = int | Fraction
Poly = dict[Exp5, Coeff]  # parse_poly and the members give int
Part = dict[Exp3, Coeff]  # the terms of one weighted degree of a series

COORDS = ("x", "y", "z", "t", "w")
COORD_INDEX = {name: i for i, name in enumerate(COORDS)}

# (i, j) -> the three coordinates other than i and j, in order: the local
# parameters at O_i when x_j is eliminated, and along the edge O_iO_j
OTHERS = {(i, j): tuple(k for k in range(5) if k not in (i, j))
          for i in range(5) for j in range(5) if i != j}


class NoEliminatingMonomial(ValueError):
    """The support has no monomial of the form x_vertex^s * x_eliminated."""


# The result of an order that no term reaches below the series cutoff, so
# the order is at least cutoff/r: the terms there cancel, or lie past it.
# Compare with `is`.
OVERCUTOFF = object()


# ----------------------------------------------------------------- parsing

def _exponents(tokens: list[str]) -> list[int] | None:
    """The exponent vector of the factors in the tokens, each a run of
    factors like ``x^2yz^3``; None if a token is not one.  Exponents are
    converted once every token has been read."""
    found = []  # (coordinate, exponent digits or '')
    for token in tokens:
        i, n = 0, len(token)
        while i < n:
            k = COORD_INDEX.get(token[i])
            if k is None:
                return None
            i += 1
            exp = ""
            if token.startswith("^", i):
                end = i + 1
                while end < n and token[end].isdecimal():
                    end += 1
                exp = token[i + 1:end]
                if not exp:
                    return None
                i = end
            found.append((k, exp))
    exps = [0] * 5
    for k, exp in found:
        exps[k] += int(exp) if exp else 1
    return exps


def parse_poly(text: str) -> Poly:
    """Parse the CLI polynomial mini-grammar.

    Terms like ``3*x^2*y`` joined by ``+``/``-``; the ``*`` and ``^1`` are
    optional, integer coefficients optional, whitespace ignored.  The
    coefficients are `int`.

    A term is a run of factors, optionally led by a decimal coefficient;
    ``*`` and whitespace may stand before and after the coefficient and
    each factor, and nowhere else.  Digits are Unicode decimal digits and
    whitespace is what `str.isspace` accepts.
    """
    poly: dict[Exp5, int] = {}
    # split at each sign; each '-' becomes '+-', so a piece after the
    # first opens with '-' exactly when a minus sign led it
    for i, piece in enumerate(text.replace("-", "+-").split("+")):
        negative = piece.startswith("-")
        term = piece[1:] if negative else piece
        tokens = term.replace("*", " ").split()
        if not tokens:
            if i == 0:  # nothing before a leading sign, or empty text
                continue
            raise ValueError(f"dangling sign in polynomial: {text!r}")
        head = tokens[0]
        digits = 0
        while digits < len(head) and head[digits].isdecimal():
            digits += 1
        tokens[0] = head[digits:]
        exps = _exponents(tokens)
        if exps is None:
            raise ValueError(f"cannot parse term {term.strip()!r} "
                             f"of polynomial {text!r}")
        key = tuple(exps)
        coeff = int(head[:digits]) if digits else 1
        poly[key] = poly.get(key, 0) + (-coeff if negative else coeff)
    return {k: v for k, v in poly.items() if v}


# ------------------------------------------------------------------ series


class Series(namedtuple("Series", "parts")):
    """A solved series: `parts[D]` holds its terms of weighted degree D in
    the scaled local weights, a `list[Part]`.  The cutoff is `len(parts)`,
    and `parts[0]` is empty.
    """

    __slots__ = ()

    @property
    def terms(self) -> dict[Exp3, Coeff]:
        return {exps: c for part in self.parts for exps, c in part.items()}


def _reduce_to_chart(support: Mapping[Exp5, Coeff], chart_vertex: int,
                     eliminated: int) -> list[tuple[Coeff, Exp3, int]]:
    """Set the chart coordinate to 1: (coefficient, local exponents, y-degree).

    Two monomials of a non-homogeneous polynomial can meet at one chart
    key, so the coefficients there are summed.
    """
    l0, l1, l2 = OTHERS[chart_vertex, eliminated]
    reduced: dict[tuple[Exp3, int], Coeff] = {}
    for exps, c in support.items():
        key = ((exps[l0], exps[l1], exps[l2]), exps[eliminated])
        reduced[key] = reduced.get(key, 0) + c
    return [(c, loc, ey) for (loc, ey), c in reduced.items() if c]


def _sum_products(pairs: list[tuple[Part, Part]]) -> Part:
    """The sum of p * q over the given pairs of sparse series parts."""
    acc: Part = {}
    for p, q in pairs:
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                acc[key] = acc.get(key, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def _graded_substitute(reduced, weights: Exp3, cutoff: int,
                       parts: list[Part]) -> Iterator[Part]:
    """Yield the degree-D part of f(Y := S) for D = 0, 1, ..., cutoff - 1.

    `reduced` is f on the chart (see `_reduce_to_chart`); `parts[D]` is the
    degree-D part of the series S, which has no constant term.  The
    degree-D part of S^k is built once, from lower degrees only:
    powers[k][D] = sum over j of parts[j] * powers[k-1][D-j].  parts[D]
    enters the degree-D part of f(S) only through a term Y with no local
    factor, so a caller that solves for the series leaves that term out of
    `reduced` and appends parts[D] after degree D is yielded.  S^k has no
    part below degree k, as every local weight is at least 1, so a term
    whose local degree plus Y-degree reaches the cutoff is dropped and the
    work does not grow with large exponents of Y.  Degree D reads each
    other term whose local degree is at most D.  A part of S^k (k >= 2) is
    built at the first degree at which a term or S^(k+1) can read it (see
    `lag`), not ahead of it for a caller that stops early, and a product
    with no pair of non-empty parts is not formed.
    """
    w0, w1, w2 = weights
    terms = []
    max_ey = 0
    for c, loc, ey in reduced:
        base = loc[0] * w0 + loc[1] * w1 + loc[2] * w2
        if base + ey < cutoff:
            terms.append((base, ey, {loc: c}))
            if ey > max_ey:
                max_ey = ey
    # At degree D, a term Y^k of local degree `base` reads S^k at degree
    # D - base, and S^(k+1) at D - lag[k+1] reads S^k below that, so S^k is
    # built up to degree D - lag[k]; `cutoff` stands for never.
    lag = [cutoff] * (max_ey + 1)
    for base, ey, _mono in terms:
        if base < lag[ey]:
            lag[ey] = base
    for k in range(max_ey - 1, 1, -1):
        lag[k] = min(lag[k], lag[k + 1] + 1)
    powers = [[{(0, 0, 0): 1}] + [{}] * (cutoff - 1), parts]
    powers += [[] for _ in range(2, max_ey + 1)]
    for deg in range(cutoff):
        for k in range(2, max_ey + 1):
            top = deg - lag[k]
            if top >= 0:
                lower = powers[k - 1]
                pairs = [(parts[j], lower[top - j]) for j in range(1, top)
                         if parts[j] and lower[top - j]]
                powers[k].append(_sum_products(pairs) if pairs else {})
        pairs = [(mono, powers[ey][deg - base]) for base, ey, mono in terms
                 if base <= deg and powers[ey][deg - base]]
        yield _sum_products(pairs) if pairs else {}


def _eliminate(support: Mapping[Exp5, Coeff], chart_vertex: int,
               eliminated: int, weights: Exp3, cutoff: int,
               parts: list[Part]) -> Iterator[None]:
    """Solve f = 0 in the chart x_vertex = 1 for the eliminated coordinate.

    The support must contain a monomial x_vertex^s * x_eliminated, which
    becomes the unique term u * Y linear in the eliminated coordinate Y
    with constant local part.  Writing f = u * Y + g, the series S is built
    one weighted degree at a time: the degree-D part of g(S) needs only the
    parts of S below degree D, and S_D = -g(S)_D / u cancels it.  With
    integer coefficients and u = 1 (the normal form of `generic_member`)
    every coefficient of S is an `int`; otherwise they are `Fraction`s.

    For D = 0, 1, ..., cutoff - 1 appends S_D to `parts`, then yields, so a
    caller can stop as soon as it has the degrees it needs.
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if len(weights) != 3 or any(w <= 0 for w in weights):
        raise ValueError("local_weights must be three positive integers")
    # split off the linear unit u and the constant term, if any; chart
    # keys are distinct, so each occurs at most once
    unit = None
    constant = False
    rest = []
    for term in _reduce_to_chart(support, chart_vertex, eliminated):
        c, loc, ey = term
        if ey > 1 or loc != (0, 0, 0):
            rest.append(term)
        elif ey:
            unit = c
        else:
            constant = True
    if unit is None:
        raise NoEliminatingMonomial(
            f"no monomial linear in {COORDS[eliminated]} over pure "
            f"{COORDS[chart_vertex]} powers")
    if constant:
        raise ValueError("chart vertex lies off the hypersurface "
                         "(constant term in the chart)")
    for defect in _graded_substitute(rest, weights, cutoff, parts):
        parts.append({exps: -c if unit == 1 else Fraction(-c, unit)
                      for exps, c in defect.items()})
        yield


def implicit_eliminate(support: Mapping[Exp5, Coeff], chart_vertex: int,
                       eliminated: int, local_weights: Exp3,
                       cutoff: int) -> Series:
    """The unique series s with f(..., 1, ..., s, ...) = 0 modulo weighted
    degree `cutoff`, solved to the full cutoff (see `_eliminate`)."""
    parts: list[Part] = []
    for _ in _eliminate(support, chart_vertex, eliminated,
                        tuple(local_weights), cutoff, parts):
        pass
    return Series(parts)


def series_order(g: Mapping[Exp5, Coeff], member: Mapping[Exp5, Coeff],
                 chart_vertex: int, eliminated: int, local_weights: Exp3,
                 cutoff: int, r: int):
    """Vanishing order of g at the vertex of the member: (min surviving
    degree)/r.

    Solves the member for the eliminated coordinate and substitutes the
    series into g in one pass: degree D of g needs the series only up to
    degree D, so the series is built only as deep as the first degree of g
    that survives.  Returns OVERCUTOFF when no degree below the cutoff
    survives, because its terms cancel or g has none there: the order is
    then at least cutoff/r.  The cutoff thereby caps the work.
    """
    if not g or all(c == 0 for c in g.values()):
        raise ValueError("vanishing order of the zero polynomial")
    weights = tuple(local_weights)
    parts: list[Part] = []
    steps = zip(_eliminate(member, chart_vertex, eliminated, weights, cutoff,
                           parts),
                _graded_substitute(_reduce_to_chart(g, chart_vertex,
                                                    eliminated),
                                   weights, cutoff, parts))
    for deg, (_, part) in enumerate(steps):
        if part:
            return Fraction(deg, r)
    return OVERCUTOFF

