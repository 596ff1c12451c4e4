"""Certificates for excluding or untwisting singular points.

Every row of the reference tables is re-derived here: the sign of B^3,
the class of the key surface from its vanishing order, the boundary
inequalities behind the exclusion methods, and the structural witnesses
behind the involution methods.  A certificate collects the evaluated
checks; it is valid only if all of them hold.

Method symbols: (b) (n) (s) (f) (p) exclude a point; [tau] [tau1] (quadratic),
[eps] [eps1] [eps2] (elliptic) and [iota] [iota1] (invisible elliptic)
untwist it, except that the quadratic involution degenerates to a biregular
map (and then excludes) on members whose middle coefficient is divisible
by the squared coordinate's partner.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import gcd

from .blowup import (NonIntegral, b_cubed, format_class, monomial_order,
                     s_class_ks, transform_beta_E)
from .census import (LOCATIONS, QuotientSingularity, canonical_type,
                     vertex_singularity)
from .exactmath import COORDS, NoEliminatingMonomial
from .golden import GoldenRow, holds, parse_condition
from .wps import Family, anticanonical_degree, general_quasismooth, hat_lcms


class NotSymmetric(ValueError):
    pass


# ------------------------------------------------------------ small tests

Check = namedtuple("Check", "name passed detail", defaults=("",))


# the power p of c and m in the inequality r*a*(r-a)*c^p*A^3 <= k*m^p of
# methods (b) and (n), and the name of its check
_INEQUALITIES = {"B": (2, "boundary inequality"),
                 "N": (1, "nef-divisor inequality")}


def two_ray_game(f: Family) -> tuple[bool, int | None]:
    """Two-ray-game test for method (p) at O_t: 2 a4 = 3 a3 + a_i, i in
    {1, 2}.  Every (p) row of the tables is at O_t."""
    a = f.w
    for i in (1, 2):
        if 2 * a[4] == 3 * a[3] + a[i]:
            return True, i
    return False, None


def neg_definite(matrix: Sequence[Sequence[Fraction]]) -> bool:
    """Sylvester criterion on -M with exact rationals; M must be square and
    symmetric, or `NotSymmetric` is raised.  The k-th pivot of a Gaussian
    elimination of -M without row swaps is D_k / D_(k-1), a ratio of its
    leading minors, so they are all positive exactly when the pivots are."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NotSymmetric("matrix is not square")
    neg = [[-Fraction(x) for x in row] for row in matrix]
    for i in range(n):
        for j in range(i):
            if neg[i][j] != neg[j][i]:
                raise NotSymmetric(f"entry ({i},{j}) != ({j},{i})")
    for col in range(n):
        pivot = neg[col][col]
        if pivot <= 0:
            return False
        for r in range(col + 1, n):
            factor = neg[r][col] / pivot
            for cc in range(col + 1, n):
                neg[r][cc] -= factor * neg[col][cc]
    return True


# the intersection matrices printed alongside the tables, used by the
# negative-definiteness method at points where the key surface is a K3
FIXTURE_MATRICES = {
    (12, "OzOw"): [[Fraction(-7, 12), Fraction(2, 3)],
                   [Fraction(2, 3), Fraction(-5, 6)]],
}


# ------------------------------------------------------ smooth points etc.

SmoothPointStatus = namedtuple("SmoothPointStatus", (
    "kind",      # LEMMA1 | LEMMA2 | MPIM_PAIR | SPECIAL
    "case",      # which per-family argument, for SPECIAL; None by default
    "detail",
), defaults=(None, ""))


# families whose smooth points need a bespoke surface argument, grouped by
# the shared K3 pencil shape of the argument
_SPECIAL_CASES = {2: "2", 5: "5", 12: "12/20", 20: "12/20",
                  13: "13/25", 25: "13/25"}


def smooth_point_status(f: Family) -> SmoothPointStatus:
    """Which smooth-point exclusion argument covers the family.

    LEMMA1: some vertex O_i (i in {z, t, w}) is off the general member and
    the degree bound d * lcm-hat_i <= 4 a1a2a3a4 holds.  LEMMA2: both the
    t- and w-bounds hold and no quasi-smooth member contains the t-w line,
    or the member avoids it.  Families admitting members through the t-w
    line fall to the pencil argument (MPIM_PAIR) when a3 a4 exceeds d with
    coprime a3, a4, a3 a4 is a combination of a1, a2, and a3 a4 A^3 <= 4;
    the remaining handful need per-family surface geometry (SPECIAL).
    """
    a, d, prod = f.w, f.d, f.prod
    hats = hat_lcms(f)
    for i in (2, 3, 4):
        if d % a[i] == 0 and d * hats[i - 2] <= 4 * prod:
            return SmoothPointStatus("LEMMA1",
                                     detail=f"O_{COORDS[i]} off X, "
                                            f"{d}*{hats[i - 2]} <= {4 * prod}")
    if d * hats[1] <= 4 * prod and d * hats[2] <= 4 * prod:
        if not general_quasismooth(f, exclude_pure=(3, 4)).ok:
            return SmoothPointStatus(
                "LEMMA2", detail="no quasi-smooth member contains the t-w line")
        A3 = anticanonical_degree(f)
        if (a[3] > 1 and gcd(a[3], a[4]) == 1 and a[3] * a[4] > d
                and a[3] * a[4] * A3 <= 4
                and _is_combination(a[3] * a[4], a[1], a[2])):
            return SmoothPointStatus("MPIM_PAIR",
                                     detail=f"a3*a4 = {a[3] * a[4]}")
        detail = ("members through the t-w line need per-family surface "
                  "geometry")
    else:
        detail = "degree bounds fail"
    return SmoothPointStatus("SPECIAL",
                             case=_SPECIAL_CASES.get(f.entry_no or 0),
                             detail=detail)


def _is_combination(target: int, a1: int, a2: int) -> bool:
    return any((target - m1 * a1) % a2 == 0
               for m1 in range(target // a1 + 1))


CurveStatus = namedtuple("CurveStatus", (
    "kind",         # NUMERIC | SPECIAL
    "max_degree",
), defaults=(None,))


def curve_status(f: Family) -> CurveStatus:
    """Curves are excluded numerically unless -K^3 > 1, which admits
    low-degree curves (degree < -K^3) needing the blow-up test class."""
    A3 = anticanonical_degree(f)
    if A3 <= 1:
        return CurveStatus("NUMERIC")
    max_deg = -(-A3.numerator // A3.denominator) - 1  # ceil(A3) - 1
    return CurveStatus("SPECIAL", max_degree=max_deg)


# -------------------------------------------------------------- involutions

# The elliptic and invisible elliptic involutions, by (family, point): each
# entry is a label and the condition, in the tables' grammar, under which
# the involution exists.  `involution_case` takes the first that holds.
ELLIPTIC_POINTS = {
    (7, "OzOt"): (("EPS", "Type I"), ("IOTA", "Type II")),
    (20, "Oz"): (("EPS2", ""),),
    (23, "Ot"): (("EPS", ""),),
    (23, "Oz"): (("IOTA1", "a_1=c=0"),),
    (36, "Oz"): (("EPS1", ""),),
    (40, "Ot"): (("EPS", ""),),
    (44, "Ot"): (("EPS", ""),),
    (61, "Ot"): (("EPS", ""),),
    (76, "Ot"): (("EPS", ""),),
}


InvolutionCase = namedtuple("InvolutionCase", "label witness note",
                            defaults=("", ""))


def involution_case(f: Family, point: str,
                    variant: dict[str, str] | None = None
                    ) -> InvolutionCase | None:
    """Structural involution pattern at the point, or None.

    Quadratic: a monomial x_j * x_i^2 of degree d with x_i vanishing at the
    point; untwists unless the member's middle coefficient is divisible by
    x_j (then biregular, and the point is excluded instead).  The fallback
    [tau1] covers O_t with coprime a3, a4 and 2 a3 + a4 = d, where members
    without the w t^2 monomial are excluded directly.  Elliptic and
    invisible-elliptic cases are read from `ELLIPTIC_POINTS`, under the
    variant as `golden.holds` reads it.
    """
    variant = variant or {}
    w5, d = f.w, f.d
    for i4 in sorted(LOCATIONS[point][1:], key=lambda i: -w5[i]):
        for i3 in sorted((j for j in range(5) if j != i4),
                         key=lambda j: (-w5[j], -j)):
            if w5[i3] + 2 * w5[i4] == d:
                witness = f"{COORDS[i3]}{COORDS[i4]}^2"
                if (point == "Ot" and (i3, i4) == (4, 3)
                        and gcd(w5[3], w5[4]) == 1):
                    # wt^2 at the t-vertex: members may lack the monomial,
                    # and then the coprime-weight fallback still excludes
                    return InvolutionCase(
                        "TAU1", witness=witness,
                        note="members lacking wt^2 are excluded by the "
                             "quadratic fallback (gcd(a3,a4)=1, 2a3+a4=d)")
                return InvolutionCase(
                    "TAU", witness=witness,
                    note="biregular (excludes) when the x_{i4}-linear "
                         "coefficient is divisible by " + COORDS[i3])
    elliptic = "elliptic involution at " + "".join(
        "O_" + COORDS[i] for i in LOCATIONS[point][1:])
    for label, condition in ELLIPTIC_POINTS.get((f.entry_no, point), ()):
        if holds(parse_condition(condition), variant):
            return InvolutionCase(
                label, note=elliptic if label.startswith("EPS")
                else "invisible elliptic involution")
    return None


# -------------------------------------------------------------- certificates

class Certificate(namedtuple("Certificate", "row checks B3 m k",
                             defaults=(None, None, None))):
    """The checks recomputed on one golden row, and the values an exclusion
    certificate used: B^3, the multiplicity m of the key surface and the
    k values of its class (None where no exclusion was computed)."""

    __slots__ = ()

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def undocumented_failures(self) -> list[Check]:
        """The failed checks that the row's documented defect does not
        excuse; a defect excuses the checks whose name ends in its field."""
        defect = self.row.defect
        return [c for c in self.checks if not c.passed
                and not (defect and c.name.endswith(defect.field))]


def _subscript_chart(row: GoldenRow) -> int | None:
    """The coordinate a vertex row's subscripts leave to be eliminated, when
    they name three local parameters besides the vertex; else None."""
    subs = row.local_params
    if subs is None or row.location[0] != "vertex":
        return None
    leftover = [j for j in range(5) if j != row.location[1] and j not in subs]
    return leftover[0] if len(leftover) == 1 else None


def certify_row(f: Family, row: GoldenRow,
                entries: Sequence[QuotientSingularity]) -> Certificate:
    """Recompute every machine-checkable quantity on one golden row.

    `entries` is the family's census, and the row's point is the entry at
    its location.  Where the row's subscripts name another coordinate to
    eliminate at a vertex O_i, the census point still serves: with r = a_i,
    every candidate x_e has a_e = d mod r, so the three local parameters of
    any chart have the same residues, and r, count and the type up to
    a <-> r-a do not depend on the chart.

    A row at a point where the census has no quotient point, or whose
    subscripts leave a coordinate that `vertex_singularity` refuses as the
    chart, gets a certificate whose one check, "quotient type", fails.
    """
    sing = next((e for e in entries if e.location == row.location), None)
    chart = _subscript_chart(row)
    problem = None
    if sing is None:
        problem = f"the census has no quotient point at {row.point}"
    elif chart is not None and chart != sing.eliminated:
        try:
            vertex_singularity(f, row.location[1], chart)
        except NoEliminatingMonomial as exc:
            problem = str(exc)
    if problem:
        return Certificate(row, (Check("quotient type", False, problem),))
    checks = [Check(
        "quotient type",
        canonical_type(sing.type_) == canonical_type(row.normalized)
        and sing.r == row.r and sing.count == row.count,
        f"census {sing.count}x1/{sing.r}{sing.type_} vs "
        f"row {row.count}x{row.type_str}")]
    subs = row.local_params
    if subs is not None:
        expected = tuple(f.w[i] % row.r for i in subs)
        checks.append(Check(
            "local parameter residues", expected == row.residues,
            f"weights of {''.join(COORDS[i] for i in subs)} mod {row.r} = "
            f"{expected} vs printed {row.residues}"))

    if row.kind == "untwist":
        return _certify_involution(f, row, checks)
    return _certify_exclusion(f, row, sing, checks)


def _certify_exclusion(f: Family, row: GoldenRow, sing: QuotientSingularity,
                       checks: list[Check]) -> Certificate:
    val, sign = b_cubed(f, sing)
    checks.append(Check("B^3 sign", sign == row.b3_sign,
                        f"B^3 = {val} ({sign}) vs table {row.b3_sign!r}"))

    c, b_coef = row.linsys
    m = min(monomial_order(v, f.w, row.r) for v in row.vanishing)
    try:
        beta_E = transform_beta_E(row.r, c, m)
        ok = beta_E == b_coef
        detail = (f"{c}B+({c}-{m})/{row.r}E = {format_class(c, beta_E)} "
                  f"vs table {row.linsys_raw}")
    except NonIntegral as exc:
        ok, detail = False, str(exc)
    checks.append(Check("transform class", ok, detail))

    gen_degrees = {
        sum(e * w for e, w in zip(mono, f.w))
        for gen in row.surface for mono in gen}
    checks.append(Check("surface degree", gen_degrees == {c},
                        f"generators have degrees {sorted(gen_degrees)}, "
                        f"linear system expects {c}"))

    ks = s_class_ks(f, sing.r)
    if row.method in _INEQUALITIES:
        power, name = _INEQUALITIES[row.method]
        lhs = Fraction(sing.r * sing.a * sing.b * c ** power * f.d, f.prod)
        results = [(k, lhs <= k * m ** power) for k in ks]
        detail = "; ".join(f"k={k}: {lhs} <= {k * m ** power}: {ok}"
                           for k, ok in results)
        checks.append(Check(name, results[-1][1], detail))
    if row.method == "B":
        checks.append(Check(
            "1-cycle structure", True,
            "proportionality of the intersection cycle components is "
            "certified per family in the source notes, not recomputed"))
        if not c >= m > 0:
            checks.append(Check(
                "boundary precondition", True,
                f"note: c >= m fails ({c} < {m}); the table applies the "
                f"method with the stronger divisor anyway"))
    elif row.method == "P":
        ok, i = two_ray_game(f)
        if row.point != "Ot":
            ok, detail = False, f"the test is made at O_t, not {row.point}"
        elif ok:
            detail = f"2*{f.w[4]} = 3*{f.w[3]} + {f.w[i]}"
        else:
            detail = f"2a4 = {2 * f.w[4]} has no 3a3 + a_i decomposition"
        checks.append(Check("two-ray game", ok, detail))
    elif row.method == "S":
        fixture = FIXTURE_MATRICES.get((row.family_no, row.point))
        if fixture is not None:
            checks.append(Check(
                "negative-definite fixture", neg_definite(fixture),
                "stored intersection matrix is negative-definite"))
        else:
            checks.append(Check(
                "structural (s)", True,
                "negative-definiteness certified per family in the source"))
    elif row.method == "F":
        checks.append(Check(
            "structural (f)", True,
            "one-dimensional family of trivial curves certified per family"))
    return Certificate(row, tuple(checks), val, m, ks)


def _certify_involution(f: Family, row: GoldenRow,
                        checks: list[Check]) -> Certificate:
    case = involution_case(f, row.point, dict(row.condition))
    checks.append(Check(
        "involution pattern", case is not None and case.label == row.method,
        f"matched {case.label} ({case.note})" if case else
        f"no involution pattern at family {f.entry_no}, {row.point}"))

    if row.witness_raw:
        degs = {sum(e * w for e, w in zip(mono, f.w)) for mono in row.witness}
        checks.append(Check(
            "witness degree", degs == {f.d},
            f"witness {row.witness_raw} has degrees {sorted(degs)}, "
            f"anticanonical degree is {f.d}"))
    return Certificate(row, tuple(checks))


def super_rigid(rows: Sequence[GoldenRow],
                entries: Sequence[QuotientSingularity]) -> bool:
    """Whether every golden row of a family, `rows`, excludes its point;
    `entries` is the family's census.

    Families 1 and 3 have no singular points at all; their (super)rigidity
    is classical and they carry no table rows.
    """
    return all(r.kind == "exclude" for r in rows) if rows else not entries
