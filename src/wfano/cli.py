"""Command-line interface.

Subcommands: enumerate, census, report, check-tables, order, search.
Exit codes: 0 success, 1 verification mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import golden, report as report_mod
from .blowup import DEFAULT_CUTOFF, BlowupContext, divisor_multiplicity
from .census import census as compute_census
from .census import (EdgeContained, NonTerminal, is_terminal_family,
                     vertex_elimination_candidates, vertex_singularity)
from .exactmath import NoEliminatingMonomial, OVERCUTOFF, parse_poly
from .golden import NoMatchingRow, UnknownVariantFlag, parse_variant
from .wps import (COORDS, Family, UnknownSpecialMember, anticanonical_degree,
                  eliminating_monomial, enumerate_families,
                  general_quasismooth, generic_member, is_wellformed,
                  special_member)

USAGE_ERROR = 2
MISMATCH = 1
# Largest `order --cutoff`, in multiples of r; the series work grows steeply
# with the cutoff, and at 8r no vertex point of the 95 takes a second.
MAX_CUTOFF = 8
# Largest weight a selector or `search` accepts; the quasi-smoothness test
# keeps bit masks of about a1+a2+a3+a4 bits per coordinate subset.
MAX_WEIGHT = 10**6
# Largest `enumerate --max-weight`; the scan over a1 <= a2 <= a3 grows as its
# cube and takes about 3 s at this bound.  All 95 families have a4 <= 33.
MAX_ENUMERATE_WEIGHT = 100


class UsageError(ValueError):
    pass


# What `main` turns into an exit code and one `error:` line.  Anything else
# is a defect in the program and keeps its traceback.
USAGE_ERRORS = (UsageError, UnknownVariantFlag, NoMatchingRow,
                UnknownSpecialMember)
MISMATCHES = (NonTerminal, EdgeContained, NoEliminatingMonomial)


def _dataset(args):
    if getattr(args, "golden", None):
        try:
            return golden.load(Path(args.golden))
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load --golden: {exc}") from None
    return golden.data()


def _parse_weights(text: str) -> tuple[int, int, int, int]:
    """Positive, nondecreasing a1,a2,a3,a4, optionally led by a0 = 1."""
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) == 5 and parts[0] == 1:
        parts = parts[1:]
    if len(parts) != 4 or parts[0] < 1 or parts != sorted(parts):
        raise UsageError(f"expected positive, nondecreasing weights "
                         f"a1,a2,a3,a4, got {text!r}")
    if parts[3] > MAX_WEIGHT:
        raise UsageError(f"weights above {MAX_WEIGHT} are not supported, "
                         f"got {text!r}")
    return tuple(parts)


def _resolve_family(selector: str, dataset) -> Family:
    if selector.isdecimal():
        no = int(selector)
        if not 1 <= no <= len(dataset.families):
            raise UsageError(f"family number {no} out of range")
        return dataset.family(no).family
    weights = _parse_weights(selector)
    for rec in dataset.families:
        if rec.family.w[1:] == weights:
            return rec.family
    raise UsageError(f"no family with weights {weights}")


def _member_chart(f: Family, i: int, member) -> int | None:
    """The coordinate the member's equation solves for at O_i: the heaviest
    x_e whose monomial x_i^k * x_e it contains, or None if there is none."""
    return max((e for e in vertex_elimination_candidates(f, i)
                if eliminating_monomial(f, i, e) in member),
               key=lambda e: (f.w[e], e), default=None)


# ------------------------------------------------------------- subcommands

def cmd_enumerate(args) -> int:
    if not 1 <= args.max_weight <= MAX_ENUMERATE_WEIGHT:
        raise UsageError(f"--max-weight must be in 1..{MAX_ENUMERATE_WEIGHT}, "
                         f"got {args.max_weight}")
    dataset = _dataset(args)
    families = enumerate_families(args.max_weight)
    expected = [rec.family for rec in dataset.families]
    ok = ([(f.d, f.w) for f in families] == [(f.d, f.w) for f in expected])
    if args.json:
        payload = [
            {"no": f.entry_no, "degree": f.d, "weights": list(f.w)}
            for f in families
        ]
        print(report_mod.to_json(payload))
    else:
        for f in families:
            w = ",".join(str(x) for x in f.w)
            print(f"No. {f.entry_no:02d}  X_{f.d} in P({w})  "
                  f"A^3 = {anticanonical_degree(f)}")
    if args.diff_paper:
        for rec in dataset.families:
            if rec.list_typo:
                print(f"list correction: No. {rec.family.entry_no} printed "
                      f"as P{rec.printed_weights}, actual "
                      f"P{rec.family.w}", file=sys.stderr)
    if not ok:
        print(f"error: enumeration returned {len(families)} families and "
              f"diverges from the embedded list", file=sys.stderr)
        return MISMATCH
    return 0


def cmd_census(args) -> int:
    dataset = _dataset(args)
    f = _resolve_family(args.family, dataset)
    cens = compute_census(f)
    if args.json:
        print(report_mod.to_json(
            [report_mod.census_record(e) for e in cens.entries]))
    else:
        print(f)
        if not cens.entries:
            print("  smooth: no singular points")
        for e in cens.entries:
            print(f"  {e}")
    return 0


def cmd_report(args) -> int:
    dataset = _dataset(args)
    f = _resolve_family(args.family, dataset)
    rep = report_mod.build_report(f.entry_no,
                                  parse_variant(args.variant or ""), dataset)
    if args.json:
        print(report_mod.to_json(rep))
    else:
        print(report_mod.render_text(rep))
    return 0 if not rep["discrepancies"] else MISMATCH


def cmd_check_tables(args) -> int:
    dataset = _dataset(args)
    only = (None if args.family is None
            else _resolve_family(args.family, dataset).entry_no)
    result = report_mod.check_tables(dataset, family_filter=only)
    if args.json:
        print(report_mod.to_json({
            "summary": result.summary(),
            "discrepancies": result.discrepancies,
            "documented": result.documented,
        }))
    else:
        print(result.summary())
        for d in result.documented:
            tag = "defect" if d["kind"] == "defect" else "correction"
            print(f"  documented {tag}: No. {d['family']} {d['point']}: "
                  f"{d['note']}")
        for d in result.discrepancies:
            print(f"  DISCREPANCY No. {d['family']} {d['point']} "
                  f"[{d.get('condition', '')}]: {d['reason']}")
    return 0 if result.clean else MISMATCH


def cmd_order(args) -> int:
    dataset = _dataset(args)
    f = _resolve_family(args.family, dataset)
    variant = parse_variant(args.variant or "")
    if set(variant) - {"special"}:
        raise UsageError(f"order takes no --variant but special, "
                         f"got {args.variant!r}")
    point = args.point
    if not (len(point) == 2 and point[0] == "O" and point[1] in "yztw"):
        raise UsageError("--point must be one of Oy, Oz, Ot, Ow")
    try:
        g = parse_poly(args.poly)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not g:
        raise UsageError("--poly is the zero polynomial, which has no order")

    idx = COORDS.index(point[1])
    member = (special_member(f, "special") if variant
              else generic_member(f, seed=args.seed))
    sing = vertex_singularity(f, idx, _member_chart(f, idx, member))
    if sing is None:
        raise UsageError(
            f"the general member has no quotient point at {point}")
    if args.cutoff is not None and not 1 <= args.cutoff <= MAX_CUTOFF * sing.r:
        raise UsageError(f"--cutoff must be between 1 and {MAX_CUTOFF}r = "
                         f"{MAX_CUTOFF * sing.r} at {point}")
    order = divisor_multiplicity(BlowupContext(f, sing), g, member,
                                 cutoff=args.cutoff)
    if order is OVERCUTOFF:
        print(f"every term cancels below the cutoff; raise --cutoff "
              f"(used {args.cutoff or DEFAULT_CUTOFF * sing.r})",
              file=sys.stderr)
        return MISMATCH
    print(order)
    return 0


def cmd_search(args) -> int:
    f = Family.of(*_parse_weights(args.weights))
    info = {
        "weights": list(f.w), "degree": f.d,
        "anticanonical_degree": str(anticanonical_degree(f)),
        "wellformed": is_wellformed(f.w),
    }
    qs = general_quasismooth(f)
    info["quasismooth"] = qs.ok
    if not qs.ok:
        info["quasismooth_failure"] = qs.detail
    if qs.ok:
        info["terminal"] = is_terminal_family(f)
        if info["terminal"]:
            info["census"] = [report_mod.census_record(e)
                              for e in compute_census(f).entries]
            dataset = _dataset(args)
            match = next((rec.family.entry_no for rec in dataset.families
                          if rec.family.w == f.w), None)
            info["entry_no"] = match
    if args.json:
        print(report_mod.to_json(info))
    else:
        for key, value in info.items():
            print(f"{key}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wfano",
        description="Arithmetic certificate checker for the 95 weighted "
                    "Fano threefold hypersurface families")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, golden_flag=True):
        sp.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")
        if golden_flag:
            sp.add_argument("--golden", metavar="PATH",
                            help="directory overriding the packaged dataset")

    sp = sub.add_parser("enumerate", help="rediscover the 95 families")
    sp.add_argument("--max-weight", type=int, default=33,
                    help=f"largest a4 scanned, 1..{MAX_ENUMERATE_WEIGHT}")
    sp.add_argument("--diff-paper", action="store_true",
                    help="show the documented source-list corrections")
    add_common(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("census", help="singular points of a family")
    sp.add_argument("family", help="entry number or a1,a2,a3,a4")
    add_common(sp)
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("report", help="full certificate report")
    sp.add_argument("family", help="entry number or a1,a2,a3,a4")
    sp.add_argument("--variant", help="condition flags, e.g. a1=0,c=0")
    add_common(sp)
    sp.set_defaults(func=cmd_report)

    sp = sub.add_parser("check-tables", help="run the consistency suite")
    sp.add_argument("--family",
                    help="restrict to one family: entry number or a1,a2,a3,a4")
    add_common(sp)
    sp.set_defaults(func=cmd_check_tables)

    sp = sub.add_parser("order", help="vanishing order at a vertex point")
    sp.add_argument("family", help="entry number or a1,a2,a3,a4")
    sp.add_argument("--point", required=True, help="Oy, Oz, Ot or Ow")
    sp.add_argument("--poly", required=True,
                    help="polynomial, e.g. 'y*z+x*t'")
    sp.add_argument("--variant", help="member variant, e.g. special")
    sp.add_argument("--cutoff", type=int,
                    help=f"series cutoff, at most {MAX_CUTOFF}r "
                         f"(default {DEFAULT_CUTOFF}r)")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for the generic member coefficients")
    add_common(sp)
    sp.set_defaults(func=cmd_order)

    sp = sub.add_parser("search", help="probe a raw weight quadruple")
    sp.add_argument("weights", help="a1,a2,a3,a4")
    add_common(sp)
    sp.set_defaults(func=cmd_search)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MISMATCHES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MISMATCH


if __name__ == "__main__":
    sys.exit(main())
