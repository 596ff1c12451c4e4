"""Command-line interface.

Subcommands: enumerate, census, report, check-tables, order, search, all
read from the one table `COMMANDS`.
Exit codes: 0 success, 1 verification mismatch, 2 usage error, a malformed
command line included.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import golden, report as report_mod
from .blowup import DEFAULT_CUTOFF, CrossCheckFailed, divisor_multiplicity
from .census import census as compute_census
from .census import (LOCATIONS, EdgeContained, NonTerminal,
                     is_terminal_family, member_chart, vertex_singularity)
from .exactmath import NoEliminatingMonomial, OVERCUTOFF, parse_poly
from .golden import UnknownVariantFlag, parse_variant
from .wps import (Family, UnknownSpecialMember, anticanonical_degree,
                  enumerate_families, general_quasismooth, generic_member,
                  is_wellformed, special_member)

USAGE_ERROR = 2
MISMATCH = 1
# Largest `order --cutoff`, in multiples of r; the series work grows steeply
# with the cutoff, and at 8r no vertex point of the 95 takes a second.
MAX_CUTOFF = 8
# Largest weight a selector or `search` accepts; the quasi-smoothness test
# keeps bit masks of about a1+a2+a3+a4 bits per coordinate subset.
MAX_WEIGHT = 10**6
# Largest `enumerate --max-weight`; the scan over a1 <= a2 <= a3 grows as its
# cube and takes about 0.14 s at this bound (Python 3.11, one core).  All 95
# families have a4 <= 33.
MAX_ENUMERATE_WEIGHT = 100


class UsageError(ValueError):
    pass


# What `main` turns into an exit code and one `error:` line.  Anything else
# is a defect in the program and keeps its traceback.
USAGE_ERRORS = (UsageError, UnknownVariantFlag, UnknownSpecialMember)
MISMATCHES = (NonTerminal, EdgeContained, NoEliminatingMonomial,
              CrossCheckFailed)


def _dataset(args):
    if args.golden == "":  # as from an unset shell variable
        raise UsageError("--golden expects a directory, got ''")
    if args.golden is not None:
        try:
            return golden.load(args.golden)
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
        return dataset.family(no)
    weights = _parse_weights(selector)
    for rec in dataset.families:
        if rec.family.w[1:] == weights:
            return rec.family
    raise UsageError(f"no family with weights {weights}")


def _print_payload(args, payload: dict, render) -> int:
    """Print the payload as JSON or text; exit 1 iff it has a discrepancy."""
    print(report_mod.to_json(payload) if args.json else render(payload))
    return MISMATCH if payload["discrepancies"] else 0


# ------------------------------------------------------------- subcommands

def cmd_enumerate(args) -> int:
    if not 1 <= args.max_weight <= MAX_ENUMERATE_WEIGHT:
        raise UsageError(f"--max-weight must be in 1..{MAX_ENUMERATE_WEIGHT}, "
                         f"got {args.max_weight}")
    dataset = _dataset(args)
    families = enumerate_families(args.max_weight)
    expected = [rec.family for rec in dataset.families
                if rec.family.w[4] <= args.max_weight]
    ok = ([(f.d, f.w) for f in families] == [(f.d, f.w) for f in expected])
    if ok:  # the list's numbers, which the scan's 1..k miss below a4 = 33
        families = expected
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
    if args.diff_paper:  # only the families the scan could reach
        for note in sorted(dataset.notes):
            w = dataset.family(note.no).w
            if note.kind == "list_typo" and w[4] <= args.max_weight:
                print(f"list correction: No. {note.no} printed as "
                      f"P({', '.join(note.printed.split(','))}), actual "
                      f"P{w}", file=sys.stderr)
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
        _print_census(cens.entries)
    return 0


def _print_census(entries) -> None:
    """One indented line per census point, or one saying there is none."""
    if not entries:
        print("  smooth: no singular points")
    for e in entries:
        print(f"  {e}")


def cmd_report(args) -> int:
    dataset = _dataset(args)
    f = _resolve_family(args.family, dataset)
    rep = report_mod.build_report(f.entry_no,
                                  parse_variant(args.variant or ""), dataset)
    return _print_payload(args, rep, report_mod.render_text)


def cmd_check_tables(args) -> int:
    dataset = _dataset(args)
    only = (None if args.family is None
            else _resolve_family(args.family, dataset).entry_no)
    result = report_mod.check_tables(dataset, family_filter=only)
    return _print_payload(args, result, report_mod.render_check_text)


def cmd_order(args) -> int:
    dataset = _dataset(args)
    f = _resolve_family(args.family, dataset)
    if args.variant not in (None, "", "special"):
        raise UsageError(f"order takes no --variant but special, "
                         f"got {args.variant!r}")
    point = args.point
    location = LOCATIONS.get(point)
    if location is None or location[0] != "vertex":
        raise UsageError("--point must be one of Oy, Oz, Ot, Ow")
    try:
        g = parse_poly(args.poly)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not g:
        raise UsageError("--poly is the zero polynomial, which has no order")

    idx = location[1]
    member = (special_member(f) if args.variant
              else generic_member(f, seed=args.seed))
    sing = vertex_singularity(f, idx, member_chart(f, idx, member))
    if sing is None:
        raise UsageError(
            f"the general member has no quotient point at {point}")
    if args.cutoff is not None and not 1 <= args.cutoff <= MAX_CUTOFF * sing.r:
        raise UsageError(f"--cutoff must be between 1 and {MAX_CUTOFF}r = "
                         f"{MAX_CUTOFF * sing.r} at {point}")
    order = divisor_multiplicity(sing, g, member, cutoff=args.cutoff)
    if order is OVERCUTOFF:
        cutoff = args.cutoff or DEFAULT_CUTOFF * sing.r
        print(f"the order is at least cutoff/r = {cutoff}/{sing.r}: no "
              f"term of --poly survives below the cutoff; raise --cutoff",
              file=sys.stderr)
        return MISMATCH
    print(order)
    return 0


def cmd_search(args) -> int:
    dataset = _dataset(args)
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
            entries = compute_census(f).entries
            info["census"] = [report_mod.census_record(e) for e in entries]
            match = next((rec.family.entry_no for rec in dataset.families
                          if rec.family.w == f.w), None)
            info["entry_no"] = match
    if args.json:
        print(report_mod.to_json(info))
    else:
        for key, value in info.items():
            if key == "census":
                print("census:")
                _print_census(entries)
            else:
                print(f"{key}: {value}")
    return 0


# ------------------------------------------------------------- the table

# Option kinds: an int, a string, an on/off flag, or a string that must be
# given.  Each option is (name, kind, default, help); its value lands on
# the attribute named like the option without dashes, `_` for `-`.
INT, STR, FLAG, REQUIRED = "int", "str", "flag", "required"
FAMILY = ("family", "entry number or a1,a2,a3,a4")
JSON = ("--json", FLAG, False, "emit JSON instead of text")
GOLDEN = ("--golden", STR, None, "directory overriding the packaged dataset")

# Each command: (handler, help, positionals as (name, help), options).
COMMANDS = {
    "enumerate": (cmd_enumerate, "rediscover the 95 families", (), (
        ("--max-weight", INT, 33,
         f"largest a4 scanned, 1..{MAX_ENUMERATE_WEIGHT}"),
        ("--diff-paper", FLAG, False,
         "show the documented source-list corrections"),
        JSON, GOLDEN)),
    "census": (cmd_census, "singular points of a family", (FAMILY,),
               (JSON, GOLDEN)),
    "report": (cmd_report, "full certificate report", (FAMILY,), (
        ("--variant", STR, None, "condition flags, e.g. a1=0,c=0"),
        JSON, GOLDEN)),
    "check-tables": (cmd_check_tables, "run the consistency suite", (), (
        ("--family", STR, None,
         "restrict to one family: entry number or a1,a2,a3,a4"),
        JSON, GOLDEN)),
    # `order` prints one number, so it takes no --json
    "order": (cmd_order, "vanishing order at a vertex point", (FAMILY,), (
        ("--point", REQUIRED, None, "Oy, Oz, Ot or Ow"),
        ("--poly", REQUIRED, None, "polynomial, e.g. 'y*z+x*t'"),
        ("--variant", STR, None, "special: the special member of No. 23"),
        ("--cutoff", INT, None,
         f"cap on the series depth; an order of cutoff/r or more reports "
         f"over-cutoff; at most {MAX_CUTOFF}r (default {DEFAULT_CUTOFF}r)"),
        ("--seed", INT, 0, "seed for the generic member coefficients"),
        GOLDEN)),
    "search": (cmd_search, "probe a raw weight quadruple",
               (("weights", "a1,a2,a3,a4"),), (JSON, GOLDEN)),
}
HELP = ("-h", "--help")


def _attribute(option: str) -> str:
    return option[2:].replace("-", "_")


def parse_args(argv: list[str]):
    """The handler and the arguments for `argv`, read from `COMMANDS`.

    A token that starts with `--` names an option, as `--opt value` or
    `--opt=value`; the token after a valued option is always its value.  A
    repeated option keeps its last value.  Every other token is a
    positional.  `-h` or `--help` selects `print_help`.
    """
    command, *rest = argv or [""]
    if command in HELP:
        return print_help, SimpleNamespace(command=None)
    if command not in COMMANDS:
        raise UsageError(f"expected a command, one of {', '.join(COMMANDS)}; "
                         f"got {command!r}")
    handler, _help, positionals, options = COMMANDS[command]
    kinds = {name: kind for name, kind, _default, _ in options}
    args = SimpleNamespace(command=command, **{
        _attribute(name): default for name, _kind, default, _ in options})
    given: list[str] = []
    tokens = iter(rest)
    for token in tokens:
        if token in HELP:
            return print_help, SimpleNamespace(command=command)
        if not token.startswith("--"):
            given.append(token)
            continue
        name, eq, value = token.partition("=")
        kind = kinds.get(name)
        if kind is None:
            raise UsageError(f"{command} takes no option {name}")
        if kind == FLAG:
            if eq:
                raise UsageError(f"{name} takes no value")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"{name} expects a value")
        if kind == INT:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"{name} expects an integer, got "
                                 f"{value!r}") from None
        setattr(args, _attribute(name), value)
    for name, kind, _default, _ in options:
        if kind == REQUIRED and getattr(args, _attribute(name)) is None:
            raise UsageError(f"{command} needs {name}")
    if len(given) < len(positionals):
        raise UsageError(f"{command} needs the argument "
                         f"{positionals[len(given)][0]}")
    if len(given) > len(positionals):
        raise UsageError(f"{command} takes no argument "
                         f"{given[len(positionals)]!r}")
    for (name, _), value in zip(positionals, given):
        setattr(args, name, value)
    return handler, args


def print_help(args) -> int:
    """Print the help of `args.command`, or of the program if it is None."""
    if args.command is None:
        print("usage: wfano <command> [options]\n\nArithmetic certificate "
              "checker for the 95 weighted Fano threefold hypersurface "
              "families\n\ncommands:")
        _print_rows([(name, entry[1]) for name, entry in COMMANDS.items()])
        print("\n`wfano <command> --help` lists the options of a command.")
        return 0
    _handler, summary, positionals, options = COMMANDS[args.command]
    usage = [name for name, _ in positionals] + [
        f"{name} {_attribute(name).upper()}" for name, kind, _, _ in options
        if kind == REQUIRED] + ["[options]"]
    print(f"usage: wfano {args.command} {' '.join(usage)}\n\n{summary}")
    if positionals:
        print("\narguments:")
        _print_rows(positionals)
    print("\noptions:")
    _print_rows([
        (name if kind == FLAG else f"{name} {_attribute(name).upper()}",
         help + (" (required)" if kind == REQUIRED else "")
         + (f" (default {default})" if kind == INT and default is not None
            else ""))
        for name, kind, default, help in options]
        + [("-h, --help", "show this help")])
    return 0


def _print_rows(rows) -> None:
    width = max(len(left) for left, _ in rows)
    for left, right in rows:
        print(f"  {left:<{width}}  {right}")


def main(argv=None) -> int:
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
        code = handler(args)
        sys.stdout.flush()
        return code
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MISMATCHES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MISMATCH
    except BrokenPipeError:
        # The reader closed stdout, as `wfano check-tables | head -1` does.
        # Point stdout at devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return MISMATCH


if __name__ == "__main__":
    sys.exit(main())
