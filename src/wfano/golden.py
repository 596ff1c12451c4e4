"""Reference certificate tables and their row grammar.

The dataset ships as tab-separated files under ``wfano/data``: one record
per certificate-table row, strings transliterated verbatim from the source
tables (singularity types keep their local-parameter subscripts, e.g.
``1/3(1_x,2_y,1_t)``).  A companion notes file is the only record of what
the source prints otherwise: two weight-list typos, two singularity-type
typos and one surface typo, each with its printed and corrected strings,
and one certificate whose printed inequality data does not check out.
families.tsv lists the corrected weights; the other corrections are
applied at load time, and a note that applies nowhere fails the load.
Each row, family and note loads into an immutable named tuple (`GoldenRow`,
`FamilyRecord`, `Note`); `GoldenData` holds the three tables and indexes
the rows by family.

File format: UTF-8 text, a leading byte-order mark allowed.  The first
line is a header that names the columns.  Each later line holds one row,
its cells separated by tabs, exactly one cell per column.  Empty lines are
skipped.  Lines are split as `str.splitlines` splits them, so ``\r\n``
endings read like ``\n``.  There is no quoting: a ``"`` is read as part of
its cell.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from functools import cache
from operator import itemgetter

from .census import LOCATIONS, normalize_type
from .exactmath import COORD_INDEX, Exp5, parse_poly
from .wps import Family

EXCLUDE_METHODS = frozenset({"B", "N", "S", "F", "P"})
METHOD_SYMBOLS = {
    "B": "(b)", "N": "(n)", "S": "(s)", "F": "(f)", "P": "(p)",
    "TAU": "[tau]", "TAU1": "[tau1]", "EPS": "[eps]", "EPS1": "[eps1]",
    "EPS2": "[eps2]", "IOTA": "[iota]", "IOTA1": "[iota1]",
}

# The coefficient symbols of the tables; no two share a first letter.
_GREEK = ("alpha", "beta", "lambda", "mu")


def _strip_coefficients(text: str) -> str:
    """`text` with each coefficient symbol replaced by a space.

    A symbol is one of the `_GREEK` names, with at most a one-character
    subscript: '_' and one letter, digit or '_', as in 'y-alpha_iz'; a
    longer subscript would swallow the monomial after it.  The text is read
    from the left, and a symbol is replaced where it starts, so a symbol
    cannot overlap one before it.
    """
    if not any(map(text.__contains__, _GREEK)):  # most cells have none
        return text
    out = []
    start = 0  # the text before `start` is read
    while True:
        found = [(at, name) for name in _GREEK
                 if (at := text.find(name, start)) >= 0]
        if not found:
            break
        at, name = min(found)
        end = at + len(name)
        sub = text[end + 1:end + 2]  # the subscript, after a '_'
        if text.startswith("_", end) and (sub.isalnum() or sub == "_"):
            end += 2
        out += text[start:at], " "
        start = end
    out.append(text[start:])
    return "".join(out)


@cache
def parse_monomials(text: str) -> tuple[Exp5, ...]:
    """Monomials of one table polynomial, e.g. 'z-alpha_i y^2' -> z, y^2.

    The coefficient symbols are stripped (`_strip_coefficients`) and the
    rest is read by `parse_poly`, the engine's one grammar for polynomial
    text.  The tables repeat a few dozen strings, so each is parsed once.
    """
    return tuple(parse_poly(_strip_coefficients(text)))


def parse_type(text: str) -> tuple[int, tuple[int, int, int],
                                   tuple[int | None, ...]]:
    """'1/3(1_x,2_y,1_t)' -> (3, (1,2,1), (0,1,3)); subscripts optional.

    Spaces are ignored.  The order r is a decimal number with no leading
    zero, and the residues are the text between the first '(' after it and
    a closing ')' that ends the type; a line break there fails.
    """
    head, _, body = text.replace(" ", "").partition("(")
    order = head[2:]
    if not (head.startswith("1/") and order.isdecimal()
            and "1" <= order[0] <= "9" and body.endswith(")")
            and "\n" not in body):
        raise ValueError(f"cannot parse singularity type {text!r}")
    r = int(order)
    residues, subs = [], []
    for item in body[:-1].split(","):
        # digits, then optionally '_' and a coordinate
        digits, subscripted, coord = item.partition("_")
        if not digits.isdecimal() or subscripted and coord not in COORD_INDEX:
            raise ValueError(f"cannot parse residue {item!r} in {text!r}")
        residues.append(int(digits))
        subs.append(COORD_INDEX[coord] if subscripted else None)
    if len(residues) != 3:
        raise ValueError(f"expected three residues in {text!r}")
    return r, tuple(residues), tuple(subs)


@cache
def parse_linear_system(text: str) -> tuple[int, int]:
    """'5B+2E' -> (5, 2); 'B-E' -> (1, -1); 'B' -> (1, 0).

    Spaces are ignored, and a missing coefficient reads as 1.
    """
    head, has_b, tail = text.replace(" ", "").partition("B")
    e = tail[1:-1]  # the coefficient of E, between its sign and the 'E'
    if not (has_b and (not head or head.isdecimal())
            and (not tail or tail[0] in "+-" and tail[-1] == "E"
                 and (not e or e.isdecimal()))):
        raise ValueError(f"cannot parse linear system {text!r}")
    c = int(head or 1)
    b = 0
    if tail:
        b = int(e or 1) * (1 if tail[0] == "+" else -1)
    return c, b


@cache
def parse_condition(text: str) -> frozenset[tuple[str, str]]:
    """Condition atoms: ('a1', 'zero'|'nonzero') or ('type', 'I'|'II').

    Chained equalities like 'a_1=a_2=0' yield one atom per symbol; compound
    coefficient expressions such as 'a_1b_2-a_2b_1' stay single atoms.
    """
    text = text.strip()
    if not text:
        return frozenset()
    if text.startswith("Type"):
        words = text.split()
        if len(words) != 2:
            raise ValueError(f"cannot parse condition {text!r}")
        return frozenset({("type", words[1])})
    atoms = set()
    for token in text.replace(",", " ").split():
        if "!=" in token:
            name, rest = token.split("!=", 1)
            if rest != "0":
                raise ValueError(f"unexpected comparison {token!r}")
            atoms.add((canonical_atom(name), "nonzero"))
        elif "=" in token:
            parts = token.split("=")
            if parts[-1] != "0":
                raise ValueError(f"unexpected comparison {token!r}")
            for name in parts[:-1]:
                atoms.add((canonical_atom(name), "zero"))
        else:
            raise ValueError(f"cannot parse condition atom {token!r}")
    return frozenset(atoms)


def canonical_atom(name: str) -> str:
    return name.replace("_", "").strip()


def atom_values(name: str) -> tuple[str, str]:
    """The two values of a condition atom, the generic value first."""
    return ("I", "II") if name == "type" else ("nonzero", "zero")


Note = namedtuple("Note", "no point kind field printed corrected note")


class GoldenRow(namedtuple("GoldenRow", (
        "family_no",
        "point",          # e.g. "Oz", "OzOt"
        "location",       # ("vertex", i) or ("edge", i, j)
        "count",
        "r",              # the order of `type_str`
        "type_str",       # corrected when a documented typo applies
        "residues",
        # the local parameters read off the type's subscripts, when all
        # three are printed; else None
        "local_params",
        "normalized",     # the residues normalized to (1, a, r-a)
        "method",
        "b3_sign",
        "linsys_raw",
        "linsys",         # (c, b) of cB+bE, or None
        "surface",        # generators' monomials, corrected like `type_str`
        "vanishing",      # monomials
        "condition_raw",
        "condition",      # frozenset of (atom, value) pairs
        "witness_raw",
        "witness",        # monomials
        "corrected",      # the type is corrected
        "defect",         # the documented certificate defect, a `Note`
))):
    """One certificate-table row, with corrections applied."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        return "exclude" if self.method in EXCLUDE_METHODS else "untwist"


FamilyRecord = namedtuple("FamilyRecord", "family A3 superrigid")


class GoldenData:
    """The three tables, with the rows indexed by family number."""

    __slots__ = ("families", "rows", "notes", "_by_family")

    def __init__(self, families: tuple[FamilyRecord, ...],
                 rows: tuple[GoldenRow, ...], notes: tuple[Note, ...]):
        self.families, self.rows, self.notes = families, rows, notes
        # family number -> its rows, in the order of `rows`
        self._by_family: dict[int, list[GoldenRow]] = {}
        for r in rows:
            self._by_family.setdefault(r.family_no, []).append(r)

    def family(self, no: int) -> Family:
        return self.families[no - 1].family

    def rows_for(self, no: int, point: str | None = None
                 ) -> list[GoldenRow]:
        return [r for r in self._by_family.get(no, ())
                if point is None or r.point == point]

    def points_of(self, no: int) -> list[str]:
        return list(dict.fromkeys(r.point
                                  for r in self._by_family.get(no, ())))

    def atoms_for(self, no: int, point: str | None = None
                  ) -> set[str]:
        names: set[str] = set()
        for r in self.rows_for(no, point):
            names.update(name for name, _v in r.condition)
        return names


# The columns `load` reads from each file, `no` first.  `_read_tsv` returns
# the others in this order.
_COLUMNS = {
    "families.tsv": ("no", "d", "weights", "A3", "superrigid"),
    "golden_tables.tsv": ("no", "point", "count", "type_raw", "method",
                          "b3", "linsys", "surface", "vanishing",
                          "condition", "witness"),
    "golden_notes.tsv": ("no", "point", "kind", "field", "printed",
                         "corrected", "note"),
}


def _read_tsv(directory: str | os.PathLike, name: str
              ) -> list[tuple[int, tuple[str, ...]]]:
    """(no, cells) for each row of the file: its `no` cell read as an int,
    and its other `_COLUMNS` cells in that order.

    The file is in the module docstring's format.  Its header may name more
    columns than `load` reads, in any order, but none that it reads twice.
    """
    # decoding as utf-8 and dropping a leading byte-order mark is what the
    # 'utf-8-sig' codec does, without importing it
    with open(os.path.join(directory, name), encoding="utf-8") as file:
        text = file.read().removeprefix("\ufeff")
    lines = text.splitlines()
    header = lines[0].split("\t") if lines else []
    index = {column: i for i, column in enumerate(header)}
    for column in _COLUMNS[name]:
        if header.count(column) != 1:
            problem = "missing" if column not in index else "repeated"
            raise ValueError(f"{name}: {problem} column {column!r}")
    width, at_no = len(header), index["no"]
    pick = itemgetter(*(index[column] for column in _COLUMNS[name][1:]))
    rows = []
    for line_no, line in enumerate(lines[1:], 2):
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != width:
            raise ValueError(f"{name}: line {line_no} has "
                             f"{'fewer' if len(cells) < width else 'more'} "
                             f"cells than the header")
        try:
            rows.append((int(cells[at_no]), pick(cells)))
        except ValueError:
            raise ValueError(f"{name}: column 'no' of line {line_no} reads "
                             f"{cells[at_no]!r}, expected an integer"
                             ) from None
    return rows


def _integers(text: str) -> tuple[int, ...]:
    return tuple(map(int, text.split(",")))


def _flag(text: str) -> bool:
    return bool(("0", "1").index(text))


def _family_cell(no: int, column: str, text: str, parse, expected: str):
    """`parse(text)` of one cell of families.tsv; an error names the cell."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):  # Fraction('1/0') divides
        raise ValueError(f"families.tsv: column {column!r} of family {no} "
                         f"reads {text!r}, expected {expected}") from None


# The tables repeat their cells (300 rows hold 111 distinct types, 32 linear
# systems, 39 conditions and 58 monomial strings), so `load` parses each
# distinct text once: through the caches below and those of
# `parse_linear_system`, `parse_condition` and `parse_monomials`.  Each
# result is immutable and shared by every row that prints the text.

@cache
def _type_cell(text: str) -> tuple[int, tuple[int, int, int],
                                   tuple[int, int, int] | None,
                                   tuple[int, int, int]]:
    """(r, residues, local params or None, normalized residues) of a
    singularity type; `NonTerminal` if the type is not terminal."""
    r, residues, subs = parse_type(text)
    return (r, residues, None if None in subs else subs,
            normalize_type(r, residues))


@cache
def _surface_cell(text: str) -> tuple[tuple[Exp5, ...], ...]:
    return tuple(parse_monomials(g) for g in text.split(",") if g.strip())


@cache
def _vanishing_cell(text: str) -> tuple[Exp5, ...]:
    return tuple(mono for part in text.split(" or ")
                 for v in part.split(",") for mono in parse_monomials(v))


def _golden_row(no: int, point: str, count: str, type_raw: str,
                method: str, b3: str, linsys_raw: str, surface_raw: str,
                vanishing_raw: str, condition_raw: str, witness_raw: str,
                notes: dict, used: set) -> GoldenRow:
    """One row of golden_tables.tsv, every cell parsed, with the notes that
    apply to it; `load` says how `notes` keys them, and each one found is
    added to `used`."""
    type_fix = notes.get(("type_typo", no, point, type_raw))
    surface_fix = notes.get(("surface_typo", no, point, surface_raw))
    # the defect note is about the printed (n) certificate; a row that
    # reads another method is not the documented one
    defect = (notes.get(("certificate_defect", no, point, "-"))
              if method == "N" else None)
    used.update(filter(None, (type_fix, surface_fix, defect)))
    if method not in METHOD_SYMBOLS:
        raise ValueError(f"unknown method {method!r}")
    location = LOCATIONS.get(point)
    if location is None:
        raise ValueError(f"unknown point {point!r}")
    type_str = type_fix.corrected if type_fix else type_raw
    r, residues, local_params, normalized = _type_cell(type_str)
    linsys = parse_linear_system(linsys_raw) if linsys_raw else None
    surface = _surface_cell(surface_fix.corrected if surface_fix
                            else surface_raw)
    vanishing = _vanishing_cell(vanishing_raw)
    if method in EXCLUDE_METHODS and not (linsys and vanishing):
        raise ValueError("an exclusion row needs a 'linsys' and a "
                         "'vanishing' cell")
    return GoldenRow(
        no, point, location, int(count), r, type_str, residues, local_params,
        normalized, method, b3, linsys_raw, linsys, surface, vanishing,
        condition_raw, parse_condition(condition_raw),
        witness_raw, parse_monomials(witness_raw), type_fix is not None,
        defect)


def _row_name(no: int, cells: tuple[str, ...]) -> str:
    """How an error names a row of golden_tables.tsv: its family, point
    and condition."""
    columns = _COLUMNS["golden_tables.tsv"][1:]  # the order of `cells`
    return (f"golden_tables.tsv: the row No. {no} "
            f"{cells[columns.index('point')]} "
            f"[{cells[columns.index('condition')]}]")


def _note_name(n: Note) -> str:
    """How an error names a note of golden_notes.tsv."""
    return (f"golden_notes.tsv: the {n.kind} note at No. {n.no} {n.point} "
            f"({n.printed!r} -> {n.corrected!r})")


def load(path: str | os.PathLike | None = None) -> GoldenData:
    """Load the golden dataset, applying documented corrections.

    `path`, a `str` or a path object, overrides the packaged data
    directory, the ``data`` folder next to this module; it must contain
    families.tsv, golden_tables.tsv and golden_notes.tsv.  Each is a
    tab-separated table under a header line, without quoting, in the format
    the module docstring gives.  Malformed data, including a line with more
    or fewer cells than its header, a row of a family that families.tsv
    does not list, or a note that applies to no row or family, raises
    ValueError naming the file and the family, row, note or line.  Every
    cell of golden_tables.tsv is parsed here, a corrected cell as its
    note's correction.
    """
    directory = (os.path.join(os.path.dirname(__file__), "data")
                 if path is None else path)
    notes = tuple(Note(no, *cells)
                  for no, cells in _read_tsv(directory, "golden_notes.tsv"))
    # A note applies where a cell reads the text it is keyed by: a type or
    # surface note where a row at its point prints its printed text, a
    # defect note (printed '-') at the (n) row of its point, and a list note
    # where families.tsv lists its corrected weights.
    by_key = {}
    for n in notes:
        key = (n.kind, n.no, n.point,
               n.corrected if n.kind == "list_typo" else n.printed)
        if by_key.setdefault(key, n) is not n:
            raise ValueError(f"{_note_name(n)} applies where an earlier "
                             f"note does")
    used = set()

    fams = []
    for no, (d, weights, A3, superrigid) in _read_tsv(directory,
                                                      "families.tsv"):
        list_fix = by_key.get(("list_typo", no, "-", weights))
        if list_fix:
            used.add(list_fix)
        fam = _family_cell(no, "weights", weights,
                           lambda text: Family(_integers(text), no),
                           "1,a1,a2,a3,a4 with 0 < a1 <= a2 <= a3 <= a4")
        if d != str(fam.d):
            raise ValueError(f"families.tsv: column 'd' of family "
                             f"{no} reads {d!r}, expected "
                             f"a1+a2+a3+a4 = {fam.d}")
        fams.append(FamilyRecord(
            fam, _family_cell(no, "A3", A3, Fraction, "a fraction"),
            _family_cell(no, "superrigid", superrigid, _flag, "0 or 1")))
    fams.sort(key=lambda fr: fr.family.entry_no)
    # `GoldenData.family(no)` indexes by entry number, and a row of a
    # family that is not listed would never be checked
    if [fr.family.entry_no for fr in fams] != list(range(1, len(fams) + 1)):
        raise ValueError(f"families.tsv: column 'no' must number the "
                         f"families 1..{len(fams)}, each once")

    rows = []
    for no, cells in _read_tsv(directory, "golden_tables.tsv"):
        if not 1 <= no <= len(fams):
            raise ValueError(f"{_row_name(no, cells)} names no family of "
                             f"families.tsv")
        try:
            rows.append(_golden_row(no, *cells, by_key, used))
        except ValueError as exc:
            raise ValueError(f"{_row_name(no, cells)}: {exc}") from None
    # a note that applies nowhere would be reported as documented while it
    # corrects or excuses nothing
    for n in notes:
        if n not in used:
            raise ValueError(f"{_note_name(n)} applies to no row or family")
    return GoldenData(tuple(fams), tuple(rows), notes)


@cache
def data() -> GoldenData:
    """The packaged dataset, loaded once."""
    return load()


# ------------------------------------------------------- variant matching

class UnknownVariantFlag(ValueError):
    pass


def parse_variant(text: str) -> dict[str, str]:
    """CLI variant syntax: 'a1=0,c=nonzero,type=II'.

    A flag given twice, also under two spellings that `canonical_atom`
    folds to one name, is an error.
    """
    out: dict[str, str] = {}
    if not text:
        return out
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        name, sep, value = tok.partition("=")
        name = canonical_atom(name)
        if not (sep and name):
            raise UnknownVariantFlag(f"bad variant flag {tok!r}")
        value = value.strip()
        if name != "type":
            value = {"0": "zero", "nz": "nonzero"}.get(value, value)
        if value not in atom_values(name):
            raise UnknownVariantFlag(
                f"type must be I or II, got {value!r}" if name == "type"
                else f"variant value must be 0 or nonzero, got {tok!r}")
        if name in out:
            raise UnknownVariantFlag(
                f"variant flag {name!r} given twice in {text!r}")
        out[name] = value
    return out


def holds(condition: Iterable[tuple[str, str]],
          variant: dict[str, str]) -> bool:
    """Whether each (atom, value) of a condition holds under the variant.

    An atom the variant does not name takes its generic value, the first
    of `atom_values`: every coefficient nonzero, Type I.
    """
    return all(variant.get(name, atom_values(name)[0]) == value
               for name, value in condition)


def match_rows(dataset: GoldenData, no: int, point: str,
               variant: dict[str, str]) -> list[GoldenRow]:
    """Golden rows at the point whose conditions hold under the variant."""
    return [row for row in dataset.rows_for(no, point)
            if holds(row.condition, variant)]
