"""Reference certificate tables and their row grammar.

The dataset ships as tab-separated files under ``wfano/data``: one record
per certificate-table row, strings transliterated verbatim from the source
tables (singularity types keep their local-parameter subscripts, e.g.
``1/3(1_x,2_y,1_t)``).  A companion notes file records the documented
corrections: two weight-list typos, two singularity-type typos, and one
certificate whose printed inequality data does not check out.  Corrections
are applied at load time; both the printed and corrected strings are kept.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Optional

from .census import try_normalize_type
from .exactmath import COORD_INDEX, Exp5, parse_poly
from .wps import Family

EXCLUDE_METHODS = frozenset({"B", "N", "S", "F", "P"})
METHOD_SYMBOLS = {
    "B": "(b)", "N": "(n)", "S": "(s)", "F": "(f)", "P": "(p)",
    "TAU": "[tau]", "TAU1": "[tau1]", "EPS": "[eps]", "EPS1": "[eps1]",
    "EPS2": "[eps2]", "IOTA": "[iota]", "IOTA1": "[iota1]",
}

# A coefficient symbol with at most a one-character subscript, as in
# 'y-alpha_iz'; a longer pattern would swallow the monomial after it.
_GREEK = re.compile(r"(alpha|beta|lambda|mu)(_\w)?")


@lru_cache(maxsize=None)
def parse_monomials(text: str) -> tuple[Exp5, ...]:
    """Monomials of one table polynomial, e.g. 'z-alpha_i y^2' -> z, y^2.

    The coefficient symbols are stripped and the rest is read by
    `parse_poly`, the engine's one grammar for polynomial text.  The tables
    repeat a few dozen strings, so each is parsed once.
    """
    return tuple(parse_poly(_GREEK.sub(" ", text)))


def parse_type(text: str) -> tuple[int, tuple[int, int, int],
                                   tuple[Optional[int], ...]]:
    """'1/3(1_x,2_y,1_t)' -> (3, (1,2,1), (1,2,3)); subscripts optional."""
    m = re.fullmatch(r"1/(\d+)\((.*)\)", text.replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse singularity type {text!r}")
    r = int(m.group(1))
    residues, subs = [], []
    for item in m.group(2).split(","):
        mm = re.fullmatch(r"(\d+)(?:_([xyztw]))?", item)
        if not mm:
            raise ValueError(f"cannot parse residue {item!r} in {text!r}")
        residues.append(int(mm.group(1)))
        subs.append(COORD_INDEX[mm.group(2)] if mm.group(2) else None)
    if len(residues) != 3:
        raise ValueError(f"expected three residues in {text!r}")
    return r, tuple(residues), tuple(subs)


def parse_linear_system(text: str) -> tuple[int, int]:
    """'5B+2E' -> (5, 2); 'B-E' -> (1, -1); 'B' -> (1, 0)."""
    m = re.fullmatch(r"(\d*)B(?:([+-])(\d*)E)?", text.replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse linear system {text!r}")
    c = int(m.group(1) or 1)
    b = 0
    if m.group(2):
        b = int(m.group(3) or 1) * (1 if m.group(2) == "+" else -1)
    return c, b


def parse_condition(text: str) -> frozenset[tuple[str, str]]:
    """Condition atoms: ('a1', 'zero'|'nonzero') or ('type', 'I'|'II').

    Chained equalities like 'a_1=a_2=0' yield one atom per symbol; compound
    coefficient expressions such as 'a_1b_2-a_2b_1' stay single atoms.
    """
    text = text.strip()
    if not text:
        return frozenset()
    if text.startswith("Type"):
        return frozenset({("type", text.split()[1])})
    atoms = set()
    for token in re.split(r"[,\s]+", text):
        if not token:
            continue
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


@dataclass(frozen=True)
class GoldenRow:
    """One certificate-table row, with corrections applied."""

    family_no: int
    point: str                       # e.g. "Oz", "OzOt"
    count: int
    r: int
    type_raw: str                    # as printed
    type_str: str                    # corrected when a documented typo applies
    residues: tuple[int, int, int]
    subscripts: tuple[Optional[int], ...]
    normalized: tuple[int, int, int]
    method: str
    b3_sign: str
    linsys_raw: str
    linsys: Optional[tuple[int, int]]
    surface_raw: str
    surface: tuple[tuple[Exp5, ...], ...]
    vanishing_raw: str
    vanishing: tuple[Exp5, ...]
    condition_raw: str
    condition: frozenset[tuple[str, str]]
    witness_raw: str
    corrected: bool = False
    defect: Optional[Note] = None    # the documented certificate defect

    @property
    def kind(self) -> str:
        return "exclude" if self.method in EXCLUDE_METHODS else "untwist"

    def location(self) -> tuple:
        idxs = [COORD_INDEX[c] for c in re.findall(r"O([xyztw])", self.point)]
        if len(idxs) == 1:
            return ("vertex", idxs[0])
        return ("edge", min(idxs), max(idxs))

    def row_local_params(self) -> Optional[tuple[int, int, int]]:
        """Local parameters read off the subscripts, when all are printed."""
        if all(s is not None for s in self.subscripts):
            return tuple(self.subscripts)
        return None


@dataclass(frozen=True)
class FamilyRecord:
    family: Family
    A3: Fraction
    superrigid: bool
    printed_weights: tuple[int, ...]

    @property
    def list_typo(self) -> bool:
        return self.printed_weights != self.family.w


@dataclass(frozen=True)
class Note:
    no: int
    point: str
    kind: str
    field: str
    printed: str
    corrected: str
    note: str


@dataclass(frozen=True)
class GoldenData:
    families: tuple[FamilyRecord, ...]
    rows: tuple[GoldenRow, ...]
    notes: tuple[Note, ...]

    def family(self, no: int) -> FamilyRecord:
        return self.families[no - 1]

    def rows_for(self, no: int, point: Optional[str] = None
                 ) -> list[GoldenRow]:
        return [r for r in self.rows
                if r.family_no == no and (point is None or r.point == point)]

    def points_of(self, no: int) -> list[str]:
        seen: list[str] = []
        for r in self.rows:
            if r.family_no == no and r.point not in seen:
                seen.append(r.point)
        return seen

    def atoms_for(self, no: int, point: Optional[str] = None
                  ) -> set[str]:
        names: set[str] = set()
        for r in self.rows_for(no, point):
            names.update(name for name, _v in r.condition)
        return names


def _read_tsv(name: str, path: Optional[Path]):
    if path is not None:
        text = Path(path, name).read_text(encoding="utf-8")
    else:
        text = (resources.files("wfano") / "data" / name).read_text("utf-8")
    return list(csv.DictReader(text.splitlines(), delimiter="\t"))


def load(path: Optional[Path] = None) -> GoldenData:
    """Load the golden dataset, applying documented corrections.

    `path` overrides the packaged data directory; it must contain
    families.tsv, golden_tables.tsv and golden_notes.tsv.
    """
    notes = tuple(Note(int(r["no"]), r["point"], r["kind"], r["field"],
                       r["printed"], r["corrected"], r["note"])
                  for r in _read_tsv("golden_notes.tsv", path))
    type_fixes = {(n.no, n.point): n for n in notes if n.kind == "type_typo"}
    surface_fixes = {(n.no, n.point, n.printed): n for n in notes
                     if n.kind == "surface_typo"}
    defects = {(n.no, n.point): n for n in notes
               if n.kind == "certificate_defect"}

    fams = []
    for rec in _read_tsv("families.tsv", path):
        w = tuple(int(x) for x in rec["weights"].split(","))
        fam = Family.of(*w[1:], entry_no=int(rec["no"]))
        fams.append(FamilyRecord(
            family=fam, A3=Fraction(rec["A3"]),
            superrigid=rec["superrigid"] == "1",
            printed_weights=tuple(int(x) for x in
                                  rec["printed_weights"].split(","))))
    fams.sort(key=lambda fr: fr.family.entry_no)

    rows = []
    for rec in _read_tsv("golden_tables.tsv", path):
        no, point = int(rec["no"]), rec["point"]
        if rec["method"] not in METHOD_SYMBOLS:
            raise ValueError(f"unknown method {rec['method']!r} "
                             f"(family {no}, {point})")
        type_raw = rec["type_raw"]
        fix = type_fixes.get((no, point))
        type_str = fix.corrected if fix else type_raw
        r, residues, subs = parse_type(type_str)
        normalized = try_normalize_type(r, residues)
        if normalized is None:
            raise ValueError(f"non-terminal golden type {type_str!r} "
                             f"(family {no}, {point})")
        linsys = parse_linear_system(rec["linsys"]) if rec["linsys"] else None
        surface_raw = rec["surface"]
        sfix = surface_fixes.get((no, point, surface_raw))
        surface_str = sfix.corrected if sfix else surface_raw
        surface = tuple(parse_monomials(g)
                        for g in surface_str.split(",") if g.strip())
        vanishing = tuple(
            mono for part in rec["vanishing"].split(" or ")
            for v in part.split(",") for mono in parse_monomials(v))
        rows.append(GoldenRow(
            family_no=no, point=point, count=int(rec["count"]),
            r=r, type_raw=type_raw, type_str=type_str, residues=residues,
            subscripts=subs, normalized=normalized, method=rec["method"],
            b3_sign=rec["b3"], linsys_raw=rec["linsys"], linsys=linsys,
            surface_raw=surface_raw, surface=surface,
            vanishing_raw=rec["vanishing"], vanishing=vanishing,
            condition_raw=rec["condition"],
            condition=parse_condition(rec["condition"]),
            witness_raw=rec["witness"],
            corrected=fix is not None or sfix is not None,
            # the defect note is about the printed (n) certificate; a row
            # that reads another method is not the documented one
            defect=(defects.get((no, point)) if rec["method"] == "N"
                    else None)))
    return GoldenData(tuple(fams), tuple(rows), notes)


_cached: Optional[GoldenData] = None


def data() -> GoldenData:
    """The packaged dataset, loaded once."""
    global _cached
    if _cached is None:
        _cached = load()
    return _cached


# ------------------------------------------------------- variant matching

class UnknownVariantFlag(ValueError):
    pass


class NoMatchingRow(LookupError):
    pass


def parse_variant(text: str) -> dict[str, str]:
    """CLI variant syntax: 'a1=0,c=nonzero,type=II' (or the name 'special')."""
    out: dict[str, str] = {}
    if not text:
        return out
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok == "special":
            out["special"] = "yes"
            continue
        if "=" not in tok:
            raise UnknownVariantFlag(f"bad variant flag {tok!r}")
        name, value = tok.split("=", 1)
        name = canonical_atom(name)
        value = value.strip()
        if name == "type":
            if value not in ("I", "II"):
                raise UnknownVariantFlag(f"type must be I or II, got {value!r}")
        elif value in ("0", "zero"):
            value = "zero"
        elif value in ("nz", "nonzero"):
            value = "nonzero"
        else:
            raise UnknownVariantFlag(
                f"variant value must be 0 or nonzero, got {tok!r}")
        out[name] = value
    return out


def default_assignment(dataset: GoldenData, no: int,
                       variant: dict[str, str]) -> dict[str, str]:
    """Complete a variant with the generic defaults (everything nonzero,
    Type I), validating flags against the family's closed atom world."""
    atoms = dataset.atoms_for(no)
    assignment = {}
    for name in atoms:
        assignment[name] = "I" if name == "type" else "nonzero"
    for name, value in variant.items():
        if name == "special":
            assignment[name] = value
            continue
        if name not in atoms:
            raise UnknownVariantFlag(
                f"family {no} has no condition flag {name!r}; "
                f"known: {sorted(atoms) or 'none'}")
        assignment[name] = value
    return assignment


def match_rows(dataset: GoldenData, no: int, point: str,
               variant: dict[str, str]) -> list[GoldenRow]:
    """Golden rows at the point whose conditions hold under the variant."""
    assignment = default_assignment(dataset, no, variant)
    return [row for row in dataset.rows_for(no, point)
            if all(assignment.get(name) == want
                   for name, want in row.condition)]
