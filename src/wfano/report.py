"""Family reports and the full table-consistency suite."""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from .census import QuotientSingularity, census
from .exactmath import COORDS
from .golden import (GoldenData, GoldenRow, METHOD_SYMBOLS,
                     UnknownVariantFlag, atom_values, holds, match_rows)
from .rigidity import (Certificate, Check, certify_row, curve_status,
                       smooth_point_status, super_rigid)
from .wps import anticanonical_degree


def census_record(e: QuotientSingularity) -> dict:
    """The JSON record of one census point, as `census`, `search` and the
    family report print it."""
    return {
        "point": e.point_id(),
        "count": e.count,
        "r": e.r,
        "type": list(e.type_),
        "local_params": [COORDS[i] for i in e.local_params],
        "eliminated": (COORDS[e.eliminated]
                       if e.eliminated is not None else None),
    }


def build_report(no: int, variant: dict[str, str],
                 dataset: GoldenData) -> dict:
    """Assemble the per-family report as a JSON-stable ordered dict.

    A variant flag that no condition of the family names raises
    `UnknownVariantFlag`, also at a family with no singular point.
    """
    atoms = dataset.atoms_for(no)
    for name in variant:
        if name not in atoms:
            raise UnknownVariantFlag(
                f"family {no} has no condition flag {name!r}; "
                f"known: {sorted(atoms) or 'none'}")
    answers = [(point, variant, match_rows(dataset, no, point, variant))
               for point in dataset.points_of(no)]
    entries, certs, superrigid, discrepancies = _certify_family(
        dataset, no, [row for *_, rows in answers for row in rows], answers)
    f = dataset.family(no)
    report: dict = {
        "family": no,
        "degree": f.d,
        "weights": list(f.w),
        "anticanonical_degree": str(anticanonical_degree(f)),
        "superrigid": superrigid,
        "smooth_points": smooth_point_status(f),
        "curves": curve_status(f),
        "census": [census_record(e) for e in entries],
        "points": [_point_entry(cert) for cert in certs],
        "discrepancies": discrepancies,
    }
    if not entries:
        report["note"] = "no singular points"
    return report


def _certify_family(dataset: GoldenData, no: int, rows: list[GoldenRow],
                    answers: list[tuple[str, dict[str, str], list[GoldenRow]]]
                    ) -> tuple:
    """(census entries, certificates, super-rigid flag, discrepancies) of
    family `no`: the certificate of each row, the flag from all the
    family's rows, and as discrepancies the stored A3 and superrigid cells
    that differ from the computed values, then the census points with no
    table row, then the failed rows, then each (point, variant, matching
    rows) of `answers` that no row or more than one row answers, named in
    --variant syntax by the value that holds of each of the point's
    atoms."""
    rec = dataset.families[no - 1]
    f = rec.family
    entries = census(f).entries
    superrigid = super_rigid(dataset.rows_for(no), entries)
    discrepancies = [
        _discrepancy(no, "-", f"{name} mismatch: computed {computed}, "
                              f"stored {stored}")
        for name, computed, stored in (
            ("A^3", anticanonical_degree(f), rec.A3),
            ("super-rigidity", superrigid, rec.superrigid))
        if computed != stored]
    # a row at a point the census lacks, or whose count, r or type is not
    # the census's, fails its own "quotient type" check instead
    points = dataset.points_of(no)
    unmatched = [e.point_id() for e in entries if e.point_id() not in points]
    if unmatched:
        discrepancies.append(_discrepancy(
            no, "-", f"census points {unmatched} have no table row"))
    certs = [certify_row(f, row, entries) for row in rows]
    for row, cert in zip(rows, certs):
        failures = cert.undocumented_failures
        if failures:
            discrepancies.append(_discrepancy(
                no, row.point, condition=row.condition_raw, failed=failures))
    for point, variant, matched in answers:
        if len(matched) == 1:
            continue
        reason = (f"variant combination answered by {len(matched)} golden "
                  f"rows (methods {', '.join(r.method for r in matched)})"
                  if matched else
                  "variant combination not covered by any golden row")
        discrepancies.append(_discrepancy(
            no, point, reason,
            ",".join(f"{a}={v}" for a in sorted(dataset.atoms_for(no, point))
                     for v in atom_values(a) if holds({(a, v)}, variant))))
    return entries, certs, superrigid, discrepancies


def _point_entry(cert: Certificate) -> dict:
    row = cert.row
    entry = {
        "point": row.point,
        "method": row.method,
        "symbol": METHOD_SYMBOLS[row.method],
        "kind": row.kind,
        "type": row.type_str,
        "condition": row.condition_raw,
        "valid": cert.valid,
        "checks": [c._asdict() for c in cert.checks],
    }
    if cert.m is not None:  # an exclusion certificate that was computed
        entry.update(b3=str(cert.B3), c=row.linsys[0], m=cert.m,
                     k=list(cert.k))
    if row.b3_sign:
        entry["b3_sign"] = row.b3_sign
    if row.linsys_raw:
        entry["linear_system"] = row.linsys_raw
    if row.witness_raw:
        entry["witness"] = row.witness_raw
    if row.defect:
        entry["documented_defect"] = row.defect.kind
    if row.corrected:
        entry["corrected_type"] = True
    return entry


def _discrepancy(no: int, point: str, reason: str = "", condition: str = "",
                 failed: Sequence[Check] = ()) -> dict:
    """The record of one discrepancy.  A row's record is given its failed
    checks in place of a reason; they make its reason, "<check>: <detail>"
    for each, and its `failed_checks`."""
    record = {"family": no, "point": point, "condition": condition,
              "reason": reason}
    if failed:
        record["reason"] = "; ".join(f"{c.name}: {c.detail}" for c in failed)
        record["failed_checks"] = [c.name for c in failed]
    return record


def render_text(report: dict) -> str:
    lines = []
    w = ",".join(str(x) for x in report["weights"])
    lines.append(f"No. {report['family']}: X_{report['degree']} in P({w})"
                 f"   A^3 = {report['anticanonical_degree']}"
                 + ("   [super-rigid]" if report["superrigid"] else ""))
    lines.append(f"smooth points: {report['smooth_points']['kind']}"
                 f" ({report['smooth_points']['detail']})")
    cur = report["curves"]
    lines.append("curves: " + cur["kind"]
                 + (f" (degree <= {cur['max_degree']})"
                    if cur["max_degree"] else ""))
    if not report["census"]:
        lines.append("census: empty (" + report["note"] + ")")
    else:
        lines.append("census:")
        for e in report["census"]:
            mult = f"{e['count']}x" if e["count"] > 1 else ""
            t = ",".join(str(x) for x in e["type"])
            elim = f", eliminates {e['eliminated']}" if e["eliminated"] else ""
            lines.append(f"  {e['point']} = {mult}1/{e['r']}({t})"
                         f"  [params {''.join(e['local_params'])}{elim}]")
    # the failed checks that no documented defect excuses, by row
    failed_at = {(d["point"], d["condition"], name)
                 for d in report["discrepancies"]
                 for name in d.get("failed_checks", ())}
    for p in report["points"]:
        head = (f"  {p['point']} {p['symbol']} {p['kind']}"
                + (f"  [{p['condition']}]" if p["condition"] else ""))
        bits = []
        if "b3" in p:
            bits.append(f"B^3 = {p['b3']} ({p.get('b3_sign', '')})")
        if "linear_system" in p:
            bits.append(f"T in |{p['linear_system']}|"
                        + (f" (c = {p['c']}, m = {p['m']})" if "m" in p
                           else ""))
        if "witness" in p:
            bits.append(f"witness {p['witness']}")
        status = "ok" if p["valid"] else (
            "FAILED" if any((p["point"], p["condition"], c["name"])
                            in failed_at for c in p["checks"]
                            if not c["passed"])
            else "DOCUMENTED DEFECT")
        lines.append(head + ("  |  " + "; ".join(bits) if bits else "")
                     + f"  -> {status}")
        if not p["valid"]:
            for c in p["checks"]:
                if not c["passed"]:
                    lines.append(f"      failed: {c['name']}: {c['detail']}")
    if report["discrepancies"]:
        lines.append("discrepancies:")
        for d in report["discrepancies"]:
            lines.append(f"  {d['family']} {d['point']} "
                         f"[{d['condition']}]: {d['reason']}")
    else:
        lines.append("discrepancies: none")
    return "\n".join(lines)


# --------------------------------------------------------------- the suite

def check_summary(families: int, rows: int, discrepancies: int,
                  corrections: int, defects: int) -> str:
    """The first line of `check-tables`, from its counts."""
    return (f"{_count(families, 'family', 'families')}, "
            f"{_count(rows, 'golden row')}, "
            f"{_count(discrepancies, 'discrepancy', 'discrepancies')} "
            f"({_count(corrections, 'documented source correction')}, "
            f"{_count(defects, 'documented certificate defect')})")


def _count(n: int, one: str, many: str = "") -> str:
    """n with the noun, singular when n is 1; `many` defaults to one + "s"."""
    return f"{n} {one if n == 1 else many or one + 's'}"


def check_tables(dataset: GoldenData,
                 family_filter: int | None = None) -> dict:
    """Re-derive every golden row and audit census/variant coverage; the
    payload `check-tables --json` prints."""
    discrepancies: list[dict] = []
    documented: list[dict] = []
    nrows = nfam = 0

    for note in dataset.notes:
        if family_filter is not None and note.no != family_filter:
            continue
        documented.append({
            "kind": "defect" if note.kind == "certificate_defect"
                    else "correction",
            "family": note.no, "point": note.point,
            "field": note.field, "printed": note.printed,
            "corrected": note.corrected, "note": note.note})

    for rec in dataset.families:
        no = rec.family.entry_no
        if family_filter is not None and no != family_filter:
            continue
        nfam += 1
        # every combination of a point's condition atoms, the empty one at
        # a point with none, must be answered by exactly one row
        answers = []
        for point in dataset.points_of(no):
            atoms = sorted(dataset.atoms_for(no, point))
            for combo in itertools.product(*map(atom_values, atoms)):
                variant = dict(zip(atoms, combo))
                answers.append((point, variant,
                                match_rows(dataset, no, point, variant)))
        rows = dataset.rows_for(no)
        nrows += len(rows)
        discrepancies += _certify_family(dataset, no, rows, answers)[3]
    ncorr = sum(1 for d in documented if d["kind"] != "defect")
    return {
        "summary": check_summary(nfam, nrows, len(discrepancies), ncorr,
                                 len(documented) - ncorr),
        "discrepancies": discrepancies,
        "documented": documented,
    }


def render_check_text(result: dict) -> str:
    lines = [result["summary"]]
    for d in result["documented"]:
        lines.append(f"  documented {d['kind']}: No. {d['family']} "
                     f"{d['point']}: {d['note']}")
    for d in result["discrepancies"]:
        lines.append(f"  DISCREPANCY No. {d['family']} {d['point']} "
                     f"[{d['condition']}]: {d['reason']}")
    return "\n".join(lines)


def to_json(obj) -> str:
    """`json.dumps(obj, indent=2)` for the payloads the CLI prints.

    The stdlib takes its pure-Python encoder whenever `indent` is set; this
    writer gives the same text for dicts with `str` keys, lists, tuples,
    strings (ASCII-escaped), ints, bools and None.  Any other type, a float
    among them, raises `TypeError`.  The `json` package is imported here,
    not at module level, so commands that print text never load it.
    """
    from json.encoder import encode_basestring_ascii

    parts: list[str] = []
    _write_json(obj, "\n", parts.append, encode_basestring_ascii)
    return "".join(parts)


def _write_json(obj, newline: str, out, quote) -> None:
    """Append the JSON text of obj, whose own line starts at `newline`;
    `quote` writes a string literal."""
    if isinstance(obj, str):
        out(quote(obj))
    elif obj is None:
        out("null")
    elif obj is True:
        out("true")
    elif obj is False:
        out("false")
    elif isinstance(obj, int):
        out(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not "
                                f"{type(key).__name__}")
            out(sep)
            out(quote(key))
            out(": ")
            _write_json(value, inner, out, quote)
            sep = "," + inner
        out(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out(sep)
            _write_json(value, inner, out, quote)
            sep = "," + inner
        out(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not "
                        f"JSON serializable")
