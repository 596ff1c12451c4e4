"""Family reports and the full table-consistency suite."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .census import QuotientSingularity, census, canonical_type
from .golden import GoldenData, METHOD_SYMBOLS, match_rows
from .rigidity import (Certificate, certify_row, curve_status,
                       smooth_point_status)
from .wps import COORDS, anticanonical_degree


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


def build_report(no: int, variant: Optional[dict[str, str]],
                 dataset: GoldenData) -> dict:
    """Assemble the per-family report as a JSON-stable ordered dict."""
    rec = dataset.family(no)
    f = rec.family
    cens = census(f)
    sps = smooth_point_status(f)
    cs = curve_status(f)
    report: dict = {
        "family": no,
        "degree": f.d,
        "weights": list(f.w),
        "anticanonical_degree": str(anticanonical_degree(f)),
        "superrigid": rec.superrigid,
        "smooth_points": {"kind": sps.kind, "case": sps.case,
                          "detail": sps.detail},
        "curves": {"kind": cs.kind, "max_degree": cs.max_degree},
        "census": [census_record(e) for e in cens.entries],
        "points": [],
        "discrepancies": [],
    }
    if not cens.entries:
        report["note"] = "no singular points"
    variant = variant or {}
    for point in dataset.points_of(no):
        rows = match_rows(dataset, no, point, variant)
        for row in rows:
            cert = certify_row(f, row)
            report["points"].append(_point_entry(cert))
            if cert.undocumented_failures:
                report["discrepancies"].append(
                    _discrepancy(cert, "certificate check failed"))
    return report


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
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in cert.checks
        ],
    }
    for key in ("B3", "c", "m"):
        if key in cert.inputs:
            entry[key.lower()] = (str(cert.inputs[key])
                                  if isinstance(cert.inputs[key], Fraction)
                                  else cert.inputs[key])
    if "k" in cert.inputs:
        entry["k"] = list(cert.inputs["k"])
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


def _discrepancy(cert: Certificate, reason: str) -> dict:
    return {
        "family": cert.row.family_no,
        "point": cert.row.point,
        "condition": cert.row.condition_raw,
        "reason": reason,
        "failed_checks": [c.name for c in cert.undocumented_failures],
    }


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
        lines.append("census: empty (" + report.get("note", "") + ")")
    else:
        lines.append("census:")
        for e in report["census"]:
            mult = f"{e['count']}x" if e["count"] > 1 else ""
            t = ",".join(str(x) for x in e["type"])
            elim = f", eliminates {e['eliminated']}" if e["eliminated"] else ""
            lines.append(f"  {e['point']} = {mult}1/{e['r']}({t})"
                         f"  [params {''.join(e['local_params'])}{elim}]")
    failed_at = {(d["point"], d["condition"])
                 for d in report["discrepancies"]}
    for p in report["points"]:
        head = (f"  {p['point']} {p['symbol']} {p['kind']}"
                + (f"  [{p['condition']}]" if p["condition"] else ""))
        bits = []
        if "b3" in p:
            bits.append(f"B^3 = {p['b3']} ({p.get('b3_sign', '')})")
        if "linear_system" in p:
            bits.append(f"T in |{p['linear_system']}|"
                        f" (c = {p.get('c')}, m = {p.get('m')})")
        if "witness" in p:
            bits.append(f"witness {p['witness']}")
        status = "ok" if p["valid"] else (
            "DOCUMENTED DEFECT" if "documented_defect" in p
            and (p["point"], p["condition"]) not in failed_at else "FAILED")
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
                         f"[{d['condition']}]: {d['reason']} "
                         f"({', '.join(d['failed_checks'])})")
    else:
        lines.append("discrepancies: none")
    return "\n".join(lines)


# --------------------------------------------------------------- the suite

@dataclass
class CheckResult:
    families: int
    rows: int
    discrepancies: list[dict]
    documented: list[dict]

    @property
    def clean(self) -> bool:
        return not self.discrepancies

    def summary(self) -> str:
        ncorr = sum(1 for d in self.documented if d["kind"] != "defect")
        ndef = sum(1 for d in self.documented if d["kind"] == "defect")
        return (f"{self.families} families, {self.rows} golden rows, "
                f"{len(self.discrepancies)} discrepancies "
                f"({ncorr} documented source corrections, "
                f"{ndef} documented certificate defect"
                f"{'s' if ndef != 1 else ''})")


def check_tables(dataset: GoldenData,
                 family_filter: Optional[int] = None) -> CheckResult:
    """Re-derive every golden row and audit census/variant coverage."""
    discrepancies: list[dict] = []
    documented: list[dict] = []
    nrows = 0
    nfam = 0

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
        f = rec.family

        if anticanonical_degree(f) != rec.A3:
            discrepancies.append({
                "family": no, "point": "-", "condition": "",
                "reason": f"A^3 mismatch: computed "
                          f"{anticanonical_degree(f)}, stored {rec.A3}"})

        cens = census(f)
        cens_keys = {e.point_id(): (e.count, e.r, canonical_type(e.type_))
                     for e in cens.entries}
        row_keys: dict[str, set] = {}
        for row in dataset.rows_for(no):
            row_keys.setdefault(row.point, set()).add(
                (row.count, row.r, canonical_type(row.normalized)))
        if set(cens_keys) != set(row_keys):
            discrepancies.append({
                "family": no, "point": "-", "condition": "",
                "reason": f"census locations {sorted(cens_keys)} vs "
                          f"table locations {sorted(row_keys)}"})
        else:
            for point, key in cens_keys.items():
                if any(k != key for k in row_keys[point]):
                    discrepancies.append({
                        "family": no, "point": point, "condition": "",
                        "reason": f"census {key} vs table "
                                  f"{sorted(row_keys[point])}"})

        for row in dataset.rows_for(no):
            nrows += 1
            cert = certify_row(f, row)
            failures = cert.undocumented_failures
            if failures:
                discrepancies.append(_discrepancy(
                    cert, "; ".join(f"{c.name}: {c.detail}"
                                    for c in failures)))

        # variant coverage: every combination of a point's condition atoms
        # must be answered by some row
        for point in dataset.points_of(no):
            atoms = sorted(dataset.atoms_for(no, point))
            if not atoms:
                continue
            values = [("I", "II") if a == "type" else ("nonzero", "zero")
                      for a in atoms]
            for combo in itertools.product(*values):
                assignment = dict(zip(atoms, combo))
                hit = [r for r in dataset.rows_for(no, point)
                       if all(assignment.get(nm, v) == v
                              for nm, v in r.condition)]
                if not hit:
                    discrepancies.append({
                        "family": no, "point": point,
                        "condition": str(assignment),
                        "reason": "variant combination not covered "
                                  "by any golden row"})
    return CheckResult(nfam, nrows, discrepancies, documented)


def to_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)
