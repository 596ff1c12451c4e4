"""Record the output references that the benchmark's gate checks against.

Usage: python3 perfbench/record_refs.py

Run from the repository root.  Writes perfbench/refs/{audit,enumerate,
series}.json from the program as it stands, after confirming that
  - every report under every assignment of the family's condition atoms
    exits 0 with no undocumented discrepancy;
  - the enumeration equals families.tsv;
  - each series order is the same for member seeds 0..CHECK_SEEDS-1.
Re-record only when a change to the program's output is intended.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import sys

from run import atom_values

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")
CHECK_SEEDS = 4  # member seeds tried per series point


def _cli(argv: list[str]) -> tuple[int, str]:
    import wfano.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = wfano.cli.main(argv)
    return code, out.getvalue()


def audit_ref() -> dict:
    from wfano import golden
    dataset = golden.data()
    code, out = _cli(["check-tables", "--json"])
    result = json.loads(out)
    if code != 0 or result["discrepancies"]:
        raise SystemExit("check-tables is not clean")
    atoms = {}
    for rec in dataset.families:
        no = rec.family.entry_no
        names = sorted(dataset.atoms_for(no))
        atoms[str(no)] = names
        for combo in itertools.product(*map(atom_values, names)):
            argv = ["report", str(no), "--json"]
            if names:
                argv += ["--variant", ",".join(
                    f"{a}={v}" for a, v in zip(names, combo))]
            code, out = _cli(argv)
            if code != 0 or json.loads(out)["discrepancies"]:
                raise SystemExit(f"{' '.join(argv)} is not clean")
    return {"summary": result["summary"],
            "families": len(dataset.families), "rows": len(dataset.rows),
            "documented": len(result["documented"]), "atoms": atoms}


def enumerate_ref() -> list[dict]:
    path = os.path.join("src", "wfano", "data", "families.tsv")
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    ref = [{"no": int(r["no"]), "degree": int(r["d"]),
            "weights": [int(x) for x in r["weights"].split(",")]}
           for r in rows]
    code, out = _cli(["enumerate", "--json"])
    if code != 0 or json.loads(out) != ref:
        raise SystemExit("enumerate --json differs from families.tsv")
    return ref


def series_ref() -> list[dict]:
    from wfano import golden
    from wfano.census import census
    from wfano.wps import COORDS
    points = []
    for rec in golden.data().families:
        f = rec.family
        for e in census(f).entries:
            if e.location[0] != "vertex" or e.eliminated is None:
                continue
            orders = set()
            for seed in range(CHECK_SEEDS):
                code, out = _cli(["order", str(f.entry_no), "--point",
                                  e.point_id(), "--poly",
                                  COORDS[e.eliminated], "--seed", str(seed)])
                if code != 0:
                    raise SystemExit(f"order failed at No. {f.entry_no} "
                                     f"{e.point_id()}")
                orders.add(out.strip())
            if len(orders) != 1:
                raise SystemExit(f"No. {f.entry_no} {e.point_id()}: order "
                                 f"depends on the member seed: {orders}")
            points.append({"family": f.entry_no, "point": e.point_id(),
                           "poly": COORDS[e.eliminated], "r": e.r,
                           "order": orders.pop()})
    return points


def main() -> None:
    sys.path.insert(0, os.path.abspath("src"))
    os.makedirs(REFS, exist_ok=True)
    for name, ref in (("audit", audit_ref()), ("enumerate", enumerate_ref()),
                      ("series", series_ref())):
        with open(os.path.join(REFS, f"{name}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        print(f"wrote refs/{name}.json")


if __name__ == "__main__":
    main()
