"""Self-test of the benchmark's output gate and metric definitions.

Usage, from the repository root: python3 perfbench/selftest.py

Checks, each printed as ok or FAIL (exit 1 on any FAIL):
  - every metric name matches [A-Za-z0-9_.-]+ and the names and units
    equal those in BENCHMARK.json;
  - short runs of all three workloads pass the gate at this commit;
  - a --golden copy with one altered row makes audit ops fail;
  - a wrong series reference makes series ops fail;
  - two traced runs of each workload give the same exact counts.
It writes only the golden copy under .bench_selftest/ and removes it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")
EXACT_UNITS = ("count", "bits", "bytes")

failures = 0


def report(ok: bool, what: str) -> None:
    global failures
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)


def check_names(root: str) -> None:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, ours in (("end_to_end", run.END_TO_END),
                      ("per_layer", run.PER_LAYER)):
        bad = [n for n, _u in ours if not NAME.fullmatch(n)]
        report(not bad, f"{key}: {len(ours)} metric names match "
                        f"{NAME.pattern} {bad or ''}")
        theirs = [(m["name"], m["unit"]) for m in spec[key]]
        report(theirs == list(ours),
               f"{key}: names and units equal BENCHMARK.json")
    workloads = [w["name"] for w in spec["workloads"]]
    report(workloads == list(run.WORKLOADS),
           "workloads equal BENCHMARK.json")


def altered_golden(root: str, dest: str) -> str:
    """A copy of the packaged data with one B^3 sign flipped."""
    data = os.path.join(root, run.SRC, "wfano", "data")
    shutil.copytree(data, dest)
    path = os.path.join(dest, "golden_tables.tsv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    header = lines[0].split("\t")
    col = header.index("b3")
    for i, line in enumerate(lines[1:], 1):
        cells = line.split("\t")
        if len(cells) > col and cells[col] == "+":
            cells[col] = "-"
            lines[i] = "\t".join(cells)
            break
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    return dest


def main() -> int:
    root = os.getcwd()
    check_names(root)

    for workload in run.WORKLOADS:
        _stamp, res = run.run(root, workload, 1, 3, False)
        report(res["failed"] == 0 and res["attempted"] > 0,
               f"{workload}: {res['attempted']} ops, {res['failed']} failed "
               f"at this commit")

    scratch = os.path.join(root, ".bench_selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        golden = altered_golden(root, os.path.join(scratch, "golden"))
        _stamp, res = run.run(root, "audit", 1, 2, False, golden=golden)
        report(res["failed"] > 0,
               f"audit with one altered golden row: {res['failed']} of "
               f"{res['attempted']} ops failed")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wrong = [dict(p, order="0") for p in run.load_refs("series")]
    _stamp, res = run.run(root, "series", 1, 2, False, series_refs=wrong)
    report(res["failed"] > 0,
           f"series with wrong references: {res['failed']} of "
           f"{res['attempted']} ops failed")

    for workload in run.WORKLOADS:
        counts = []
        for _ in range(2):
            _stamp, res = run.run(root, workload, 1, 0, True)
            counts.append({name: m["value"]
                           for name, m in res["metrics"].items()
                           if m["unit"] in EXACT_UNITS})
        report(counts[0] == counts[1] and res["failed"] == 0,
               f"{workload}: {len(counts[0])} exact counts repeat across "
               f"two traced runs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
