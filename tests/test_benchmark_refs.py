"""The outputs the benchmark checks each op against (`perfbench/refs`).

`perfbench/run.py` fails an op whose output differs from its recorded
reference; these tests hold the program to the same references, so that
a change which would fail the benchmark's gate fails here first.
"""

import importlib
import itertools
import json
import sys
from pathlib import Path

from wfano import golden
from wfano.cli import main

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs"


def ref(name):
    return json.loads((REFS / f"{name}.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_series_orders_at_seed_0(capsys):
    wrong = []
    for pt in ref("series"):
        argv = ("order", str(pt["family"]), "--point", pt["point"],
                "--poly", pt["poly"], "--seed", "0")
        code, out = run(capsys, *argv)
        if (code, out.strip()) != (0, pt["order"]):
            wrong.append((argv, code, out.strip(), pt["order"]))
    assert wrong == []


def test_check_tables_summary_and_documented_count(capsys):
    want = ref("audit")
    code, out = run(capsys, "check-tables", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == want["summary"]
    assert payload["discrepancies"] == []
    assert len(payload["documented"]) == want["documented"]


def test_condition_atoms_of_each_family():
    data = golden.data()
    atoms = {str(rec.family.entry_no):
             sorted(data.atoms_for(rec.family.entry_no))
             for rec in data.families}
    assert atoms == ref("audit")["atoms"]


def test_every_audit_report_is_clean(capsys):
    # the audit workload draws each family's report under a variant that
    # names every atom of the family's `atoms` entry, spelt with the values
    # below, and fails an op whose report exits nonzero or lists a
    # discrepancy
    spelling = {"type": ("I", "II")}
    dirty = []
    for no, atoms in ref("audit")["atoms"].items():
        values = [spelling.get(a, ("0", "nonzero")) for a in atoms]
        for combo in itertools.product(*values):
            argv = ["report", no, "--json"]
            if atoms:
                argv += ["--variant",
                         ",".join(f"{a}={v}" for a, v in zip(atoms, combo))]
            code, out = run(capsys, *argv)
            payload = json.loads(out) if code == 0 else {}
            if (code, payload.get("family"), payload.get("discrepancies")) \
                    != (0, int(no), []):
                dirty.append((argv, code))
    assert dirty == []


def test_enumerate(capsys):
    code, out = run(capsys, "enumerate", "--json")
    assert code == 0
    assert json.loads(out) == ref("enumerate")


def test_the_reference_builders_rebuild_the_committed_refs(monkeypatch):
    # perfbench/record_refs.py reads attributes of the program's results
    # (`census(f).entries`, `rec.family.entry_no`) that no other test
    # reads through it.  Its three builders run here, never its `main`,
    # which writes the refs; the scripts import each other by bare name, and
    # `enumerate_ref` reads a path relative to the repository root.
    monkeypatch.syspath_prepend(str(REFS.parent))
    monkeypatch.chdir(REFS.parents[1])
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    scripts = ("record_refs", "run", "tracing")  # it imports the other two
    assert not set(scripts) & set(sys.modules)
    try:
        record_refs = importlib.import_module("record_refs")
        assert record_refs.audit_ref() == ref("audit")
        assert record_refs.enumerate_ref() == ref("enumerate")
        assert record_refs.series_ref() == ref("series")
    finally:
        for name in scripts:
            sys.modules.pop(name, None)
