"""End-to-end CLI behaviour: formats, exit codes, fault injection."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import wfano
from wfano import blowup, cli, golden
from wfano.census import vertex_singularity
from wfano.cli import MAX_ENUMERATE_WEIGHT, main
from wfano.report import check_summary


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_in_process(argv):
    """(exit code, stdout, stderr) of `main(argv)`, outside pytest's
    capture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_in_fresh_process(argv, code="import sys; from wfano.cli import main; "
                                     "sys.exit(main(sys.argv[1:]))",
                         flags=()):
    """(exit code, stdout, stderr) of `code` in a new interpreter, started
    with the interpreter options `flags`."""
    env = dict(os.environ, PYTHONPATH=str(Path(wfano.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *flags, "-c", code, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def golden_copy(tmp_path):
    """A writable copy of the packaged dataset, for `--golden`."""
    src = resources.files("wfano") / "data"
    for name in ("families.tsv", "golden_tables.tsv", "golden_notes.tsv"):
        shutil.copy(str(src / name), tmp_path / name)
    return tmp_path


def _with_cell(tmp_path, name, key, column, old, new):
    """A `--golden` copy whose first line of file `name` that starts with
    the cells `key` and has `old` in the column reads `new` there, or lacks
    that cell if `new` is None.  The column is found by its header name."""
    path = golden_copy(tmp_path) / name
    lines = path.read_text().splitlines()
    col = lines[0].split("\t").index(column)
    for i, line in enumerate(lines):
        cells = line.split("\t")
        if cells[:len(key)] == key and cells[col] == old:
            if new is None:
                del cells[col]
            else:
                cells[col] = new
            lines[i] = "\t".join(cells)
            break
    else:
        raise AssertionError(f"no line {key} of {name} with {column} "
                             f"{old!r}")
    path.write_text("\n".join(lines) + "\n")
    return tmp_path


def golden_with_cell(tmp_path, no, point, column, old, new):
    """A `--golden` copy whose first row at the point with `old` in the
    column reads `new` there."""
    return _with_cell(tmp_path, "golden_tables.tsv", [str(no), point],
                      column, old, new)


def golden_with_family_cell(tmp_path, no, column, old, new):
    """A `--golden` copy whose families.tsv line of family `no` reads `new`
    in the column, where it read `old`; None drops the cell."""
    return _with_cell(tmp_path, "families.tsv", [str(no)], column, old, new)


def golden_edited(tmp_path, name, edit):
    """A `--golden` copy whose file `name` holds `edit(text)`."""
    path = golden_copy(tmp_path) / name
    text = path.read_text()
    edited = edit(text)
    assert edited != text, f"the edit left {name} unchanged"
    path.write_text(edited)
    return tmp_path


def golden_without_rows(tmp_path, no, point, method=None):
    """A `--golden` copy without the table rows of No. `no` at the point,
    or without only those of the method if one is given."""
    def dropped(cells):
        return cells[:2] == [str(no), point] and method in (None, cells[4])
    return golden_edited(tmp_path, "golden_tables.tsv", lambda text: "".join(
        line for line in text.splitlines(True)
        if not dropped(line.split("\t"))))


def stray_cell(line_no):
    """An edit that appends one cell to line `line_no` (1-based) of a file."""
    def edit(text):
        lines = text.split("\n")
        lines[line_no - 1] += "\tstray"
        return "\n".join(lines)
    return edit


NOTE_96 = "96\tOz\tcertificate_defect\tinequality\t-\t-\tnot a family\n"
NOTE_95_OX = "95\tOx\tcertificate_defect\tinequality\t-\t-\tnot a point\n"
NOTE_95_OY = "95\tOy\tcertificate_defect\tinequality\t-\t-\tbogus\n"
# Malformed `--golden` directories, each with the start of its message.
BAD_GOLDEN = {
    # a row with a condition, so the error names it by point and condition
    "unknown_method": (
        lambda p: golden_with_cell(p, 95, "Oy", "method", "B", "Q"),
        "golden_tables.tsv: the row No. 95 Oy [a_1!=0]: unknown method 'Q'"),
    "no_A3_column": (
        lambda p: golden_edited(p, "families.tsv",
                                lambda t: t.replace("\tA3\t", "\tA_3\t", 1)),
        "families.tsv: missing column 'A3'"),
    "short_weights": (
        lambda p: golden_edited(p, "families.tsv",
                                lambda t: t.replace("\n2\t5\t1,1,1,1,2\t",
                                                    "\n2\t5\t1,1,1\t", 1)),
        "families.tsv: column 'weights' of family 2"),
    "short_row": (
        lambda p: golden_with_family_cell(p, 2, "A3", "5/2", None),
        "families.tsv: line 3 has fewer cells than the header"),
    # a line with a cell more than its header names, in each file
    "long_family_row": (
        lambda p: golden_edited(p, "families.tsv", stray_cell(3)),
        "families.tsv: line 3 has more cells than the header"),
    "long_table_row": (
        lambda p: golden_edited(p, "golden_tables.tsv", stray_cell(6)),
        "golden_tables.tsv: line 6 has more cells than the header"),
    "long_note": (
        lambda p: golden_edited(p, "golden_notes.tsv", stray_cell(4)),
        "golden_notes.tsv: line 4 has more cells than the header"),
    "family_numbers_gap": (
        lambda p: golden_edited(p, "families.tsv",
                                lambda t: t.replace("\n95\t", "\n97\t", 1)),
        "families.tsv: column 'no' must number the families 1..95"),
    # a copy of the last row (No. 95) renumbered 96
    "orphan_row": (
        lambda p: golden_edited(
            p, "golden_tables.tsv",
            lambda t: t + "96" + t.splitlines()[-1][len("95"):] + "\n"),
        "golden_tables.tsv: the row No. 96 OzOt"),
    "orphan_note": (
        lambda p: golden_edited(p, "golden_notes.tsv", lambda t: t + NOTE_96),
        "golden_notes.tsv: the certificate_defect note at No. 96 Oz"),
    # notes at a point of a listed family that has no row there
    "orphan_point_note": (
        lambda p: golden_edited(p, "golden_notes.tsv",
                                lambda t: t + NOTE_95_OX),
        "golden_notes.tsv: the certificate_defect note at No. 95 Ox ('-' -> "
        "'-') applies to no row or family"),
    "orphan_type_note": (
        lambda p: golden_edited(p, "golden_notes.tsv",
                                lambda t: t.replace("\n35\tOzOw\t",
                                                    "\n35\tOxOw\t")),
        "golden_notes.tsv: the type_typo note at No. 35 OxOw "
        "('1/2(1_x,1_y,1_t)' -> '1/3(1_x,1_y,2_t)') applies to no row"),
    "orphan_surface_note": (
        lambda p: golden_edited(p, "golden_notes.tsv",
                                lambda t: t.replace("\n40\tOz\tsurface_typo",
                                                    "\n40\tOx\tsurface_typo")),
        "golden_notes.tsv: the surface_typo note at No. 40 Ox ('x^3, z' -> "
        "'x^3, y') applies to no row"),
    # cells that were read only when a certificate ran, or not at all
    "unknown_point": (
        lambda p: golden_with_cell(p, 95, "OtOw", "point", "OtOw", "Oq"),
        "golden_tables.tsv: the row No. 95 Oq []: unknown point 'Oq'"),
    "bad_witness": (
        lambda p: golden_with_cell(p, 2, "Ow", "witness", "tw^2", "tw^2+q"),
        "golden_tables.tsv: the row No. 2 Ow []: cannot parse term 'q'"),
    "type_order_zero": (
        lambda p: golden_with_cell(p, 95, "OzOt", "type_raw",
                                   "1/2(1_x,1_y,1_w)", "1/0(1_x,1_y,1_w)"),
        "golden_tables.tsv: the row No. 95 OzOt []: cannot parse "
        "singularity type '1/0(1_x,1_y,1_w)'"),
    "type_condition_without_type": (
        lambda p: golden_with_cell(p, 95, "OzOt", "condition", "", "Type"),
        "golden_tables.tsv: the row No. 95 OzOt [Type]: cannot parse "
        "condition 'Type'"),
    "non_terminal_type": (
        lambda p: golden_with_cell(p, 95, "OzOt", "type_raw",
                                   "1/2(1_x,1_y,1_w)", "1/4(1_x,1_y,1_w)"),
        "golden_tables.tsv: the row No. 95 OzOt []: 1/4(1, 1, 1) is not a "
        "terminal type"),
    "exclusion_without_linsys": (
        lambda p: golden_with_cell(p, 95, "OtOw", "linsys", "5B", ""),
        "golden_tables.tsv: the row No. 95 OtOw []: an exclusion row needs"),
    "exclusion_without_vanishing": (
        lambda p: golden_with_cell(p, 95, "OtOw", "vanishing", "y", ""),
        "golden_tables.tsv: the row No. 95 OtOw []: an exclusion row needs"),
    # cells that `load` reads outside a table row
    "bad_A3": (
        lambda p: golden_edited(p, "families.tsv", lambda t: t.replace(
            "\n3\t6\t1,1,1,1,3\t2\t", "\n3\t6\t1,1,1,1,3\tx\t")),
        "families.tsv: column 'A3' of family 3 reads 'x', expected a "
        "fraction"),
    "A3_over_zero": (
        lambda p: golden_edited(p, "families.tsv", lambda t: t.replace(
            "\n3\t6\t1,1,1,1,3\t2\t", "\n3\t6\t1,1,1,1,3\t1/0\t")),
        "families.tsv: column 'A3' of family 3 reads '1/0'"),
    "unsorted_weights": (
        lambda p: golden_edited(p, "families.tsv", lambda t: t.replace(
            "\n3\t6\t1,1,1,1,3\t", "\n3\t6\t1,1,1,3,1\t")),
        "families.tsv: column 'weights' of family 3 reads '1,1,1,3,1'"),
    "families_bad_no": (
        lambda p: golden_edited(p, "families.tsv", lambda t: t.replace(
            "\n3\t6\t", "\n3x\t6\t")),
        "families.tsv: column 'no' of line 4 reads '3x', expected an "
        "integer"),
    "tables_bad_no": (
        lambda p: golden_with_cell(p, 95, "Oy", "no", "95", "9x"),
        "golden_tables.tsv: column 'no' of line 297 reads '9x'"),
    "notes_bad_no": (
        lambda p: golden_edited(p, "golden_notes.tsv", lambda t: t.replace(
            "\n93\t-\tlist_typo", "\n9x\t-\tlist_typo")),
        "golden_notes.tsv: column 'no' of line 3 reads '9x'"),
    "d_mismatch": (
        lambda p: golden_edited(p, "families.tsv",
                                lambda t: t.replace("\n95\t66\t",
                                                    "\n95\t67\t")),
        "families.tsv: column 'd' of family 95 reads '67'"),
    "superrigid_not_a_flag": (
        lambda p: golden_with_family_cell(p, 2, "superrigid", "0", "no"),
        "families.tsv: column 'superrigid' of family 2 reads 'no', "
        "expected 0 or 1"),
    # a second copy of a note would count its correction twice
    "repeated_note": (
        lambda p: golden_edited(p, "golden_notes.tsv",
                                lambda t: t + t.splitlines()[1] + "\n"),
        "golden_notes.tsv: the list_typo note at No. 45 - ('1,3,4,5,89' -> "
        "'1,3,4,5,8') applies where an earlier note does"),
    # a type note applies only where the row prints its printed type: here
    # the row prints the corrected one
    "type_note_mismatch": (
        lambda p: golden_with_cell(p, 35, "OzOw", "type_raw",
                                   "1/2(1_x,1_y,1_t)", "1/3(1_x,1_y,2_t)"),
        "golden_notes.tsv: the type_typo note at No. 35 OzOw "
        "('1/2(1_x,1_y,1_t)' -> '1/3(1_x,1_y,2_t)') applies to no row or "
        "family"),
    # a surface note needs a row at its point that prints its surface
    "surface_note_mismatch": (
        lambda p: golden_edited(p, "golden_notes.tsv", lambda t: t.replace(
            "\tsurface_typo\tsurface\tx^3, z\t",
            "\tsurface_typo\tsurface\tx^3, w\t")),
        "golden_notes.tsv: the surface_typo note at No. 40 Oz ('x^3, w' -> "
        "'x^3, y') applies to no row or family"),
    # a list note applies where families.tsv lists its corrected weights
    "list_note_mismatch": (
        lambda p: golden_edited(p, "golden_notes.tsv", lambda t: t.replace(
            "\tlist_typo\tweights\t1,3,4,5,89\t1,3,4,5,8\t",
            "\tlist_typo\tweights\t1,3,4,5,88\t1,3,4,5,9\t")),
        "golden_notes.tsv: the list_typo note at No. 45 - ('1,3,4,5,88' -> "
        "'1,3,4,5,9') applies to no row or family"),
    # a defect note documents the printed (n) certificate, so it needs an
    # (n) row at its point: No. 95 Oy has (b) rows only
    "defect_note_without_n_row": (
        lambda p: golden_edited(p, "golden_notes.tsv",
                                lambda t: t + NOTE_95_OY),
        "golden_notes.tsv: the certificate_defect note at No. 95 Oy ('-' -> "
        "'-') applies to no row or family"),
    # the one row at No. 52 Oz reads (b), so its defect note excuses nothing
    "defect_note_at_a_b_row": (
        lambda p: golden_with_cell(p, 52, "Oz", "method", "N", "B"),
        "golden_notes.tsv: the certificate_defect note at No. 52 Oz ('-' -> "
        "'-') applies to no row or family"),
    # a second A3 column, which the load would read in place of the first
    "repeated_A3_column": (
        lambda p: golden_edited(p, "families.tsv", lambda t: "".join(
            line + ("\tA3" if i == 0 else "\t1/2") + "\n"
            for i, line in enumerate(t.splitlines()))),
        "families.tsv: repeated column 'A3'"),
}


class TestEnumerate:
    def test_text_has_95_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-weight", "33")
        assert code == 0
        assert len(out.strip().splitlines()) == 95

    def test_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-weight", "33", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 95
        assert payload[0] == {"no": 1, "degree": 4,
                              "weights": [1, 1, 1, 1, 1]}

    def test_diff_paper_reports_two_corrections(self, capsys):
        code, _, err = run(capsys, "enumerate", "--diff-paper")
        assert code == 0
        assert err.count("list correction") == 2
        assert "No. 45" in err and "No. 93" in err

    @pytest.mark.parametrize("max_weight,named", [
        (5, []), (8, ["No. 45"]), (24, ["No. 45"]),
        (25, ["No. 45", "No. 93"])])
    def test_diff_paper_names_only_reached_families(self, capsys, max_weight,
                                                    named):
        # No. 45 has a4 = 8 and No. 93 has a4 = 25
        code, _, err = run(capsys, "enumerate", "--max-weight",
                           str(max_weight), "--diff-paper")
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == len(named)
        assert all(line.startswith(f"list correction: {no} ")
                   for line, no in zip(lines, named))

    def test_a_list_correction_is_listed_only_by_its_note(self, tmp_path,
                                                        capsys):
        # without the No. 93 note, No. 93 is listed under its weights alone
        golden_edited(tmp_path, "golden_notes.tsv", lambda t: "".join(
            line for line in t.splitlines(True)
            if not line.startswith("93\t")))
        code, _, err = run(capsys, "enumerate", "--diff-paper",
                           "--golden", str(tmp_path))
        assert code == 0
        assert err == ("list correction: No. 45 printed as "
                       "P(1, 3, 4, 5, 89), actual P(1, 3, 4, 5, 8)\n")
        code, out, _ = run(capsys, "check-tables", "--golden", str(tmp_path))
        assert code == 0
        assert out.startswith("95 families, 300 golden rows, 0 discrepancies "
                              "(4 documented source corrections, 1 "
                              "documented certificate defect)\n")

    def test_list_the_scan_disagrees_with_exits_1(self, tmp_path, capsys):
        # a No. 95 that no scan finds: every bound that reaches it fails
        golden_edited(tmp_path, "families.tsv", lambda text: text.replace(
            "95\t66\t1,5,6,22,33\t", "95\t67\t1,5,6,22,34\t"))
        for flags in ([], ["--json"]):
            code, _, err = run(capsys, "enumerate", *flags,
                               "--golden", str(tmp_path))
            assert code == 1 and err == (
                "error: enumeration returned 95 families and diverges from "
                "the embedded list\n")
        code, out, err = run(capsys, "enumerate", "--max-weight", "20",
                             "--golden", str(tmp_path))
        assert (code, err) == (0, "") and len(out.splitlines()) == 87

    def test_stable_at_higher_bound(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-weight", "50")
        assert code == 0
        assert len(out.strip().splitlines()) == 95

    @pytest.mark.parametrize("max_weight", range(1, 34))
    def test_lower_bound_keeps_the_list_numbers(self, capsys, max_weight):
        # the families with a4 <= max_weight, under their entry numbers
        from wfano import golden
        expected = [rec.family for rec in golden.data().families
                    if rec.family.w[4] <= max_weight]
        code, out, err = run(capsys, "enumerate", "--max-weight",
                             str(max_weight), "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == [
            {"no": f.entry_no, "degree": f.d, "weights": list(f.w)}
            for f in expected]
        code, out, err = run(capsys, "enumerate", "--max-weight",
                             str(max_weight))
        assert (code, err) == (0, "")
        assert [line.split("  ")[:2] for line in out.splitlines()] == [
            [f"No. {f.entry_no:02d}",
             f"X_{f.d} in P({','.join(map(str, f.w))})"] for f in expected]


class TestCensus:
    def test_family_95(self, capsys):
        code, out, _ = run(capsys, "census", "95")
        assert code == 0
        assert "OtOw" in out and "1/11" in out

    def test_smooth_family(self, capsys):
        code, out, _ = run(capsys, "census", "1")
        assert code == 0
        assert "no singular points" in out

    def test_by_weights(self, capsys):
        code, out, _ = run(capsys, "census", "2,3,4,5")
        assert code == 0
        assert "X_14" in out


class TestReport:
    def test_invisible_involution_variant(self, capsys):
        code, out, _ = run(capsys, "report", "23", "--variant", "a1=0,c=0")
        assert code == 0
        assert "[iota1]" in out
        assert "discrepancies: none" in out

    def test_report_1_notes_smooth(self, capsys):
        code, out, _ = run(capsys, "report", "1")
        assert code == 0
        assert "census: empty" in out

    def test_report_95_all_exclude(self, capsys):
        code, out, _ = run(capsys, "report", "95", "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["superrigid"]
        assert len(rep["points"]) == 4
        assert all(p["kind"] == "exclude" and p["valid"]
                   for p in rep["points"])

    def test_json_validates_against_schema(self):
        from wfano import golden
        from wfano.report import build_report, to_json
        schema = json.loads(
            (resources.files("wfano") / "data" / "report_schema.json")
            .read_text())
        validator = jsonschema.Draft7Validator(schema)
        data = golden.data()
        for no in range(1, 96):
            rep = json.loads(to_json(build_report(no, {}, data)))
            validator.validate(rep)

    def test_reports_are_deterministic(self):
        from wfano import golden
        from wfano.report import build_report, to_json
        data = golden.data()
        for no in (7, 23, 52):
            assert to_json(build_report(no, {}, data)) == \
                to_json(build_report(no, {}, data))

    def test_corrected_type_flags_only_the_corrected_types(self, capsys):
        flagged = []
        for argv in (["35"], ["74"], ["40", "--variant", "a1=0"]):
            code, out, _ = run(capsys, "report", *argv, "--json")
            assert code == 0
            flagged += [(argv[0], p["point"])
                        for p in json.loads(out)["points"]
                        if p.get("corrected_type")]
        # the No. 40 O_z row has a corrected surface, not a corrected type
        assert flagged == [("35", "OzOw"), ("74", "Ow")]

    def test_text_and_json_agree_numerically(self, capsys):
        _, out_json, _ = run(capsys, "report", "23", "--json")
        rep = json.loads(out_json)
        _, out_text, _ = run(capsys, "report", "23")
        assert rep["anticanonical_degree"] in out_text
        for p in rep["points"]:
            if "b3" in p:
                assert f"B^3 = {p['b3']}" in out_text
            if "linear_system" in p:
                assert p["linear_system"] in out_text

    def test_unknown_variant_flag(self, capsys):
        code, _, err = run(capsys, "report", "23", "--variant", "q7=0")
        assert code == 2
        assert "q7" in err


def test_digest_of_the_packaged_payloads():
    # exit code and stdout of `check-tables` and of every family report, in
    # text and JSON, on the packaged data; a change to any of these outputs
    # changes the digest
    argvs = [["check-tables"], ["check-tables", "--json"]]
    argvs += [["report", str(no), *flag] for no in range(1, 96)
              for flag in ([], ["--json"])]
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, err = run_in_process(argv)
        assert err == ""
        digest.update(f"{argv} {code}\n{out}".encode())
    assert digest.hexdigest() == (
        "2dc2525d3887b94c6b8581b5ee39d8231cc421b72cb228a29800e8f49b5e249b")


def report_variants():
    """(family number, `--variant` text) for every combination of values of
    each family's condition atoms, in `golden.atom_values` spelling; the
    text is empty at a family with no atom."""
    data = golden.data()
    for rec in data.families:
        no = rec.family.entry_no
        atoms = sorted(data.atoms_for(no))
        for combo in itertools.product(*map(golden.atom_values, atoms)):
            yield no, ",".join(f"{a}={v}" for a, v in zip(atoms, combo))


def test_digest_of_the_reports_under_every_variant():
    # exit code and stdout of every family report under every combination
    # of its condition atoms, in text and JSON, on the packaged data
    argvs = [["report", str(no), *flag] + (["--variant", v] if v else [])
             for no, v in report_variants() for flag in ([], ["--json"])]
    assert len(argvs) == 432
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, err = run_in_process(argv)
        assert err == ""
        digest.update(f"{argv} {code}\n{out}".encode())
    assert digest.hexdigest() == (
        "56b847e800cb5a0d900b81688ad005d03eb3183a48db203f89486063b182c9b2")


class TestCheckTables:
    def test_clean(self, capsys):
        code, out, _ = run(capsys, "check-tables")
        assert code == 0
        assert "0 discrepancies" in out
        assert "documented" in out

    def test_single_family_filter(self, capsys):
        code, out, _ = run(capsys, "check-tables", "--family", "40")
        assert code == 0
        assert out.startswith("1 family, 10 golden rows, 0 discrepancies "
                              "(1 documented source correction, ")

    def test_single_family_by_weights(self, capsys):
        code, out, _ = run(capsys, "check-tables", "--family", "2,3,4,5")
        assert code == 0
        assert out.startswith("1 family, 8 golden rows, 0 discrepancies")

    @pytest.mark.parametrize("counts,expected", [
        ((2, 2, 2, 2, 2), "2 families, 2 golden rows, 2 discrepancies "
         "(2 documented source corrections, 2 documented certificate "
         "defects)"),
        ((1, 0, 0, 0, 0), "1 family, 0 golden rows, 0 discrepancies "
         "(0 documented source corrections, 0 documented certificate "
         "defects)"),
        ((0, 1, 0, 0, 0), "0 families, 1 golden row, 0 discrepancies "
         "(0 documented source corrections, 0 documented certificate "
         "defects)"),
        ((0, 0, 1, 0, 0), "0 families, 0 golden rows, 1 discrepancy "
         "(0 documented source corrections, 0 documented certificate "
         "defects)"),
        ((0, 0, 0, 1, 0), "0 families, 0 golden rows, 0 discrepancies "
         "(1 documented source correction, 0 documented certificate "
         "defects)"),
        ((0, 0, 0, 0, 1), "0 families, 0 golden rows, 0 discrepancies "
         "(0 documented source corrections, 1 documented certificate "
         "defect)"),
    ], ids=["plural", "family", "row", "discrepancy", "correction", "defect"])
    def test_summary_is_singular_for_a_count_of_one(self, counts, expected):
        assert check_summary(*counts) == expected

    @pytest.mark.parametrize("no,point,column,old,new", [
        (19, "OzOt", "b3", "0", "+"),
        # the row's documented defect excuses its failed inequality only
        (52, "Oz", "b3", "-", "+"),
        # the two-ray game of No. 21 holds at O_t, not at this edge
        (21, "OzOt", "method", "B", "P"),
        # subscripts that leave w, which O_y cannot eliminate, to the chart
        (95, "Oy", "type_raw", "1/5(1_x,2_t,3_w)", "1/5(1_x,2_t,3_z)"),
        # a type or count the census does not have fails the row's own
        # "quotient type" check, and nothing else
        (95, "Oy", "type_raw", "1/5(1_x,2_t,3_w)", "1/5(1_x,1_t,4_w)"),
        (95, "Oy", "count", "1", "2"),
        # a wrong printed order, with no `r` column to repeat it
        (95, "Oy", "type_raw", "1/5(1_x,2_t,3_w)", "1/4(1_x,1_t,3_w)"),
    ], ids=["19-OzOt-b3", "52-Oz-documented-defect-b3", "21-OzOt-method-P",
            "95-Oy-subscripts", "95-Oy-type", "95-Oy-count", "95-Oy-order"])
    def test_fault_injection_names_the_row(self, tmp_path, capsys, no, point,
                                           column, old, new):
        golden_with_cell(tmp_path, no, point, column, old, new)
        code, out, _ = run(capsys, "check-tables", "--golden", str(tmp_path),
                           "--json")
        assert code == 1
        payload = json.loads(out)
        assert len(payload["discrepancies"]) == 1
        d = payload["discrepancies"][0]
        assert d["family"] == no and d["point"] == point

    def test_row_at_a_point_the_census_lacks_is_a_discrepancy(
            self, tmp_path, capsys):
        golden_with_cell(tmp_path, 95, "OzOt", "point", "OzOt", "OyOz")
        code, out, _ = run(capsys, "check-tables", "--golden", str(tmp_path),
                           "--json")
        assert code == 1
        assert json.loads(out)["discrepancies"] == [
            {"family": 95, "point": "-", "condition": "",
             "reason": "census points ['OzOt'] have no table row"},
            {"family": 95, "point": "OyOz", "condition": "",
             "reason": "quotient type: the census has no quotient point at "
                       "OyOz",
             "failed_checks": ["quotient type"]}]
        code, out, _ = run(capsys, "report", "95", "--golden", str(tmp_path))
        assert code == 1
        assert "  OyOz (b) exclude  |  T in |5B+2E|  -> FAILED\n" in out

    def test_census_point_without_a_row_fails_the_report_too(self, tmp_path,
                                                             capsys):
        golden_without_rows(tmp_path, 95, "OzOt")
        record = {"family": 95, "point": "-", "condition": "",
                  "reason": "census points ['OzOt'] have no table row"}
        for argv in (["check-tables", "--family", "95"], ["report", "95"]):
            code, out, _ = run(capsys, *argv, "--json",
                               "--golden", str(tmp_path))
            assert code == 1 and json.loads(out)["discrepancies"] == [record]
        code, out, _ = run(capsys, "report", "95", "--golden", str(tmp_path))
        assert code == 1
        assert out.endswith("\ndiscrepancies:\n  95 - []: census points "
                            "['OzOt'] have no table row\n")

    def test_uncovered_variant_is_named_in_variant_syntax(self, tmp_path,
                                                          capsys):
        golden_without_rows(tmp_path, 23, "Oz", "IOTA1")
        record = {"family": 23, "point": "Oz", "condition": "a1=zero,c=zero",
                  "reason": "variant combination not covered by any golden "
                            "row"}
        # the condition pastes back as a --variant, under which the report
        # lists the same record and no row at Oz
        for argv in (["check-tables"], ["check-tables", "--family", "23"],
                     ["report", "23", "--variant", record["condition"]]):
            code, out, _ = run(capsys, *argv, "--json",
                               "--golden", str(tmp_path))
            assert code == 1 and json.loads(out)["discrepancies"] == [record]
        assert "Oz" not in [p["point"] for p in json.loads(out)["points"]]

    def test_variant_answered_by_two_rows_is_named(self, tmp_path, capsys):
        # the a_1!=0 row of No. 9 at O_z, repeated under method N
        row = "9\tOz\t1\t1/2(1_x,1_y,1_t)\tB\t0\tB\ty\ty\ta_1!=0\t\n"
        golden_edited(tmp_path, "golden_tables.tsv", lambda text: text.replace(
            row, row + row.replace("\tB\t0\t", "\tN\t0\t"), 1))
        record = {"family": 9, "point": "Oz", "condition": "a1=nonzero",
                  "reason": "variant combination answered by 2 golden rows "
                            "(methods B, N)"}
        for argv in (["check-tables"], ["check-tables", "--family", "9"],
                     ["report", "9"],
                     ["report", "9", "--variant", record["condition"]]):
            code, out, _ = run(capsys, *argv, "--json",
                               "--golden", str(tmp_path))
            assert code == 1 and json.loads(out)["discrepancies"] == [record]
        assert [p["method"] for p in json.loads(out)["points"]
                if p["point"] == "Oz"] == ["B", "N"]
        code, out, _ = run(capsys, "check-tables", "--golden", str(tmp_path))
        assert code == 1 and ("\n  DISCREPANCY No. 9 Oz [a1=nonzero]: variant "
                              "combination answered by 2 golden rows "
                              "(methods B, N)") in out
        # the other value of a_1 is answered by one row
        code, out, _ = run(capsys, "report", "9", "--variant", "a1=0",
                           "--golden", str(tmp_path))
        assert code == 0 and out.endswith("\ndiscrepancies: none\n")

    def test_repeated_defect_row_stays_a_documented_defect(self, tmp_path,
                                                          capsys):
        # the No. 52 O_z (n) row twice: its documented defect excuses the
        # failed inequality on both, and only the coverage record is listed
        row = "52\tOz\t1\t1/4(1_x,1_t,3_w)\tN\t-\t5B+E\txz, t\txz, t\t\t\n"
        golden_edited(tmp_path, "golden_tables.tsv",
                      lambda text: text.replace(row, row + row, 1))
        code, out, _ = run(capsys, "report", "52", "--golden", str(tmp_path))
        assert code == 1
        oz = [line for line in out.splitlines() if line.startswith("  Oz (n) ")]
        assert len(oz) == 2
        assert all(line.endswith("-> DOCUMENTED DEFECT") for line in oz)
        assert out.count("failed: nef-divisor inequality: ") == 2
        assert out.endswith(
            "\ndiscrepancies:\n  52 Oz []: variant combination answered by "
            "2 golden rows (methods N, N)\n")

    def test_failed_row_has_one_record_in_report_and_check_tables(
            self, tmp_path, capsys):
        golden_with_cell(tmp_path, 19, "OzOt", "b3", "0", "+")
        records = []
        for argv in (["report", "19"], ["check-tables"]):
            code, out, _ = run(capsys, *argv, "--json",
                               "--golden", str(tmp_path))
            assert code == 1
            records.append(json.loads(out)["discrepancies"])
        assert records[0] == records[1] == [
            {"family": 19, "point": "OzOt", "condition": "",
             "reason": "B^3 sign: B^3 = 0 (0) vs table '+'",
             "failed_checks": ["B^3 sign"]}]
        # the text names the failed check once, in the reason
        code, out, _ = run(capsys, "report", "19", "--golden", str(tmp_path))
        assert code == 1 and out.endswith(
            "\ndiscrepancies:\n  19 OzOt []: B^3 sign: B^3 = 0 (0) vs table "
            "'+'\n")

    def test_chart_the_vertex_cannot_take_is_one_record(self, tmp_path,
                                                        capsys):
        # subscripts x, z, t leave w to the chart, and O_y of No. 95 can
        # eliminate only x or z; the residues still normalize
        golden_with_cell(tmp_path, 95, "Oy", "type_raw", "1/5(1_x,2_t,3_w)",
                         "1/5(1_x,2_z,3_t)")
        reason = "quotient type: w cannot be eliminated at O_y"
        for argv in (["report", "95"], ["check-tables"]):
            code, out, _ = run(capsys, *argv, "--json",
                               "--golden", str(tmp_path))
            assert code == 1 and json.loads(out)["discrepancies"] == [
                {"family": 95, "point": "Oy", "condition": "a_1!=0",
                 "reason": reason, "failed_checks": ["quotient type"]}]
            code, out, _ = run(capsys, *argv, "--golden", str(tmp_path))
            assert code == 1 and f" Oy [a_1!=0]: {reason}\n" in out

    def test_stored_anticanonical_degree_is_checked(self, tmp_path, capsys):
        golden_with_family_cell(tmp_path, 52, "A3", "1/20", "1/2")
        for argv in (["check-tables"], ["report", "52"]):
            code, out, _ = run(capsys, *argv, "--golden", str(tmp_path),
                               "--json")
            assert code == 1
            assert json.loads(out)["discrepancies"] == [
                {"family": 52, "point": "-", "condition": "",
                 "reason": "A^3 mismatch: computed 1/20, stored 1/2"}]

    def test_stale_printed_weights_column_is_ignored(self, tmp_path,
                                                     capsys):
        # an older dataset layout: families.tsv with a `printed_weights`
        # column, whose No. 2 cell differs from its weights with no note
        def add_column(text):
            lines = text.splitlines()
            lines[0] += "\tprinted_weights"
            for i, line in enumerate(lines[1:], 1):
                no, _d, weights = line.split("\t")[:3]
                lines[i] += "\t" + ("1,1,1,1,3" if no == "2" else weights)
            return "\n".join(lines) + "\n"
        golden_edited(tmp_path, "families.tsv", add_column)
        for argv in (["enumerate", "--diff-paper"], ["check-tables"]):
            assert run(capsys, *argv, "--golden", str(tmp_path)) == \
                run(capsys, *argv)

    def test_stored_superrigid_flag_is_checked(self, tmp_path, capsys):
        # the report prints the computed flag, and both commands name the
        # stored one that disagrees
        golden_with_family_cell(tmp_path, 95, "superrigid", "1", "0")
        code, out, _ = run(capsys, "report", "95", "--json",
                           "--golden", str(tmp_path))
        report = json.loads(out)
        assert code == 1 and report["superrigid"] is True
        code, out, _ = run(capsys, "check-tables", "--golden", str(tmp_path),
                           "--json")
        assert code == 1
        assert report["discrepancies"] == json.loads(out)["discrepancies"] == [
            {"family": 95, "point": "-", "condition": "",
             "reason": "super-rigidity mismatch: computed True, stored False"}]

    @pytest.mark.parametrize("no,fault,reasons", [
        (50, lambda tmp: golden_with_family_cell(tmp, 50, "A3", "2/21",
                                                 "1/2"),
         ["A^3 mismatch: computed 2/21, stored 1/2"]),
        (60, lambda tmp: golden_with_family_cell(tmp, 60, "superrigid", "0",
                                                 "1"),
         ["super-rigidity mismatch: computed False, stored True"]),
        (95, lambda tmp: golden_edited(
            tmp, "golden_tables.tsv", lambda text: "".join(
                line for line in text.splitlines(True)
                if not line.startswith("95\t"))),
         ["super-rigidity mismatch: computed False, stored True",
          "census points ['Oy', 'OzOt', 'OzOw', 'OtOw'] have no table row"]),
    ], ids=["A3", "superrigid", "no-rows"])
    def test_report_and_check_tables_list_the_same_family_records(
            self, tmp_path, capsys, no, fault, reasons):
        fault(tmp_path)
        for argv in (["report", str(no)],
                     ["check-tables", "--family", str(no)]):
            code, out, _ = run(capsys, *argv, "--json",
                               "--golden", str(tmp_path))
            assert code == 1
            assert [d for d in json.loads(out)["discrepancies"]
                    if d["point"] == "-"] == [
                {"family": no, "point": "-", "condition": "", "reason": r}
                for r in reasons]


class TestOrder:
    @pytest.mark.parametrize("args,expected", [
        (("order", "23", "--point", "Oz", "--poly", "y*z+x*t",
          "--variant", "special"), "5/3"),
        (("order", "23", "--point", "Oz", "--poly", "x",
          "--variant", "special"), "1/3"),
        (("order", "50", "--point", "Ot", "--poly", "y"), "8/7"),
        (("order", "23", "--point", "Ow", "--poly", "x"), "1/5"),
        (("order", "50", "--point", "Ot", "--poly", "y", "--cutoff", "56"),
         "8/7"),
        (("order", "50", "--point=Ot", "--poly=y", "--cutoff=56"), "8/7"),
        # a repeated option keeps its last value
        (("order", "50", "--point", "Oz", "--poly", "y", "--point", "Ot"),
         "8/7"),
        # y^1000000 lies far above the cutoff and costs nothing
        (("order", "50", "--point", "Ot", "--poly", "y^1000000 + y"), "8/7"),
    ])
    def test_orders(self, capsys, args, expected):
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out.strip() == expected

    @pytest.mark.parametrize("args", [
        ("--poly", "y+***"),
        ("--poly", "0"),
        ("--poly", "y", "--cutoff", "0"),
        ("--poly", "y", "--cutoff", "-7"),
        ("--poly", "y", "--cutoff", "57"),
    ], ids=["unparsable-poly", "zero-poly", "cutoff-0", "cutoff-negative",
            "cutoff-above-8r"])
    def test_usage_errors(self, capsys, args):
        code, out, err = run(capsys, "order", "50", "--point", "Ot", *args)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("variant", [
        "zz", "a1=0", "special,special", " special", "special,"])
    def test_special_is_the_only_variant(self, capsys, variant):
        code, out, err = run(capsys, "order", "23", "--point", "Oz",
                             "--poly", "x", "--variant", variant)
        assert (code, out) == (2, "")
        assert err == (f"error: order takes no --variant but special, "
                       f"got {variant!r}\n")

    def test_empty_variant_is_the_generic_member(self, capsys):
        argv = ("order", "23", "--point", "Oz", "--poly", "x")
        assert run(capsys, *argv, "--variant", "") == run(capsys, *argv)

    def test_negative_cutoff_reaches_the_range_check(self, capsys):
        code, out, err = run(capsys, "order", "50", "--point", "Ot", "--poly",
                             "y", "--cutoff", "-7")
        assert (code, out) == (2, "")
        assert err == "error: --cutoff must be between 1 and 8r = 56 at Ot\n"

    def test_missing_point(self, capsys):
        code, _, err = run(capsys, "order", "1", "--point", "Ow",
                           "--poly", "x")
        assert code == 2
        assert "no quotient point" in err

    def test_order_past_the_cutoff(self, capsys):
        # x^99999 cancels nowhere: its only term lies past the cutoff 4r
        code, out, err = run(capsys, "order", "2", "--point", "Ow",
                             "--poly", "x^99999")
        assert (code, out) == (1, "")
        assert err == ("the order is at least cutoff/r = 8/2: no term of "
                       "--poly survives below the cutoff; raise --cutoff\n")


class TestSearch:
    def test_known_family(self, capsys):
        code, out, _ = run(capsys, "search", "3,4,5,8", "--json")
        assert code == 0
        info = json.loads(out)
        assert info["entry_no"] == 45 and info["terminal"]

    def test_not_wellformed(self, capsys):
        code, out, _ = run(capsys, "search", "2,4,6,8", "--json")
        assert code == 0
        assert json.loads(out)["wellformed"] is False

    def test_non_terminal_quadruple(self, capsys):
        code, out, _ = run(capsys, "search", "1,1,1,4", "--json")
        assert code == 0
        info = json.loads(out)
        assert info["quasismooth"] is False

    @pytest.mark.parametrize("weights,census_lines", [
        ("2,3,5,7", "  Oy = 1/2(1, 1, 1)\n  Oz = 1/3(1, 2, 1)\n"
                    "  Ot = 1/5(1, 2, 3)\n  Ow = 1/7(1, 2, 5)\n"),
        ("1,1,1,1", "  smooth: no singular points\n"),
    ], ids=["2,3,5,7", "1,1,1,1"])
    def test_text_lists_the_census_as_census_does(self, capsys, weights,
                                                  census_lines):
        code, out, _ = run(capsys, "search", weights)
        assert code == 0
        assert f"\nterminal: True\ncensus:\n{census_lines}entry_no: " in out
        assert run(capsys, "census", weights)[1].endswith(census_lines)


def test_order_takes_no_json_flag(capsys):
    code, out, err = run(capsys, "order", "50", "--point", "Ot", "--poly", "y",
                         "--json")
    assert (code, out) == (2, "")
    assert err == "error: order takes no option --json\n"


def test_closed_stdout_exits_1_without_a_traceback():
    # The read end is closed before the child starts, so its first write
    # fails; a reader that took one line first would race with that write.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wfano.cli", "check-tables"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ,
                     PYTHONPATH=str(Path(wfano.__file__).parents[1])))
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Broken" not in proc.stderr


class TestErrorBoundary:
    @pytest.mark.parametrize("argv", [
        ("search", "3,4,x"),
        ("search", "0,1,2,3"),
        ("order", "7", "--point", "Oz", "--poly", "x", "--variant", "special"),
        ("order", "23", "--point", "Oz", "--poly", "x", "--variant", "zz=0"),
        ("report", "23", "--variant", "special"),
        ("report", "1", "--variant", "special"),
        ("report", "95", "--variant", "a1=0,a1=nonzero"),
        ("report", "95", "--variant", "a1=0,a_1=0"),
        ("report", "5", "--variant", "=0"),
        ("report", "95", "--golden", "{missing}"),
        ("search", "1,1,1,4", "--golden", "{missing}"),
        ("report", "95", "--golden", "{unknown_method}"),
        ("report", "95", "--golden", "{no_A3_column}"),
        ("report", "95", "--golden", "{short_weights}"),
        ("report", "95", "--golden", "{short_row}"),
        ("check-tables", "--golden", "{orphan_row}"),
        ("check-tables", "--golden", "{orphan_note}"),
        ("check-tables", "--golden", "{orphan_point_note}"),
        ("check-tables", "--golden", "{family_numbers_gap}"),
        ("census", "95", "--golden", ""),
        ("check-tables", "--golden="),
        ("check-tables", "--family", "0"),
        ("check-tables", "--family", "96"),
        ("search", "1,1,1,1000001"),
        ("enumerate", "--max-weight", "0"),
        ("enumerate", "--max-weight", "-3"),
        ("enumerate", "--max-weight", str(MAX_ENUMERATE_WEIGHT + 1)),
        # command-line errors
        (),
        ("frobnicate", "23"),
        ("report", "23", "--no-such-flag"),
        ("report", "23", "--variant"),
        ("order", "50", "--point", "Ot", "--poly", "y", "--cutoff=abc"),
        ("enumerate", "--max-weight", "x"),
        ("order", "50", "--poly", "y"),
        ("order", "50", "--point", "Ot"),
        ("report",),
        ("report", "23", "24"),
        ("census", "95", "--json=yes"),
        ("enumerate", "--max", "8"),
        ("report", "--", "23"),
    ], ids=["search-not-int", "search-zero-weight", "order-no-special-member",
            "order-variant-flag", "report-variant-special",
            "report-variant-special-no-points",
            "report-variant-repeated", "report-variant-repeated-alias",
            "report-variant-empty-flag",
            "report-missing-golden", "search-missing-golden",
            "report-golden-unknown-method", "report-golden-no-A3-column",
            "report-golden-short-weights", "report-golden-short-row",
            "check-golden-orphan-row",
            "check-golden-orphan-note", "check-golden-orphan-point-note",
            "check-golden-family-numbers-gap", "census-golden-empty",
            "check-golden-empty",
            "check-family-0",
            "check-family-96", "search-weight-over-bound",
            "enumerate-max-weight-0", "enumerate-max-weight-negative",
            "enumerate-max-weight-over-bound", "no-command", "unknown-command",
            "unknown-option", "missing-value", "cutoff-not-int",
            "max-weight-not-int", "missing-point", "missing-poly",
            "missing-positional", "extra-positional", "flag-with-value",
            "abbreviated-option", "separator"])
    def test_usage_error_exits_2_in_one_line(self, capsys, tmp_path, argv):
        for name, (make, _message) in BAD_GOLDEN.items():
            if f"{{{name}}}" in argv:
                make(tmp_path)
        argv = [a.format(missing=tmp_path / "missing",
                         **dict.fromkeys(BAD_GOLDEN, tmp_path))
                for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name", sorted(BAD_GOLDEN))
    def test_bad_golden_data_is_named(self, capsys, tmp_path, name):
        make, message = BAD_GOLDEN[name]
        make(tmp_path)
        code, out, err = run(capsys, "check-tables", "--golden", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot load --golden: {message}")
        assert err.count("\n") == 1

    def test_non_terminal_golden_family_is_a_mismatch(self, tmp_path, capsys):
        # X_7 in P(1,1,2,2,2) has 1/2(1,0,0) at O_z
        golden_with_family_cell(tmp_path, 5, "weights", "1,1,1,2,3",
                                "1,1,2,2,2")
        code, out, err = run(capsys, "census", "5", "--golden", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_failed_b_cubed_cross_check_is_a_mismatch(self, capsys,
                                                      monkeypatch):
        # a wrong B.B.B stops the run, also under `python -O`
        real = blowup.triple
        monkeypatch.setattr(blowup, "triple",
                            lambda *args: real(*args) + 1)
        f = wfano.golden.data().family(23)
        with pytest.raises(blowup.CrossCheckFailed):
            blowup.b_cubed(f, vertex_singularity(f, 2))
        code, out, err = run(capsys, "check-tables")
        assert (code, out) == (1, "")
        assert err.startswith("error: No. ") and err.count("\n") == 1
        monkeypatch.setenv("PYTHONOPTIMIZE", "1")
        code, out, err = run_in_fresh_process(["check-tables"], (
            "import sys, wfano.blowup as b; real = b.triple; "
            "b.triple = lambda *args: real(*args) + 1; "
            "from wfano.cli import main; sys.exit(main(sys.argv[1:]))"))
        assert (code, out) == (1, "")
        assert err.startswith("error: No. ") and err.count("\n") == 1


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_processes(self):
        sequence = [
            ["report", "23", "--json"],
            ["report", "23", "--no-such-flag"],   # command-line error, exit 2
            ["check-tables", "--family", "0"],    # usage error, exit 2
            ["order", "5", "--point", "Ow", "--poly", "z"],
            ["report", "23", "--json"],
        ]
        results = [run_in_process(argv) for argv in sequence]
        assert [code for code, _out, _err in results] == [0, 2, 2, 0, 0]
        assert results[1][1:] == (
            "", "error: report takes no option --no-such-flag\n")
        assert results[3][1] == "4/3\n"
        assert results[0] == results[4]
        for argv, got in zip(sequence[:4], results):
            assert got == run_in_fresh_process(argv), argv


class TestHelp:
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_names_every_command(self, capsys, flag):
        code, out, err = run(capsys, flag)
        assert (code, err) == (0, "")
        assert all(f"\n  {name} " in out for name in cli.COMMANDS)

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_command_help_names_its_arguments(self, capsys, command):
        _handler, _help, positionals, options = cli.COMMANDS[command]
        # help wins over the other arguments, wherever it stands
        for argv in ([command, "--help"], [command, "23", "-h", "--json"]):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert all(f"\n  {name} " in out for name, *_ in positionals)
            assert all(f"\n  {name} " in out for name, *_ in options)


class TestStartup:
    def test_setup_does_not_import_argparse_or_gettext(self):
        # the command line is read from `cli.COMMANDS`; argparse would load
        # gettext for its messages
        code, out, err = run_in_fresh_process([], (
            "import sys, wfano.cli; wfano.golden.data(); "
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))"))
        assert code == 0, err
        assert out == "[]\n"

    def test_setup_loads_neither_dataclasses_nor_inspect(self):
        # every command pays for what `wfano.cli` and the golden load import
        code, out, err = run_in_fresh_process([], (
            "import sys, wfano.cli; wfano.golden.data(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"))
        assert code == 0, err
        assert out == "[]\n"

    def test_setup_does_not_import_csv(self):
        code, out, err = run_in_fresh_process([], (
            "import sys, wfano.cli; wfano.golden.data(); "
            "print('csv' in sys.modules)"))
        assert code == 0, err
        assert out == "False\n"

    def test_setup_does_not_import_json(self):
        # `report.to_json` imports it when a command prints JSON
        code, out, err = run_in_fresh_process([], (
            "import sys, wfano.cli; wfano.golden.data(); "
            "print('json' in sys.modules)"))
        assert code == 0, err
        assert out == "False\n"

    def test_setup_imports_no_module_that_only_some_commands_need(self):
        # `-S` skips the site module and the .pth files of site-packages,
        # which may import these modules themselves (a .pth file that
        # imports `certifi` loads all four) and so would make the check
        # pass whatever the package imports.  `wps.generic_member` imports
        # `random` when it draws a member.
        code, out, err = run_in_fresh_process([], (
            "import sys, wfano.cli; wfano.golden.data(); "
            "print(sorted({'importlib.resources', 'pathlib', 'typing', "
            "'random'} & set(sys.modules))); "
            "print(sorted(name for name, module in sys.modules.items() "
            "if name.split('.')[0] == 'wfano' and 're' in vars(module)))"),
            flags=["-S"])
        assert code == 0, err
        assert out == "[]\n[]\n"


JUNK = st.text("0123456789,-x", max_size=8)
WEIGHTS = st.one_of(
    JUNK, st.lists(st.integers(0, 12), min_size=4, max_size=4)
    .map(lambda ws: ",".join(map(str, sorted(ws)))))
SELECTORS = st.one_of(st.integers(-2, 97).map(str), WEIGHTS,
                      st.just("2,3,4,5"))
VARIANTS = st.one_of(
    st.sampled_from(["special", "a1=0,c=0", "type=II", "c=0", "zz=0",
                     "type=III", "a1", ","]),
    st.text("a1c=0,nztype", max_size=8))
POINTS = st.one_of(st.sampled_from(["Oy", "Oz", "Ot", "Ow"]),
                   st.text("Oxyztw", max_size=3))
# short junk keeps the drawn polynomials small
POLYS = st.one_of(st.sampled_from(["x", "y", "y*z+x*t", "t^2", "w-w"]),
                  st.text("xyztw+-*^ 2", max_size=5))
# an unknown option, an option with no value, a non-integer, a flag with a
# value, an abbreviation, and --json, which `order` does not take
MALFORMED = st.sampled_from(["--no-such-flag", "--variant", "--cutoff=abc",
                             "--json=1", "--max", "--json"])


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["census", "report", "search", "order"]))
    argv = [command, draw(WEIGHTS if command == "search" else SELECTORS)]
    if command in ("report", "order") and draw(st.booleans()):
        argv += ["--variant", draw(VARIANTS)]
    if command == "order":
        argv += ["--point", draw(POINTS), "--poly", draw(POLYS)]
        if draw(st.booleans()):
            # at most the 4r default for every r >= 2, so no call runs long
            argv += ["--cutoff", str(draw(st.integers(-2, 8)))]
    if command != "order" and draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 3)) == 0:  # a quarter of the command lines
        argv.append(draw(MALFORMED))
    return argv


@given(cli_argv())
@settings(max_examples=300, deadline=None)
def test_any_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
