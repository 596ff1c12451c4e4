"""End-to-end CLI behaviour: formats, exit codes, fault injection."""

import contextlib
import io
import json
import shutil
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from wfano.cli import MAX_ENUMERATE_WEIGHT, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden_copy(tmp_path):
    """A writable copy of the packaged dataset, for `--golden`."""
    src = resources.files("wfano") / "data"
    for name in ("families.tsv", "golden_tables.tsv", "golden_notes.tsv"):
        shutil.copy(str(src / name), tmp_path / name)
    return tmp_path


def golden_with_cell(tmp_path, no, point, column, old, new):
    """A `--golden` copy whose first row at the point with `old` in the
    column reads `new` there."""
    path = golden_copy(tmp_path) / "golden_tables.tsv"
    lines = path.read_text().splitlines()
    col = lines[0].split("\t").index(column)
    for i, line in enumerate(lines):
        cells = line.split("\t")
        if cells[:2] == [str(no), point] and cells[col] == old:
            cells[col] = new
            lines[i] = "\t".join(cells)
            break
    else:
        raise AssertionError(f"no row {no} {point} with {column} {old!r}")
    path.write_text("\n".join(lines) + "\n")
    return tmp_path


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

    def test_stable_at_higher_bound(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-weight", "50")
        assert code == 0
        assert len(out.strip().splitlines()) == 95


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


class TestCheckTables:
    def test_clean(self, capsys):
        code, out, _ = run(capsys, "check-tables")
        assert code == 0
        assert "0 discrepancies" in out
        assert "documented" in out

    def test_single_family_filter(self, capsys):
        code, out, _ = run(capsys, "check-tables", "--family", "40")
        assert code == 0
        assert "1 families" in out

    def test_single_family_by_weights(self, capsys):
        code, out, _ = run(capsys, "check-tables", "--family", "2,3,4,5")
        assert code == 0
        assert out.startswith("1 families, 8 golden rows, 0 discrepancies")

    @pytest.mark.parametrize("no,point,column,old,new", [
        (19, "OzOt", "b3", "0", "+"),
        # the row's documented defect excuses its failed inequality only
        (52, "Oz", "b3", "-", "+"),
        # and only on the (n) certificate that its note documents
        (52, "Oz", "method", "N", "B"),
    ], ids=["19-OzOt-b3", "52-Oz-documented-defect-b3",
            "52-Oz-documented-defect-method"])
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

    def test_missing_point(self, capsys):
        code, _, err = run(capsys, "order", "1", "--point", "Ow",
                           "--poly", "x")
        assert code == 2
        assert "no quotient point" in err


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


class TestErrorBoundary:
    @pytest.mark.parametrize("argv", [
        ("search", "3,4,x"),
        ("search", "0,1,2,3"),
        ("order", "7", "--point", "Oz", "--poly", "x", "--variant", "special"),
        ("order", "23", "--point", "Oz", "--poly", "x", "--variant", "zz=0"),
        ("report", "95", "--golden", "{missing}"),
        ("report", "95", "--golden", "{unknown_method}"),
        ("check-tables", "--family", "0"),
        ("check-tables", "--family", "96"),
        ("search", "1,1,1,1000001"),
        ("enumerate", "--max-weight", "0"),
        ("enumerate", "--max-weight", "-3"),
        ("enumerate", "--max-weight", str(MAX_ENUMERATE_WEIGHT + 1)),
    ], ids=["search-not-int", "search-zero-weight", "order-no-special-member",
            "order-variant-flag", "report-missing-golden",
            "report-golden-unknown-method", "check-family-0",
            "check-family-96", "search-weight-over-bound",
            "enumerate-max-weight-0", "enumerate-max-weight-negative",
            "enumerate-max-weight-over-bound"])
    def test_usage_error_exits_2_in_one_line(self, capsys, tmp_path, argv):
        if "{unknown_method}" in argv:
            golden_with_cell(tmp_path, 95, "Oy", "method", "B", "Q")
        argv = [a.format(missing=tmp_path / "missing", unknown_method=tmp_path)
                for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_terminal_golden_family_is_a_mismatch(self, tmp_path, capsys):
        path = golden_copy(tmp_path) / "families.tsv"
        lines = path.read_text().splitlines()
        assert lines[2].startswith("2\t")
        lines[2] = "2\t7\t1,1,2,2,2\t7/8\t0\t1,1,2,2,2"  # 1/2(1,0,0) at O_z
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "census", "2", "--golden", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


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
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@given(cli_argv())
@settings(max_examples=300, deadline=None)
def test_any_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            assert exc.code == 2
            return
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
