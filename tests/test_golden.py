"""Dataset loading, row grammar, and variant matching."""

import re
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from wfano import golden
from wfano.exactmath import COORD_INDEX, parse_poly
from wfano.golden import (UnknownVariantFlag, canonical_atom, holds,
                          match_rows, parse_condition, parse_linear_system,
                          parse_monomials, parse_type, parse_variant)
from wfano.report import build_report

from oracles import (regex_parse_linear_system, regex_parse_poly,
                     regex_parse_type, regex_strip_coefficients)

DATA = golden.data()


class TestGrammar:
    def test_parse_monomial(self):
        assert parse_monomials("z^2t^2") == ((0, 0, 2, 2, 0),)
        assert parse_monomials("y") == ((0, 1, 0, 0, 0),)
        assert parse_monomials("xy^3") == ((1, 3, 0, 0, 0),)
        with pytest.raises(ValueError):
            parse_monomials("q^2")

    def test_parse_generator(self):
        assert parse_monomials("z-alpha_i y^2") == (
            (0, 0, 1, 0, 0), (0, 2, 0, 0, 0))
        assert parse_monomials("w+yt") == ((0, 0, 0, 0, 1), (0, 1, 0, 1, 0))
        assert parse_monomials("zw^2-z^3t") == (
            (0, 0, 1, 0, 2), (0, 0, 3, 1, 0))

    def test_subscript_does_not_swallow_the_next_monomial(self):
        # a one-character subscript: 'alpha_iz' is alpha_i times z
        assert parse_monomials("y-alpha_iz") == (
            (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))
        row = DATA.rows_for(22, "OyOz")[0]  # printed 'y-alpha_iz'
        assert row.surface == (((0, 1, 0, 0, 0), (0, 0, 1, 0, 0)),)

    def test_parse_type(self):
        r, res, subs = parse_type("1/3(1_x,2_y,1_t)")
        assert (r, res, subs) == (3, (1, 2, 1), (0, 1, 3))
        r, res, subs = parse_type("1/4(1,3,1)")
        assert (r, res) == (4, (1, 3, 1))
        assert subs == (None, None, None)

    @given(st.text("0123456789_xyztwq\u0663", max_size=6))
    def test_a_residue_reads_as_digits_and_a_subscript(self, item):
        m = re.fullmatch(r"(\d+)(?:_([xyztw]))?", item)
        text = f"1/5({item},1,4)"
        if m is None:
            with pytest.raises(ValueError, match="cannot parse residue"):
                parse_type(text)
        else:
            _r, residues, subs = parse_type(text)
            assert residues[0] == int(m.group(1))
            assert subs[0] == (COORD_INDEX[m.group(2)] if m.group(2)
                               else None)

    @given(st.text("ab_12=!0, \t\u00a0", max_size=12))
    def test_conditions_split_at_commas_and_whitespace(self, text):
        def outcome(text):
            try:
                return parse_condition(text)
            except ValueError as exc:
                return str(exc)
        tokens = [t for t in re.split(r"[,\s]+", text) if t]
        assert outcome(text) == outcome(" ".join(tokens))

    def test_parse_linear_system(self):
        assert parse_linear_system("5B+2E") == (5, 2)
        assert parse_linear_system("B-E") == (1, -1)
        assert parse_linear_system("B") == (1, 0)
        assert parse_linear_system("12B+E") == (12, 1)
        with pytest.raises(ValueError):
            parse_linear_system("5A+2E")

    def test_parse_condition(self):
        assert parse_condition("c!=0, a_1!=0") == frozenset({
            ("c", "nonzero"), ("a1", "nonzero")})
        assert parse_condition("a_1=a_2=0") == frozenset({
            ("a1", "zero"), ("a2", "zero")})
        assert parse_condition("Type II") == frozenset({("type", "II")})
        assert parse_condition("a_1!=0, b_1!=0 a_1b_2-a_2b_1=0") == frozenset({
            ("a1", "nonzero"), ("b1", "nonzero"), ("a1b2-a2b1", "zero")})
        assert parse_condition("") == frozenset()

    def test_parse_variant(self):
        assert parse_variant("a1=0,c=nonzero") == {
            "a1": "zero", "c": "nonzero"}
        assert parse_variant("type=II") == {"type": "II"}
        assert parse_variant("a1=0,,c=0") == {"a1": "zero", "c": "zero"}
        with pytest.raises(UnknownVariantFlag):
            parse_variant("a1=maybe")
        # `order` alone reads the name special, not as a condition flag
        for tok in ("=0", "_=0", "a1", "special"):
            with pytest.raises(UnknownVariantFlag,
                               match=f"^bad variant flag '{tok}'$"):
                parse_variant(tok)

    def test_canonical_atom(self):
        assert canonical_atom("a_1") == "a1"
        assert canonical_atom("alpha_1alpha_2") == "alpha1alpha2"


class TestDataset:
    def test_sizes(self):
        assert len(DATA.families) == 95
        assert len(DATA.rows) == 300
        assert len(DATA.notes) == 6

    def test_families_have_consistent_a3(self):
        from wfano.wps import anticanonical_degree
        for rec in DATA.families:
            assert rec.A3 == anticanonical_degree(rec.family)

    def test_list_typos(self):
        # the notes keep the printed weights; families.tsv lists the
        # corrected ones
        notes = {n.no: n for n in DATA.notes if n.kind == "list_typo"}
        assert sorted(notes) == [45, 93]
        assert (notes[45].printed, notes[45].corrected) == (
            "1,3,4,5,89", "1,3,4,5,8")
        assert DATA.family(45).w == (1, 3, 4, 5, 8)
        assert (notes[93].printed, notes[93].corrected) == (
            "1,3,5,16,24", "1,7,8,10,25")
        assert DATA.family(93).w == (1, 7, 8, 10, 25)

    def test_type_corrections_applied(self):
        row35 = DATA.rows_for(35, "OzOw")[0]
        (note,) = [n for n in DATA.notes
                   if (n.no, n.point, n.kind) == (35, "OzOw", "type_typo")]
        assert note.printed == "1/2(1_x,1_y,1_t)"
        assert row35.type_str == "1/3(1_x,1_y,2_t)"
        assert row35.r == 3 and row35.corrected
        row74 = DATA.rows_for(74, "Ow")[0]
        assert row74.type_str == "1/13(1,3,10)" and row74.corrected

    def test_surface_correction_applied(self):
        row = next(r for r in DATA.rows_for(40, "Oz")
                   if ("a1", "zero") in r.condition)
        (note,) = [n for n in DATA.notes if n.kind == "surface_typo"]
        assert (note.no, note.point, note.printed) == (40, "Oz", "x^3, z")
        assert (0, 1, 0, 0, 0) in {m for gen in row.surface for m in gen}
        # `corrected` is about the type, which this row prints right
        assert not row.corrected

    def test_defect_flag(self):
        row = DATA.rows_for(52, "Oz")[0]
        assert row.defect.kind == "certificate_defect"
        assert row.defect.field == "inequality"
        assert sum(1 for r in DATA.rows if r.defect) == 1

    def test_every_row_parses_completely(self):
        for row in DATA.rows:
            assert row.normalized[0] == 1
            assert (row.normalized[1] + row.normalized[2]) % row.r == 0
            if row.method in ("B", "N", "S", "F", "P"):
                assert row.linsys is not None
                assert row.vanishing
                assert row.b3_sign in ("+", "0", "-")
            else:
                assert row.kind == "untwist"

    def test_point_and_witness_are_parsed_at_load(self):
        from wfano.exactmath import COORDS
        for row in DATA.rows:
            assert "".join("O" + COORDS[i]
                           for i in row.location[1:]) == row.point
        assert DATA.rows_for(95, "Oy")[0].location == ("vertex", 1)
        assert DATA.rows_for(95, "OtOw")[0].location == ("edge", 3, 4)
        (row,) = DATA.rows_for(2, "Ow")
        assert row.witness_raw == "tw^2"
        assert row.witness == ((0, 0, 0, 1, 2),)

    def test_row_counts_by_method(self):
        from collections import Counter
        counts = Counter(r.method for r in DATA.rows)
        assert counts == {"B": 155, "N": 32, "S": 23, "F": 10, "P": 16,
                          "TAU": 45, "TAU1": 9, "EPS": 6, "EPS1": 1,
                          "EPS2": 1, "IOTA": 1, "IOTA1": 1}

    def test_each_header_names_exactly_the_columns_load_reads(self):
        # a column that `load` does not read is dead or repeats another
        src = resources.files("wfano") / "data"
        for name, columns in golden._COLUMNS.items():
            header = (src / name).read_text("utf-8").split("\n", 1)[0]
            assert sorted(header.split("\t")) == sorted(columns), name


def outcome(parse, text):
    """('value', what `parse` returns) or ('error', its ValueError text)."""
    try:
        return "value", parse(text)
    except ValueError as exc:
        return "error", str(exc)


def regex_parse_monomials(text):
    return tuple(regex_parse_poly(regex_strip_coefficients(text)))


# Each parser next to the regular-expression grammar it replaced.  The
# memoized parsers are called through `__wrapped__`, so the drawn texts do
# not fill their caches.
PARSERS = {
    "parse_poly": (parse_poly, regex_parse_poly),
    "strip": (golden._strip_coefficients, regex_strip_coefficients),
    "parse_monomials": (parse_monomials.__wrapped__, regex_parse_monomials),
    "parse_type": (parse_type, regex_parse_type),
    "parse_linear_system": (parse_linear_system.__wrapped__,
                            regex_parse_linear_system),
}
# a non-ASCII decimal digit, which `\d` matches; a superscript digit, which
# it does not; two non-ASCII spaces, which `\s` matches; a non-ASCII letter,
# which `\w` matches; and a line break, which `.` does not
ODD = ["\u0663", "\u00b2", "\u00a0", "\u3000", "\u00e9", "\n", "\t"]


def edits(text, alphabet):
    """Every text one character away from `text`: one character of the
    alphabet or of `ODD` inserted, or put in place of one character."""
    for at in range(len(text) + 1):
        for char in [*alphabet, *ODD]:
            yield text[:at] + char + text[at:]
            yield text[:at] + char + text[at + 1:]


@st.composite
def near(draw, examples, alphabet):
    """One of the example texts with one to four characters inserted or
    replaced, each from the alphabet or `ODD`."""
    text = draw(st.sampled_from(examples))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        text = (text[:at] + draw(st.sampled_from([*ODD, *alphabet]))
                + text[at + draw(st.integers(0, 1)):])
    return text


def pieces(*tokens):
    """Texts made of the tokens and the `ODD` characters."""
    return st.lists(st.sampled_from([*tokens, *ODD]),
                    max_size=10).map("".join)


POLY = "xyztw+-*^ 0123456789"
# per parser: well-formed and nearly well-formed texts, the characters of
# its grammar, and tokens to build texts from
GRAMMARS = {
    "parse_poly": (
        ["3*x^2*y", "x", "-y + 2 z^3", "12xy^3z", "* 2 * x ^0 *",
         "t*w^2 + y^2*w^2+ y*t^3 - 3*y^3*t^2", "w-w", "x++y"],
        POLY, [*POLY, "q", "x^2", "12"]),
    "strip": (
        ["y-alpha_iz", "z-alpha_i y^2", "betalpha", "mu_1lambda_x",
         "alpha_", "alpha__", "lambdalpha_z"],
        "abelmpu_iz ", ["alpha", "beta", "lambda", "mu", "_", "i", "z", "y",
                        "lpha", "a", "l", "m", "u", " ", "-", "^2"]),
    "parse_monomials": (
        ["z-alpha_i y^2", "y-alpha_iz", "x^2-beta_1 t", "mu z^3w"],
        POLY + "albe_", ["alpha", "beta", "lambda", "mu", "_", "i", *POLY,
                         "x^2"]),
    "parse_type": (
        ["1/3(1_x,2_y,1_t)", "1/4(1,3,1)", "1/12(1,5,7)", "1 / 2 (1, 1, 1)"],
        "0123456789/(),_xyztw ", ["1/", "1", "0", "3", "12", "/", "(", ")",
                                  ",", "_", "x", "y", "z", "t", "w", " "]),
    "parse_linear_system": (
        ["5B+2E", "B-E", "B", "12B+E", "3B - 10E"],
        "0123456789BE+- ", [*"0123456789BE+- ", "5B", "+2E", "-E"]),
}


class TestParsersMatchTheirRegexGrammars:
    @pytest.mark.parametrize("name", PARSERS)
    def test_on_each_text_one_character_off_an_example(self, name):
        new, old = PARSERS[name]
        examples, alphabet, _tokens = GRAMMARS[name]
        for text in {t for example in examples
                     for t in edits(example, alphabet)}:
            assert outcome(new, text) == outcome(old, text), text

    @pytest.mark.parametrize("name", PARSERS)
    @settings(max_examples=300)
    @given(data=st.data())
    def test_on_drawn_text(self, name, data):
        examples, alphabet, tokens = GRAMMARS[name]
        text = data.draw(st.one_of(near(examples, alphabet), pieces(*tokens),
                                   st.text(max_size=8)), label="text")
        new, old = PARSERS[name]
        assert outcome(new, text) == outcome(old, text)

    def test_on_every_cell_of_the_packaged_tables(self):
        src = resources.files("wfano") / "data"
        cells = set()
        for name in ("families.tsv", "golden_tables.tsv",
                     "golden_notes.tsv"):
            for line in (src / name).read_text("utf-8").splitlines():
                cells.update(line.split("\t"))
        # the polynomial cells hold lists, split as `load` splits them
        cells.update(part for cell in set(cells)
                     for comma in cell.split(",")
                     for part in comma.split(" or "))
        assert len(cells) > 500
        for text in sorted(cells):
            for new, old in PARSERS.values():
                assert outcome(new, text) == outcome(old, text), text


class TestVariantMatching:
    def test_generic_default(self):
        rows = match_rows(DATA, 23, "Oz", {})
        assert len(rows) == 1
        assert rows[0].method == "B"

    def test_invisible_variant(self):
        rows = match_rows(DATA, 23, "Oz", {"a1": "zero", "c": "zero"})
        assert len(rows) == 1 and rows[0].method == "IOTA1"

    def test_every_generic_assignment_is_unique(self):
        for rec in DATA.families:
            no = rec.family.entry_no
            for point in DATA.points_of(no):
                rows = match_rows(DATA, no, point, {})
                assert len(rows) == 1, (no, point, len(rows))

    def test_unknown_flag_raises(self):
        with pytest.raises(UnknownVariantFlag, match="no condition flag "
                                                     "'bogus'"):
            build_report(23, {"bogus": "zero"}, DATA)

    def test_an_unnamed_atom_reads_its_generic_value(self):
        assert holds(parse_condition("a_1!=0"), {})
        assert not holds(parse_condition("a_1=0"), {})
        assert holds(parse_condition("Type I"), {})
        assert not holds(parse_condition("Type II"), {"c": "zero"})

    def test_a_named_atom_overrides_its_generic_value(self):
        assert holds(parse_condition("a_1=c=0"), {"a1": "zero", "c": "zero"})
        assert not holds(parse_condition("a_1=c=0"), {"a1": "zero"})
        assert not holds(parse_condition("a_1!=0"), {"a1": "zero"})
        assert holds(parse_condition("Type II"), {"type": "II"})

    def test_type_flag(self):
        rows = match_rows(DATA, 7, "OzOt", {"type": "II"})
        assert len(rows) == 1 and rows[0].method == "IOTA"


def golden_copy(tmp_path, edit):
    """A copy of the packaged dataset with each file's text run through
    `edit`, written byte for byte."""
    src = resources.files("wfano") / "data"
    for name in ("families.tsv", "golden_tables.tsv", "golden_notes.tsv"):
        text = (src / name).read_text("utf-8")
        (tmp_path / name).write_bytes(edit(text).encode("utf-8"))
    return tmp_path


class TestOverride:
    def test_custom_dataset_dir(self, tmp_path):
        d2 = golden.load(golden_copy(tmp_path, lambda text: text))
        assert len(d2.rows) == len(DATA.rows)

    @pytest.mark.parametrize("edit", [
        lambda text: "\ufeff" + text,
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\n\n"),
        lambda text: text + "\n\n\n",
    ], ids=["byte-order-mark", "crlf", "blank-lines-between-rows",
            "blank-lines-at-end"])
    def test_equivalent_copies_load_equal(self, tmp_path, edit):
        # a `Family` compares by identity, so compare the reprs
        copy = golden.load(golden_copy(tmp_path, edit))
        assert (repr((copy.families, copy.rows, copy.notes))
                == repr((DATA.families, DATA.rows, DATA.notes)))

    def test_a_quote_is_part_of_its_cell(self, tmp_path):
        note = DATA.notes[0].note
        path = golden_copy(tmp_path, lambda text: text.replace(
            f"\t{note}\n", f'\t"{note}"\n', 1))
        assert golden.load(path).notes[0].note == f'"{note}"'
