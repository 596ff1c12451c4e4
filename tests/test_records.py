"""The record types: immutable, and printed as before."""

from fractions import Fraction

import pytest

from wfano import golden
from wfano.blowup import B, format_class
from wfano.census import census
from wfano.rigidity import (certify_row, curve_status, involution_case,
                            smooth_point_status)
from wfano.wps import Family, general_quasismooth

from oracles import E


def _records():
    """One record of each type, with a field to try to overwrite."""
    data = golden.data()
    f = data.family(95)
    cens = census(f)
    row = data.rows_for(23, "Oz")[0]
    f23 = data.family(23)
    cert = certify_row(f23, row, census(f23).entries)
    return [
        (f, "w"), (data.families[94], "A3"), (data.notes[0], "note"),
        (row, "method"), (cert, "checks"), (cert.checks[0], "passed"),
        (cens, "entries"), (cens.entries[0], "r"),
        (smooth_point_status(f), "kind"), (curve_status(f), "kind"),
        (involution_case(f23, "Oz", {"a1": "zero", "c": "zero"}), "label"),
        (general_quasismooth(f), "ok"),
    ]


RECORDS = _records()


@pytest.mark.parametrize("record,field", RECORDS,
                         ids=[type(r).__name__ for r, _field in RECORDS])
def test_records_are_immutable(record, field):
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value


def test_str_and_repr_are_unchanged():
    data = golden.data()
    f95 = data.family(95)
    assert str(f95) == "No. 95: X_66 in P(1, 5, 6, 22, 33)"
    assert str(Family.of(1, 1, 1, 1)) == "X_4 in P(1, 1, 1, 1, 1)"
    assert repr(f95) == "Family(w=(1, 5, 6, 22, 33), entry_no=95, d=66)"
    assert [str(e) for e in census(f95).entries] == [
        "Oy = 1/5(1, 2, 3)", "OzOt = 1/2(1, 1, 1)", "OzOw = 1/3(1, 2, 1)",
        "OtOw = 1/11(1, 5, 6)"]
    assert [str(e) for e in census(data.family(7)).entries] == [
        "Ow = 1/3(1, 1, 2)", "OzOt = 4x1/2(1, 1, 1)"]
    assert repr(census(f95).entries[0]) == (
        "QuotientSingularity(r=5, type_=(1, 2, 3), location=('vertex', 1), "
        "count=1, local_params=(0, 3, 4), residues=(1, 2, 3), eliminated=2)")
    classes = (B, E, (1, -1), (2, 3), (3, -2), (5, 0), (1, 1))
    for num in (int, Fraction):
        assert [format_class(num(b), num(e)) for b, e in classes] == [
            "B", "0B+E", "B-E", "2B+3E", "3B-2E", "5B", "B+E"]
