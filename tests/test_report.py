"""`report.to_json`: the text of `json.dumps(obj, indent=2)`."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wfano import cli, golden, report
from wfano.report import to_json

from test_cli import report_variants

# strings with quotes, backslashes, control characters and non-ASCII
texts = st.text(alphabet=st.one_of(
    st.characters(), st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f é')),
    max_size=8)
scalars = st.one_of(st.none(), st.booleans(), texts,
                    st.integers(-2**200, 2**200))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(texts, inner, max_size=4)),
    max_leaves=25)


@given(values)
@settings(max_examples=300)
def test_matches_json_dumps(obj):
    assert to_json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [{}, [], (), {"a": {}, "b": [[]]}, "",
                                 -(10 ** 30)])
def test_empty_containers_and_edge_scalars(obj):
    assert to_json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [Fraction(1, 2), 0.5, {1, 2}, {1: "a"},
                                 {"a": [Fraction(1, 3)]}, [{"b": 1.0}]])
def test_other_types_raise(obj):
    with pytest.raises(TypeError):
        to_json(obj)


def cli_payloads():
    """Every argv whose JSON the CLI prints for the 95 families: each
    report under every variant combination of its condition atoms, each
    census and search, `check-tables` and `enumerate`."""
    data = golden.data()
    argvs = [["check-tables", "--json"], ["enumerate", "--json"]]
    for rec in data.families:
        no = str(rec.family.entry_no)
        argvs += [["census", no, "--json"],
                  ["search", ",".join(map(str, rec.family.w[1:])), "--json"]]
    argvs += [["report", str(no), "--json"]
              + (["--variant", variant] if variant else [])
              for no, variant in report_variants()]
    return argvs


def test_cli_payloads_match_json_dumps(monkeypatch):
    payloads = []
    write = report.to_json

    def recording(obj):
        payloads.append(obj)
        return write(obj)

    monkeypatch.setattr(report, "to_json", recording)
    argvs = cli_payloads()
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert len(payloads) == len(argvs)
    for obj in payloads:
        assert write(obj) == json.dumps(obj, indent=2)
