"""Exact arithmetic, monomial enumeration, and series elimination."""

import ast
import importlib.util
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given, settings, strategies as st

import wfano
from wfano.exactmath import (NoEliminatingMonomial, OVERCUTOFF,
                             implicit_eliminate, parse_poly, series_order)

from oracles import weighted_monomials

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def brute_monomials(weights, d, variables=None):
    """Independent five-fold loop enumeration."""
    out = set()
    allowed = set(range(5)) if variables is None else set(variables)
    bound = [d // w if i in allowed else 0 for i, w in enumerate(weights)]
    for e0 in range(bound[0] + 1):
        for e1 in range(bound[1] + 1):
            for e2 in range(bound[2] + 1):
                for e3 in range(bound[3] + 1):
                    for e4 in range(bound[4] + 1):
                        e = (e0, e1, e2, e3, e4)
                        if sum(x * w for x, w in zip(e, weights)) == d:
                            out.add(e)
    return out


def supported_in(monomials, variables):
    """The monomials whose exponents vanish outside the given coordinates."""
    return {m for m in monomials
            if all(e == 0 for i, e in enumerate(m) if i not in variables)}


class TestWeightedMonomials:
    def test_degree8_zt_slice(self):
        # frozen from the brute-force oracle below
        got = supported_in(weighted_monomials((1, 1, 2, 2, 3), 8), {2, 3})
        assert got == {(0, 0, 4, 0, 0), (0, 0, 3, 1, 0), (0, 0, 2, 2, 0),
                       (0, 0, 1, 3, 0), (0, 0, 0, 4, 0)}

    def test_degree12_tw_slice(self):
        got = supported_in(weighted_monomials((1, 1, 1, 4, 6), 12), {3, 4})
        assert got == {(0, 0, 0, 3, 0), (0, 0, 0, 0, 2)}

    def test_degree_zero(self):
        assert weighted_monomials((1, 1, 1, 1, 1), 0) == {(0, 0, 0, 0, 0)}

    @pytest.mark.parametrize("weights,d,variables", [
        ((1, 1, 2, 2, 3), 8, None),
        ((1, 2, 3, 4, 5), 10, None),
        ((1, 1, 2, 2, 3), 8, {2, 3}),
        ((1, 3, 4, 5, 8), 20, {1, 2, 4}),
    ])
    def test_against_brute_force(self, weights, d, variables):
        got = weighted_monomials(weights, d)
        if variables is not None:
            got = supported_in(got, variables)
        assert got == brute_monomials(weights, d, variables)


class TestParse:
    def test_basic(self):
        assert parse_poly("y*z+x*t") == {
            (0, 1, 1, 0, 0): 1, (1, 0, 0, 1, 0): 1}

    def test_coefficients_and_powers(self):
        p = parse_poly("3x^2y - 2*w + 7")
        assert p == {(2, 1, 0, 0, 0): 3, (0, 0, 0, 0, 1): -2,
                     (0, 0, 0, 0, 0): 7}
        assert all(type(c) is int for c in p.values())

    def test_whitespace_and_caret_one(self):
        assert parse_poly(" x^1 * w ") == {(1, 0, 0, 0, 1): 1}

    def test_cancellation(self):
        assert parse_poly("x - x") == {}

    def test_rejects_garbage(self):
        # unknown symbol, dangling signs, integers after a factor or twice
        for text in ("x + q", "x +", "x - - y", "x 2", "x^2 3", "2 3x", "x^"):
            with pytest.raises(ValueError):
                parse_poly(text)


class TestRatInvariants:
    @given(st.integers(min_value=-10**9, max_value=10**9).filter(bool),
           st.integers(min_value=1, max_value=10**9))
    def test_round_trip(self, p, q):
        x = Fraction(p, q)
        assert x * Fraction(q, p) == 1

    @given(st.integers(min_value=-10**6, max_value=10**6),
           st.integers(min_value=-10**6, max_value=10**6).filter(bool))
    def test_canonical_form(self, p, q):
        from math import gcd
        x = Fraction(p, q)
        assert x.denominator > 0
        assert gcd(x.numerator, x.denominator) == 1


# the special degree-14 member of the family No. 23 used throughout:
# (t + y^2) w^2 + y t (t - y^2)(t - 2 y^2) + z^4 y + x t z^3
SPECIAL_23 = parse_poly(
    "t*w^2 + y^2*w^2 + y*t^3 - 3*y^3*t^2 + 2*y^5*t + z^4*y + x*t*z^3")
# chart z = 1, eliminate y; local parameters x, t, w with residues 1, 1, 2
CHART_23 = dict(chart_vertex=2, eliminated=1, local_weights=(1, 1, 2))


class TestImplicitEliminate:
    def test_monomial_alone_gives_zero_series(self):
        s = implicit_eliminate({(0, 1, 3, 0, 0): Fraction(1)},
                               chart_vertex=2, eliminated=1,
                               local_weights=(1, 1, 2), cutoff=8)
        assert s.terms == {}
        assert s.parts == [{}] * 8

    def test_hand_substitution(self):
        # z*w + x^2 = 0 in the chart z = 1 gives w = -x^2
        f = parse_poly("z*w + x^2")
        s = implicit_eliminate(f, chart_vertex=2, eliminated=4,
                               local_weights=(1, 1, 1), cutoff=5)
        assert dict(s.terms) == {(2, 0, 0): Fraction(-1)}

    def test_special_member_lowest_term(self):
        s = implicit_eliminate(SPECIAL_23, cutoff=6, **CHART_23)
        assert s.parts[:2] == [{}, {}] and s.parts[2]
        # leading term is -x*t in the local parameters (x, t, w)
        assert s.terms[(1, 1, 0)] == Fraction(-1)

    def test_resubstitution_vanishes_below_cutoff(self):
        for cutoff in (6, 9, 12):
            assert order_23(SPECIAL_23, cutoff) is OVERCUTOFF

    def test_no_eliminating_monomial(self):
        with pytest.raises(NoEliminatingMonomial):
            implicit_eliminate(parse_poly("z^2*w^2 + x^4"),
                               chart_vertex=2, eliminated=4,
                               local_weights=(1, 1, 1), cutoff=4)

    def test_chart_off_hypersurface(self):
        with pytest.raises(ValueError):
            implicit_eliminate(parse_poly("z^3 + z*w"),
                               chart_vertex=2, eliminated=4,
                               local_weights=(1, 1, 1), cutoff=4)

    @pytest.mark.parametrize("weights,cutoff,message", [
        ((1, 1, 1), 0, "cutoff must be positive"),
        ((0, 1, 1), 4, "local_weights must be three positive integers"),
    ])
    def test_bad_arguments(self, weights, cutoff, message):
        with pytest.raises(ValueError, match=message):
            implicit_eliminate(parse_poly("z*w + x^2"), chart_vertex=2,
                               eliminated=4, local_weights=weights,
                               cutoff=cutoff)

    def test_missing_linear_term_outranks_constant_term(self):
        # z^3 is a constant on the chart z = 1, but the missing z^k*w is
        # reported first
        with pytest.raises(NoEliminatingMonomial):
            implicit_eliminate(parse_poly("z^3 + z^2*w^2 + x^4"),
                               chart_vertex=2, eliminated=4,
                               local_weights=(1, 1, 1), cutoff=4)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_supports_resubstitute_to_zero(self, data):
        # chart z = 1, eliminate w, local parameters x, y, t
        weights = tuple(data.draw(
            st.integers(min_value=1, max_value=4), label=f"w{i}")
            for i in range(3))
        support = {(0, 0, 1, 0, 1): Fraction(data.draw(
            st.integers(min_value=1, max_value=9), label="unit"))}
        n_terms = data.draw(st.integers(min_value=0, max_value=6))
        for k in range(n_terms):
            exps = (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)),
                    data.draw(st.integers(0, 2)), data.draw(st.integers(0, 3)),
                    data.draw(st.integers(0, 2)))
            if exps[0] + exps[1] + exps[3] + exps[4] == 0:
                continue  # would put the chart vertex off the surface
            c = Fraction(data.draw(st.integers(-9, 9)))
            if c:
                support[exps] = support.get(exps, Fraction(0)) + c
        # on the chart z = 1 every z^k*w term adds to the eliminating one
        if sum(c for e, c in support.items()
               if (e[0], e[1], e[3], e[4]) == (0, 0, 0, 1)) == 0:
            return
        cutoff = 10
        series = implicit_eliminate(support, chart_vertex=2, eliminated=4,
                                    local_weights=weights, cutoff=cutoff)
        assert substituted_order(support, series, weights, cutoff) is None
        assert series_order(support, support, 2, 4, weights, cutoff,
                            r=1) is OVERCUTOFF
        assert len(series.parts) == cutoff and series.parts[0] == {}
        for deg, part in enumerate(series.parts):
            for exps, c in part.items():
                assert sum(e * w for e, w in zip(exps, weights)) == deg
                assert c != 0

        # the one-pass order agrees with substituting the solved series
        g = {}
        for _ in range(data.draw(st.integers(0, 4), label="g_terms")):
            exps = tuple(data.draw(st.integers(0, 3)) for _ in range(5))
            g[exps] = g.get(exps, 0) + data.draw(st.integers(-9, 9))
        if data.draw(st.booleans(), label="g_plus_member"):
            for exps, c in support.items():
                g[exps] = g.get(exps, 0) + c
        g = {e: Fraction(c) for e, c in g.items() if c} or dict(support)
        expected = substituted_order(g, series, weights, cutoff)
        got = series_order(g, support, 2, 4, weights, cutoff, r=1)
        if expected is None:
            assert got is OVERCUTOFF
        else:
            assert got == expected
        if got is not OVERCUTOFF:
            assert series_order(g, support, 2, 4, weights, 2 * cutoff,
                                r=1) == got

    def test_single_minimal_monomial_is_exact(self):
        # a unique minimal-order monomial in the local parameters cannot
        # cancel, so the naive residue bound is attained
        g = parse_poly("x*t + w^2 + x^5")      # orders 2, 4, 5
        assert order_23(g) == Fraction(2, 3)


def substituted_order(g, series, weights, cutoff):
    """First surviving degree of g on the chart z = 1 with w := series, in
    the local weights of x, y, t, expanded by plain truncated products;
    None if nothing survives."""
    def degree(exps):
        return sum(e * w for e, w in zip(exps, weights))

    def times(p, q):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if degree(e) < cutoff:
                    out[e] = out.get(e, 0) + c1 * c2
        return out

    total = {}
    for (ex, ey, _ez, et, ew), c in g.items():
        term = {(ex, ey, et): c} if degree((ex, ey, et)) < cutoff else {}
        for _ in range(ew):
            term = times(term, series.terms)
        for e, v in term.items():
            total[e] = total.get(e, 0) + v
    return min((degree(e) for e, v in total.items() if v), default=None)


def order_23(g, cutoff=12):
    """Order of g at O_z of the special member of No. 23, r = 3."""
    return series_order(g, SPECIAL_23, cutoff=cutoff, r=3, **CHART_23)


class TestSeriesOrder:

    def test_order_of_y(self):
        assert order_23(parse_poly("y")) == Fraction(2, 3)

    def test_order_with_cancellation(self):
        assert order_23(parse_poly("y*z + x*t")) == Fraction(5, 3)

    def test_order_of_local_parameter(self):
        assert order_23(parse_poly("x")) == Fraction(1, 3)
        assert order_23(parse_poly("w")) == Fraction(2, 3)

    def test_member_itself_cancels(self):
        assert order_23(SPECIAL_23) is OVERCUTOFF

    def test_zero_polynomial(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            order_23({})

    def test_naive_lower_bound(self):
        import random
        rng = random.Random(7)
        residues = {0: 1, 1: 2, 3: 1, 4: 2}  # weights mod 3, z excluded
        pool = [(e0, e1, e2, e3, e4)
                for e0 in range(3) for e1 in range(3) for e2 in range(2)
                for e3 in range(3) for e4 in range(3)
                if 0 < e0 + e1 + e2 + e3 + e4 <= 5]
        for _ in range(100):
            monos = rng.sample(pool, rng.randint(1, 4))
            g = {m: Fraction(rng.randint(1, 9)) for m in monos}
            naive = min(sum(e * residues.get(i, 0) for i, e in enumerate(m))
                        for m in monos)
            got = order_23(g)
            if got is not OVERCUTOFF:
                assert Fraction(naive, 3) <= got


INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def test_source_has_no_floating_point():
    """No float literal, no float() or round(), and only integer functions
    from math anywhere in the package: the arithmetic stays exact."""
    sources = sorted(Path(wfano.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), where
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("float", "round"), where
            elif isinstance(node, ast.Import):
                assert "math" not in {a.name for a in node.names}, where
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                assert {a.name for a in node.names} <= INTEGER_MATH, where


def test_source_parses_as_python_3_10():
    """The package keeps `requires-python >= 3.10`: no module uses syntax
    that a 3.10 parser rejects."""
    sources = sorted(Path(wfano.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_source_has_no_assert_statement():
    """Every check in the package raises a named exception: `python -O`
    strips `assert` statements, and the check with them."""
    sources = sorted(Path(wfano.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_the_package_binds_no_name_but_its_docstring():
    """`wfano/__init__.py` re-exports nothing: each name is imported from
    the one module that defines it."""
    path = Path(wfano.__file__)
    body = ast.parse(path.read_text(), str(path)).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value.value, str)


def test_import_as_gives_each_module():
    """`import wfano.<m> as x` binds the module: no package attribute of
    the same name shadows it, as a re-exported `census` function did."""
    names = sorted(path.stem for path in Path(wfano.__file__).parent.glob(
        "*.py") if path.stem != "__init__")
    assert len(names) > 5
    for name in names:
        namespace = {}
        exec(f"import wfano.{name} as x", namespace)
        assert isinstance(namespace["x"], ModuleType), name


def test_every_top_level_name_has_a_caller_in_the_package():
    """Each top-level def, class and assigned name of a package module is
    read by package code (a load, an attribute or an import); a test oracle
    lives in `tests/oracles.py` instead.  A name that is only raised, as in
    `raise X` or `raise X(...)`, is not read: an exception type that no
    `except` clause or error tuple names adds nothing to the error it
    subclasses.  The names that the benchmark's tracer wraps are exempt."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    defined, read = set(), set()
    for path in Path(wfano.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined.update((path.stem, n.id) for t in targets
                               for n in ast.walk(t) if isinstance(n, ast.Name))
        raised = {id(node.exc.func if isinstance(node.exc, ast.Call)
                     else node.exc)
                  for node in ast.walk(tree) if isinstance(node, ast.Raise)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and id(node) not in raised):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    uncalled = sorted(name for _, name in defined - set(tracing.TARGETS)
                      if name not in read)
    assert uncalled == []


def _record_fields(call):
    """(record name, field names) of a `namedtuple("X", fields)` call,
    whose fields are one string or a tuple or list of strings; else None."""
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "namedtuple" and len(call.args) == 2):
        return None
    name, fields = call.args
    if isinstance(fields, ast.Constant):
        names = fields.value.replace(",", " ").split()
    else:
        names = [item.value for item in fields.elts]
    return name.value, names


def _traced_result_reads():
    """The attributes that the benchmark tracer's `Tracer.observe` reads
    off the value a traced call returns, its last parameter."""
    tree = ast.parse(TRACING.read_text(), str(TRACING))
    (observe,) = [item for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Tracer"
                  for item in node.body
                  if isinstance(item, ast.FunctionDef)
                  and item.name == "observe"]
    result = observe.args.args[-1].arg
    return {node.attr for node in ast.walk(observe)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == result}


def test_every_class_member_is_read_in_the_package():
    """Each record field and each method or property, dunders aside, of a
    package class is read by package code as an attribute: a member that
    only the tests read is dead weight.  The fields are read off each
    `namedtuple` call, the methods off each class body.  A read by name
    does not count, as a local of the same name would pass the member
    (`FamilyRecord.A3` passed through a local `A3`, `Series.terms` through
    a local `terms`), with two exceptions: a method that its own class
    body names, as `Family` binds `_frozen` to `__setattr__`, and one that
    the benchmark tracer reads off a traced result.  The rule matches
    member names only, so a read of a same-named attribute elsewhere
    counts: `Census.family` passed while only `FamilyRecord.family` was
    read, and `Series.weights` while only `args.weights` was."""
    fields, methods, attrs, named_in_class = set(), set(), set(), set()
    for path in Path(wfano.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            record = _record_fields(node)
            if record:
                fields.update((record[0], field) for field in record[1])
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")):
                        methods.add((node.name, item.name))
                named_in_class.update(
                    (node.name, n.id) for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Load):
                attrs.add(node.attr)
    # the 53 fields of the 10 records, their 7 methods and properties, and
    # the 6 methods of `Family` and `GoldenData`
    assert (len(fields), len(methods)) == (53, 13)
    assert sorted(f"{cls}.{name}" for cls, name in fields
                  if name not in attrs) == []
    traced = _traced_result_reads()
    assert sorted(f"{cls}.{name}" for cls, name in methods
                  if name not in attrs | traced
                  and (cls, name) not in named_in_class) == []
