"""Every name that the benchmark scripts take from wfano resolves.

The scripts under `perfbench/` import the package by name (`import
wfano.cli`, `from wfano.wps import COORDS`) and read attributes through
it (`wfano.cli.main`).  No other test runs them, so a refactor that drops
or moves one of those names would break the benchmark unseen; this test
reads the names off the scripts' syntax trees and looks each one up.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _dotted(node):
    """('a', ['b', 'c']) for the attribute read a.b.c, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.insert(0, node.attr)
        node = node.value
    return (node.id, attrs) if isinstance(node, ast.Name) else None


def wfano_names(path):
    """(line, dotted name) of each wfano module or attribute that the file
    imports, or reads through a name that an import of wfano binds."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}  # local name -> the wfano name an import binds to it
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            pairs = [(a.asname or a.name, f"{node.module}.{a.name}")
                     for a in node.names]
        elif isinstance(node, ast.Import):
            # `import wfano.cli` binds wfano, `import wfano.cli as c` binds c
            found += [(node.lineno, a.name) for a in node.names]
            pairs = [(a.asname, a.name) if a.asname
                     else (a.name.split(".")[0],) * 2 for a in node.names]
        else:
            continue
        for local, name in pairs:
            if name.split(".")[0] == "wfano":
                bound[local] = name
                found.append((node.lineno, name))
    for node in ast.walk(tree):
        read = _dotted(node) if isinstance(node, ast.Attribute) else None
        if read and read[0] in bound:
            found.append((node.lineno, ".".join([bound[read[0]], *read[1]])))
    return [(line, name) for line, name in found
            if name.split(".")[0] == "wfano"]


def resolves(name):
    """Whether the dotted name is a module or attribute of the package."""
    parts = name.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            try:
                obj = importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
    return True


def test_every_wfano_name_the_benchmark_reads_resolves():
    names = [(path.name, line, name)
             for path in sorted(PERFBENCH.glob("*.py"))
             for line, name in wfano_names(path)]
    assert {"record_refs.py", "child.py"} <= {file for file, *_ in names}
    assert [f"{file}:{line}: {name}" for file, line, name in names
            if not resolves(name)] == []
