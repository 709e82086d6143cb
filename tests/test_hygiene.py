"""Source hygiene: no module of the package imports a name it never
uses, and no module-level definition lacks a caller.  Stdlib ``ast``
scans and word matching, so it needs no linter."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "voasurf"


def unused_imports(path: Path) -> list:
    """Names bound by module-level imports of ``path`` that nothing in
    the module reads and ``__all__`` does not export."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def word_lines(paths) -> dict:
    """Each identifier-like word -> the set of (path, line) naming it."""
    found = defaultdict(set)
    for path in paths:
        for i, line in enumerate(path.read_text().splitlines(), 1):
            for word in re.findall(r"\w+", line):
                found[word].add((path, i))
    return found


def dead_definitions() -> list:
    """Module-level functions and classes of the package that nothing
    outside their own body names.  A private one needs a reference
    elsewhere in the package; a public one may also be named by the
    tests or the benchmark."""
    sources = sorted(SRC.glob("*.py"))
    in_src = word_lines(sources)
    outside = {word for top in ("tests", "bench")
               for path in (ROOT / top).rglob("*.py")
               for word in re.findall(r"\w+", path.read_text())}
    dead = []
    for path in sources:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            body = {(path, i) for i in range(node.lineno, node.end_lineno + 1)}
            public = not node.name.startswith("_")
            if not in_src[node.name] - body and not (
                    public and node.name in outside):
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    return dead


def test_every_definition_has_a_caller():
    assert dead_definitions() == []
