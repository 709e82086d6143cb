"""Source hygiene: no module of the package or the tests, nor any
function in them, imports a name it never uses, no package module wraps
an int literal or a (-1) ** k sign in a one-argument ``Fraction``,
no module-level
definition lacks a caller in the package or the benchmark (bar the few
functions listed in KEPT_FOR_TESTS), no method or property goes unread
there, no defaulted parameter keeps its
default at every call in the package and the benchmark, and no record
field goes unread there.  The tests never count as callers, setters or
readers: an option or a field that only a test uses is not part of the
library.  Stdlib ``ast`` scans (and word matching for the benchmark's
string targets), so it needs no linter."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "voasurf"


def _imports(nodes) -> dict:
    """The name each import among ``nodes`` binds, with its line."""
    bound = {}
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def _own_nodes(fn):
    """Every node in a function's body but those of functions nested
    in it, which are scopes of their own."""
    for child in ast.iter_child_nodes(fn):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _own_nodes(child)


def unused_imports(path: Path) -> list:
    """Names bound by imports of ``path`` that nothing in their scope
    reads: module-level imports against the whole module and
    ``__all__``, and each function's own imports against the names
    that function, nested functions included, reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    unused = [(line, name) for name, line in _imports(tree.body).items()
              if name not in used]
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            unused += [(line, name)
                       for name, line in _imports(_own_nodes(fn)).items()
                       if name not in read]
    return sorted(f"{path.name}:{line} {name}" for line, name in unused)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py"))
                         + sorted((ROOT / "tests").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_unused_function_imports_are_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\n"
                    "def f():\n"
                    "    import json\n"
                    "    from sys import argv, path\n"
                    "    def g():\n"
                    "        import re\n"
                    "        return argv\n"
                    "    return os.sep, g\n")
    assert unused_imports(path) == ["sample.py:3 json", "sample.py:4 path",
                                    "sample.py:6 re"]


def _int_literal(node) -> bool:
    """An int literal, negated or not."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _sign_power(node) -> bool:
    """A (-1) ** k power, alone or as a factor of a product."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Mult):
        return _sign_power(node.left) or _sign_power(node.right)
    base = node.left
    return isinstance(node.op, ast.Pow) and _int_literal(base) and (
        isinstance(base, ast.UnaryOp) and base.operand.value == 1
        or isinstance(base, ast.Constant) and base.value == -1)


def integral_fractions(path: Path) -> list:
    """One-argument ``Fraction(...)`` calls in ``path`` on an int
    literal, a negated one, or a (-1) ** k sign: ``series.rat`` keeps an
    integral value an int, so such a wrapper only makes a Fraction of
    an integer."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _name(node) == "Fraction"
            and len(node.args) == 1 and not node.keywords
            and (_int_literal(node.args[0]) or _sign_power(node.args[0]))]


def test_no_integer_is_wrapped_in_a_fraction():
    assert [hit for path in sorted(SRC.glob("*.py"))
            for hit in integral_fractions(path)] == []


def test_integer_fractions_are_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from fractions import Fraction\n"
                    "a = Fraction(1)\n"
                    "b = Fraction(-3)\n"
                    "c = Fraction((-1) ** k)\n"
                    "d = Fraction(n * (-1) ** (k + 1) * m)\n"
                    "e = Fraction(1, 2), Fraction(x), Fraction((-1) ** k, 2)\n"
                    "f = Fraction(2 ** k), Fraction(True), Fraction('3')\n")
    assert integral_fractions(path) == ["sample.py:2", "sample.py:3",
                                        "sample.py:4", "sample.py:5"]


# Public functions that only the tests call, each with the reason it
# stays in the package.  The one allowlist: it spares functions only,
# never a class, a defaulted parameter or a record field.
KEPT_FOR_TESTS = {
    "bilinear_form_sq": "reference oracle for the square-bracket pairing",
    "jacobi_check": "reference oracle: the Jacobi identity of the VOA axioms",
    "schottky_delta": "reference oracle for the Schottky handle kernel",
    "s_conjugated_a_entry": "the conjugated sewing matrix entry of the "
                            "genus-2 determinant oracle",
    "chain_condition_check": "library API the CLI does not expose",
    "genus2_reduce": "library API the CLI does not expose",
    "psi_deriv_value": "library API the CLI does not expose",
    "chi": "library API; genus_g_reduce reaches the same code through _chi",
    "theta": "library API; genus_g_reduce reaches the same code through "
             "_theta",
    "heisenberg_mode": "reference oracle for the integral mode table",
}


def package_references() -> tuple:
    """What the package's modules reach of each other: the set of
    (module, name) that some module imports from ``module`` or reads
    as ``module.name``, and per module the (name, line) of every bare
    name it loads or stores."""
    reached, named = set(), defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                source = (node.module or "").rpartition(".")[2]
                for alias in node.names:
                    if source:
                        reached.add((source, alias.name))
                    else:  # from . import module
                        modules[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.value, ast.Name) and node.value.id in modules:
                reached.add((modules[node.value.id], node.attr))
            elif isinstance(node, ast.Name):
                named[path.stem].add((node.id, node.lineno))
    return reached, named


def dead_definitions() -> tuple:
    """Module-level functions and classes of the package that no other
    module imports or reads as ``module.name``, that their own module
    names nowhere outside their body, and that the benchmark does not
    name as a word (its tracer targets are strings); and the
    KEPT_FOR_TESTS names that such a rule actually spares.  A test's
    use never counts as a caller."""
    reached, named = package_references()
    in_bench = {word for path in (ROOT / "bench").rglob("*.py")
                for word in re.findall(r"\w+", path.read_text())}
    dead, kept = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            body = range(node.lineno, node.end_lineno + 1)
            public = not node.name.startswith("_")
            if (path.stem, node.name) in reached or any(
                    name == node.name and line not in body
                    for name, line in named[path.stem]) or (
                    public and node.name in in_bench):
                continue
            if node.name in KEPT_FOR_TESTS and not isinstance(
                    node, ast.ClassDef):
                kept.add(node.name)
            else:
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    return dead, kept


def test_every_definition_has_a_caller():
    dead, kept = dead_definitions()
    assert dead == []
    # no stale exception: each kept name is a definition no caller has
    assert kept == set(KEPT_FOR_TESTS)
    assert dead_methods(ROOT) == []


def _trees(root: Path, *tops):
    for top in tops:
        for path in sorted((root / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _name(node):
    """The bare or attribute name of a call's callee, a decorator or a
    base class."""
    node = node.func if isinstance(node, ast.Call) else node
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _functions(node, cls=None):
    """(enclosing class or None, def) for every function under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield cls, child
            yield from _functions(child)
        else:
            yield from _functions(
                child, child if isinstance(child, ast.ClassDef) else cls)


def _defaulted(fn, bound: bool) -> list:
    """(name, positional index or None) of each defaulted parameter;
    the index of a bound method does not count self."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    out = [(a.arg, i - bound) for i, a in enumerate(pos) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _literal_keys(node):
    """The keys of ``dict(k=...)`` or of a dict literal with string
    keys, else None."""
    if isinstance(node, ast.Call) and _name(node) == "dict" \
            and not node.args and all(k.arg for k in node.keywords):
        return {k.arg for k in node.keywords}
    if isinstance(node, ast.Dict) and all(
            isinstance(k, ast.Constant) and isinstance(k.value, str)
            for k in node.keys):
        return {k.value for k in node.keys}
    return None


def _unpacked_keys(fn) -> dict:
    """The keys each local name of ``fn`` can carry into a ``**``
    operand: only for a name bound once, to a literal ``_literal_keys``
    reads, and otherwise only unpacked."""
    nodes = list(_own_nodes(fn))
    unpacked = {id(k.value) for node in nodes if isinstance(node, ast.Call)
                for k in node.keywords if k.arg is None}
    uses = defaultdict(int)
    keys = {}
    for node in nodes:
        if isinstance(node, ast.Name) and id(node) not in unpacked:
            uses[node.id] += 1
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            found = _literal_keys(node.value)
            if found is not None:
                keys[node.targets[0].id] = found
    return {name: k for name, k in keys.items() if uses[name] == 1}


def _sets(call: ast.Call, name: str, index, known) -> bool:
    """Whether the call can set the parameter: by keyword, by enough
    positional arguments, or through * or ** unpacking; a ** operand
    with keys in ``known`` (see ``_unpacked_keys``) sets only those."""
    for k in call.keywords:
        if k.arg == name:
            return True
        if k.arg is None:
            keys = known.get(k.value.id) \
                if isinstance(k.value, ast.Name) else None
            if keys is None or name in keys:
                return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def dead_methods(root: Path) -> list:
    """Methods and properties (dunders aside) of the classes under
    ``root``/src whose name nothing in src or bench reads as an
    attribute outside the method's own body (a test's read does not
    count)."""
    reads = defaultdict(list)
    for path, tree in _trees(root, "src", "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load):
                reads[node.attr].append((path, node.lineno))
    dead = []
    for path, tree in _trees(root, "src"):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)
                                  ) or fn.name.startswith("__"):
                    continue
                body = range(fn.lineno, fn.end_lineno + 1)
                if all(p == path and line in body
                       for p, line in reads[fn.name]):
                    dead.append(f"{path.name}:{fn.lineno} "
                                f"{cls.name}.{fn.name}")
    return dead


def unset_parameters(root: Path) -> list:
    """Defaulted parameters of functions under ``root``/src that no
    call in src or bench sets (a test's call does not count); calls
    match by bare or attribute name, and a class call counts as a call
    of __init__."""
    calls = defaultdict(list)
    for _, tree in _trees(root, "src", "bench"):
        scopes = [(tree, {})] + [(fn, _unpacked_keys(fn))
                                 for _, fn in _functions(tree)]
        for scope, known in scopes:
            for node in _own_nodes(scope):
                if isinstance(node, ast.Call):
                    calls[_name(node)].append((node, known))
    unset = []
    for path, tree in _trees(root, "src"):
        for cls, fn in _functions(tree):
            static = any(_name(d) == "staticmethod"
                         for d in fn.decorator_list)
            names = {fn.name}
            if cls is not None and fn.name == "__init__":
                names.add(cls.name)
            found = [c for n in names for c in calls[n]]
            for name, index in _defaulted(fn, cls is not None and not static):
                if not any(_sets(c, name, index, known)
                           for c, known in found):
                    unset.append(f"{path.name}:{fn.lineno} {fn.name}({name}=)")
    return unset


def test_every_defaulted_parameter_is_set():
    assert unset_parameters(ROOT) == []


def unread_fields(root: Path) -> list:
    """Fields of dataclasses and NamedTuples under ``root``/src that
    nothing in src or bench reads as ``.field`` (a test's read does
    not count)."""
    read = {node.attr for _, tree in _trees(root, "src", "bench")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in _trees(root, "src"):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or not (
                    any(_name(d) == "dataclass" for d in cls.decorator_list)
                    or any(_name(b) == "NamedTuple" for b in cls.bases)):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name) and stmt.target.id not in read:
                    unread.append(f"{path.name}:{stmt.lineno} "
                                  f"{cls.name}.{stmt.target.id}")
    return unread


def test_every_record_field_is_read():
    assert unread_fields(ROOT) == []


def test_test_only_options_and_fields_are_found(tmp_path):
    for top, text in {
            "src": "from dataclasses import dataclass\n"
                   "from typing import NamedTuple\n"
                   "\n"
                   "@dataclass\n"
                   "class Rec:\n"
                   "    kept: int\n"
                   "    tested: int\n"
                   "\n"
                   "def f(x, scale=1, shift=0):\n"
                   "    return Rec(x * scale + shift, x).kept\n"
                   "\n"
                   "class Pair(NamedTuple):\n"
                   "    left: int\n"
                   "    right: int = 0\n"
                   "\n"
                   "class _SpanFields(NamedTuple):\n"
                   "    lo: int\n"
                   "    hi: int\n"
                   "    label: str = ''\n"
                   "\n"
                   "class Span(_SpanFields):\n"
                   "    __slots__ = ()\n"
                   "\n"
                   "    def __new__(cls, *args, **kwargs):\n"
                   "        self = super().__new__(cls, *args, **kwargs)\n"
                   "        if self.lo > self.hi:\n"
                   "            raise ValueError('inverted span')\n"
                   "        return self\n"
                   "\n"
                   "def width(x):\n"
                   "    return Span(0, x).hi - Pair(x).left\n"
                   "\n"
                   "def g(x, scale=1, shift=0, label=''):\n"
                   "    return x * scale + shift\n"
                   "\n"
                   "def h(x, scale=1, label=''):\n"
                   "    return x * scale\n"
                   "\n"
                   "def both(x, **opts):\n"
                   "    kw = dict(scale=2)\n"
                   "    lit = {'shift': 1}\n"
                   "    return g(x, **kw) + g(x, **lit) + h(x, **opts)\n",
            "bench": "from mod import both, f, width\n"
                     "f(2, scale=3)\n"
                     "width(2)\n"
                     "both(2)\n",
            "tests": "from mod import Pair, Rec, Span, f\n"
                     "assert f(2, shift=1) == 3\n"
                     "assert Rec(1, 2).tested == 2\n"
                     "assert Pair(1, 2).right == 2\n"
                     "assert Span(0, 1, 'x').label == 'x'\n"}.items():
        (tmp_path / top).mkdir()
        (tmp_path / top / "mod.py").write_text(text)
    # a ** operand bound to a dict literal sets only its keys; any
    # other ** operand can set every keyword
    assert unset_parameters(tmp_path) == ["mod.py:9 f(shift=)",
                                          "mod.py:33 g(label=)"]
    # a field read only inside the validating __new__ still counts as
    # read; one declared on the NamedTuple base and read by no library
    # code is found like a dataclass field
    assert unread_fields(tmp_path) == ["mod.py:7 Rec.tested",
                                       "mod.py:14 Pair.right",
                                       "mod.py:19 _SpanFields.label"]


def test_test_only_methods_are_found(tmp_path):
    for top, text in {
            "src": "class Box:\n"
                   "    def __len__(self):\n"
                   "        return 0\n"
                   "\n"
                   "    @property\n"
                   "    def size(self):\n"
                   "        return self.size_of(self)\n"
                   "\n"
                   "    @property\n"
                   "    def label(self):\n"
                   "        return 'box'\n"
                   "\n"
                   "    @staticmethod\n"
                   "    def size_of(box):\n"
                   "        return len(box)\n"
                   "\n"
                   "    def walk(self, n):\n"
                   "        return self.walk(n - 1) if n else self.size\n"
                   "\n"
                   "    def tested(self):\n"
                   "        return 1\n",
            "bench": "from mod import Box\n"
                     "print(Box().label)\n",
            "tests": "from mod import Box\n"
                     "assert Box().tested() == 1\n"}.items():
        (tmp_path / top).mkdir()
        (tmp_path / top / "mod.py").write_text(text)
    # walk reads itself only inside its own body, which is no caller
    assert dead_methods(tmp_path) == ["mod.py:17 Box.walk",
                                      "mod.py:20 Box.tested"]
