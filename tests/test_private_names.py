"""Every name the package defines is used by code that is not a test.

A private helper (``_x``, not a dunder) that only tests call is dead code
kept alive by its tests, so the tests do not count as uses.  The same
holds for a public function, class or method, except that the scripts,
the benchmark and the exports of ``pfconv/__init__`` count as its users.
"""

import ast
from collections import Counter
from pathlib import Path

import pfconv

SRC = Path(pfconv.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(stmt: ast.stmt) -> set[str]:
    """The names a module-level statement binds, other than by an import."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _used(tree: ast.AST) -> set[str]:
    """The names a tree reads: loaded names, attributes and imported names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level private name of the sources
    (module name -> code) that no statement uses, apart from the one that
    defines it.  Uses are matched by name, in any of the modules."""
    defined, used = [], set()
    for module, code in sources.items():
        for stmt in ast.parse(code).body:
            names = _defined(stmt)
            defined += [(module, name) for name in sorted(names) if _private(name)]
            used |= _used(stmt) - names
    return [f"{module}.{name}" for module, name in defined if name not in used]


def _parts(stmt: ast.stmt) -> list[tuple[str | None, set[str]]]:
    """The names a module-level statement uses, split by method: for a
    class, (method name, uses) for each method and (None, uses) for the
    rest of the class; otherwise one (None, uses)."""
    if not isinstance(stmt, ast.ClassDef):
        return [(None, _used(stmt))]
    rest = [*stmt.decorator_list, *stmt.bases, *stmt.keywords,
            *(s for s in stmt.body if not isinstance(s, _FUNCTIONS))]
    return [(m.name, _used(m)) for m in stmt.body if isinstance(m, _FUNCTIONS)] \
        + [(None, set().union(*map(_used, rest)))]


def unused_public_names(sources: dict[str, str], users: dict[str, str]) -> list[str]:
    """``module.name`` or ``module.Class.method`` for each public function,
    class and method of the sources (module name -> code) that nothing
    uses but its own statement, or its own body for a method.  The users
    (file name -> code: scripts and benchmark) count as uses; an import
    in ``__init__`` is a use, so an export counts.  Uses are matched by
    name, as for private names.  Each file is parsed once."""
    uses, defined = Counter(), []  # defined: (qualified, name, its own uses)
    for code in users.values():
        uses.update(_used(ast.parse(code)))
    for module, code in sources.items():
        for stmt in ast.parse(code).body:
            parts = _parts(stmt)
            for _, found in parts:
                uses.update(found)
            if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)) and not _private(stmt.name):
                defined.append((f"{module}.{stmt.name}", stmt.name, [f for _, f in parts]))
                defined += [(f"{module}.{stmt.name}.{name}", name, [found])
                            for name, found in parts if name and not name.startswith("_")]
    return [qualified for qualified, name, own in defined
            if uses[name] == sum(name in found for found in own)]


def test_every_private_name_of_the_package_is_used_by_the_package():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert "engine" in sources and "resampling" in sources  # the files were read
    assert unused_private_names(sources) == []


def test_a_name_used_only_by_itself_or_nowhere_is_reported():
    sources = {
        "a": "def _helper():\n    pass\n"
             "def _recursive(n):\n    return _recursive(n - 1)\n"
             "_LIMIT, _SHARED = 3, 4\n"
             "__version__ = '1'\n"
             "def f():\n    return _helper()\n",
        "b": "from .a import _SHARED\n"
             "from . import c\n"
             "x = c._method_of_c()\n",
        "c": "def _method_of_c():\n    pass\n",
    }
    assert unused_private_names(sources) == ["a._recursive", "a._LIMIT"]


def test_every_public_name_of_the_package_has_a_user_outside_the_tests():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    users = {str(path.relative_to(REPO)): path.read_text()
             for folder in ("scripts", "perfbench")
             for path in sorted((REPO / folder).glob("*.py"))}
    assert "cox" in sources and "perfbench/tracing.py" in users  # the files were read
    assert unused_public_names(sources, users) == []


def test_a_public_name_used_only_by_itself_or_by_tests_is_reported():
    sources = {
        "__init__": "from .a import exported\n",
        "a": "def exported():\n    pass\n"
             "def recursive(n):\n    return recursive(n - 1)\n"
             "def called():\n    pass\n"
             "def by_a_script():\n    pass\n"
             "def _private():\n    return called()\n"
             "class Model:\n"
             "    LIMIT = 3\n"
             "    def __post_init__(self):\n        self.helper()\n"
             "    def helper(self):\n        return self.helper()\n"
             "    def itself(self):\n        return self.itself()\n"
             "    def _hidden(self):\n        pass\n"
             "class Unused:\n"
             "    def make(self):\n        return Unused()\n",
        "b": "from .a import Model\n",
    }
    users = {"scripts/run.py": "from pfconv.a import by_a_script\n"}
    assert unused_public_names(sources, users) == [
        "a.recursive", "a.Model.itself", "a.Unused", "a.Unused.make"]
