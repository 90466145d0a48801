"""Every module-level private name of the package is used by package code.

A private helper (``_x``, not a dunder) that only tests call is dead code
kept alive by its tests, so the tests do not count as uses.
"""

import ast
from pathlib import Path

import pfconv

SRC = Path(pfconv.__file__).resolve().parent


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
