"""The package's modules import each other without a cycle."""

import ast
from pathlib import Path

import pfconv

SRC = Path(pfconv.__file__).resolve().parent


def _imports(tree: ast.AST) -> set[str]:
    """The package modules a module imports with ``from .x import`` or
    ``from . import x``, at module level or inside a function.  The body
    of an ``if TYPE_CHECKING:`` never runs, so it is skipped."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
        stack.extend(ast.iter_child_nodes(node))
    return found


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle of the graph as a path of module names that ends
    where it starts, or None."""
    done: set[str] = set()

    def visit(path: list[str]) -> list[str] | None:
        for dep in sorted(graph.get(path[-1], ())):
            if dep in path:
                return path[path.index(dep):] + [dep]
            if dep not in done:
                found = visit(path + [dep])
                if found:
                    return found
        done.add(path[-1])
        return None

    for module in sorted(graph):
        found = None if module in done else visit([module])
        if found:
            return found
    return None


def test_package_imports_form_no_cycle():
    graph = {path.stem: _imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert "engine" in graph and "moments" in graph["cli"]  # the files were read
    assert _cycle(graph) is None


def test_a_function_level_import_closes_a_cycle():
    a = _imports(ast.parse("def f():\n    from .b import g\n"))
    b = _imports(ast.parse("from . import a\n"
                           "if TYPE_CHECKING:\n    from .c import h\n"))
    assert (a, b) == ({"b"}, {"a"})
    assert _cycle({"a": a, "b": b, "c": {"a"}}) == ["a", "b", "a"]
    assert _cycle({"a": a, "b": set()}) is None

