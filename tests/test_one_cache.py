"""The package keeps one cache: only ``autodiff.cached`` touches ``__dict__``.

A trace or a compiled rendering kept on an object outlives the call that
made it, so each one goes through ``autodiff.cached`` and its one policy
(the last one per slot, by value).  This parses every module and names
each other function that reads or writes an object's ``__dict__``.
"""

import ast
import pathlib

import cbftk

PACKAGE = pathlib.Path(cbftk.__file__).parent


def _touches_dict(node) -> bool:
    """Whether ``node`` is ``x.__dict__``, ``vars(x)`` or ``getattr(x, "__dict__")``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "__dict__"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "vars":
            return True
        if node.func.id in ("getattr", "setattr") and len(node.args) > 1:
            return isinstance(node.args[1], ast.Constant) and node.args[1].value == "__dict__"
    return False


def _dict_touches(path) -> list:
    """``module.function:line`` of each place in ``path`` that touches a ``__dict__``."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if _touches_dict(node):
            found.append(f"{where}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_only_autodiff_cached_touches_an_objects_dict():
    touches = [t for path in sorted(PACKAGE.glob("*.py")) for t in _dict_touches(path)]
    assert touches and all(t.startswith("autodiff.cached:") for t in touches), touches
