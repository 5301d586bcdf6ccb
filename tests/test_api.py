"""The public surface: every exported name is used by the package itself."""

import ast
import pathlib

import zfoutage

_SRC = pathlib.Path(zfoutage.__file__).parent


def _names_used(path: pathlib.Path) -> set[str]:
    """Names a module reads or writes, and attributes it looks up.

    Definitions, import lines and docstrings are not ast.Name or
    ast.Attribute nodes, so they do not count as a use.
    """
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_export_has_a_caller_in_the_package():
    # Code that only the tests call belongs in tests/.
    used = set()
    for path in _SRC.glob("*.py"):
        if path.name != "__init__.py":
            used |= _names_used(path)
    assert sorted(set(zfoutage.__all__) - used) == []
