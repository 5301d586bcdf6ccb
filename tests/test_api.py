"""The public surface: every exported name is used by the package itself."""

import ast
import functools
import inspect
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


def _private_sibling_uses(path: pathlib.Path) -> set[str]:
    """Private names ``path`` takes from a sibling module of the package.

    A use is ``sibling._name`` or ``from .sibling import _name``; dunder
    names such as ``__all__`` are not private.
    """
    siblings = {p.stem for p in _SRC.glob("*.py")}

    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and private(node.attr)
        ):
            used.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in siblings:
            used |= {
                f"{node.module}.{alias.name}"
                for alias in node.names
                if private(alias.name)
            }
    return used


def _package_uses() -> set[str]:
    used = set()
    for path in _SRC.glob("*.py"):
        if path.name != "__init__.py":
            used |= _names_used(path)
    return used


def test_every_export_has_a_caller_in_the_package():
    # Code that only the tests call belongs in tests/.
    assert sorted(set(zfoutage.__all__) - _package_uses()) == []


def test_modules_share_only_the_listed_private_names():
    # A private name crosses a module boundary only where listed here.
    # cli's grid call waits for a public table over both axes.
    crossings = {
        path.stem: sorted(_private_sibling_uses(path)) for path in _SRC.glob("*.py")
    }
    assert {stem: names for stem, names in crossings.items() if names} == {
        "cli": ["montecarlo._link_estimates"],
        "optimizer": ["analytic._best_response", "analytic._equal_k_best_responses"],
    }


def test_every_public_member_of_an_exported_class_has_a_caller():
    # Methods, classmethods, staticmethods, properties and cached
    # properties count; a use is an attribute of that name anywhere in
    # the package, so two members sharing one name share their callers.
    used = _package_uses()
    unused = []
    for name in zfoutage.__all__:
        cls = getattr(zfoutage, name)
        if not inspect.isclass(cls):
            continue
        for member, value in vars(cls).items():
            is_callable = isinstance(
                value,
                (property, functools.cached_property, classmethod, staticmethod),
            ) or inspect.isfunction(value)
            if is_callable and not member.startswith("_") and member not in used:
                unused.append(f"{name}.{member}")
    assert sorted(unused) == []
