"""Every exported name resolves, so deleting code cannot leave a stale export."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import besovcalc

# __main__ runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(besovcalc.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"besovcalc.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_package_names_resolve_and_are_public():
    """Each name the package re-exports exists and, where its home module has
    an __all__, is listed there."""
    tree = ast.parse(pathlib.Path(besovcalc.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        public = getattr(importlib.import_module(f"besovcalc.{node.module}"), "__all__", None)
        for alias in node.names:
            assert hasattr(besovcalc, alias.asname or alias.name)
            assert public is None or alias.name in public, f"{node.module}.{alias.name}"
