"""Every exported name resolves, so a deleted name cannot linger in __all__,
and every name the package re-exports is listed where it is defined."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import unrolledsl2

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(unrolledsl2.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", ["unrolledsl2"] + [f"unrolledsl2.{m}" for m in SUBMODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _reexports() -> dict:
    """Submodule name -> the names ``unrolledsl2/__init__.py`` imports from it."""
    out: dict = {}
    for node in ast.parse(inspect.getsource(unrolledsl2)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize(
    "name", [m for m in SUBMODULES if hasattr(importlib.import_module(f"unrolledsl2.{m}"), "__all__")]
)
def test_reexports_listed_in_submodule_all(name):
    module = importlib.import_module(f"unrolledsl2.{name}")
    unlisted = [attr for attr in _reexports().get(name, []) if attr not in module.__all__]
    assert not unlisted, f"re-exported but not in unrolledsl2.{name}.__all__: {unlisted}"
