"""Every exported name resolves, so a deleted name cannot linger in __all__."""

import importlib
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

