"""The public names: every module's __all__ resolves, once per name."""

import importlib
import pkgutil

import pytest

import iqtheta

_MODULES = ["iqtheta"] + [f"iqtheta.{m.name}" for m in pkgutil.iter_modules(iqtheta.__path__)
                          if m.name != "__main__"]


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), name
    for attr in names:
        assert hasattr(module, attr), f"{name}.{attr}"


@pytest.mark.parametrize("gone", ["ThetaFactor", "Term", "RelationTerm"])
def test_term_objects_are_not_exported(gone):
    # a sum's one description is its compiled rows (relations._Sum)
    relations = importlib.import_module("iqtheta.relations")
    for module in (iqtheta, relations):
        assert gone not in module.__all__
        assert not hasattr(module, gone)
