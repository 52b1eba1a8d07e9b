"""Every module's ``__all__`` names what the module defines, and no more."""

import importlib
import inspect
import pkgutil

import pytest

import multiflow

MODULES = [
    importlib.import_module(f"multiflow.{info.name}")
    for info in pkgutil.iter_modules(multiflow.__path__)
]
LISTED = [module for module in MODULES if hasattr(module, "__all__")]


def test_modules_with_a_list_are_found():
    assert {m.__name__ for m in LISTED} >= {
        "multiflow.config", "multiflow.dispersion", "multiflow.kernel", "multiflow.measure",
        "multiflow.walker",
    }


@pytest.mark.parametrize("module", LISTED, ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", LISTED, ids=lambda m: m.__name__)
def test_every_public_definition_is_listed(module):
    defined = [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert [name for name in defined if name not in module.__all__] == []
