"""Every module's ``__all__`` names what the module defines, and no more,
and no module dispatches on a model or process name by string comparison."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


def _is_model_or_process(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in ("model", "process")) or (
        isinstance(node, ast.Attribute) and node.attr in ("model", "process")
    )


def _is_string_literal(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_string_literal(item) for item in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def test_no_model_or_process_compared_to_a_string():
    # the facts of each model and process live in one record each
    # (dispersion._MODELS, walker._PROCESSES): a comparison such as
    # ``spec.model == "q"`` regrows the dispatch the records replace
    found = []
    for path in sorted((Path(multiflow.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
            if any(map(_is_model_or_process, operands)) and any(map(_is_string_literal, operands)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
