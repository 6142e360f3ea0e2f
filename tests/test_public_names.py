"""Every public name the package declares resolves.

A refactor that deletes or moves a function must also drop it from its
module's `__all__` and from the package imports; `from gausskit import *`
or a stale `__all__` entry would otherwise fail only for the user.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gausskit

MODULES = sorted(m.name for m in pkgutil.iter_modules(gausskit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(f"gausskit.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(gausskit.__file__).read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    missing = [f"{mod}.{attr}" for mod, attr in imported
               if not hasattr(importlib.import_module(f"gausskit.{mod}"), attr)
               or not hasattr(gausskit, attr)]
    assert missing == []
