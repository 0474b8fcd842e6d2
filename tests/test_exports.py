"""The package's export lists agree with what it exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import szilard


def test_every_all_resolves():
    """Each name in a szilard module's __all__ is bound in that module."""
    for info in pkgutil.iter_modules(szilard.__path__):
        module = importlib.import_module(f"szilard.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)


def test_package_imports_exactly_each_all():
    """szilard/__init__.py imports, from each module it draws on, exactly
    the names of that module's __all__: an imported name missing from it,
    or a stale entry the package does not export, fails."""
    tree = ast.parse(Path(szilard.__file__).read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, set()).update(
                alias.name for alias in node.names)
    assert imported
    for name, names in imported.items():
        module = importlib.import_module(f"szilard.{name}")
        assert set(getattr(module, "__all__", ())) == names, name
        assert names <= set(szilard.__dict__), name
