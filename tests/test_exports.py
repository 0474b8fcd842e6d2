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


def test_every_import_is_used():
    """Each name a szilard module imports is used in it or exported: named
    in its __all__, or, in a module without one, public (no leading
    underscore), as `from module import *` reads it.  An import whose
    statement carries `# noqa: F401` is exempt: it binds a name for code
    that patches or reads it through the module."""
    unused = []
    for path in sorted(Path(szilard.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not any(
                    "# noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        exports = next((ast.literal_eval(node.value) for node in tree.body
                        if isinstance(node, ast.Assign) and any(
                            getattr(target, "id", None) == "__all__"
                            for target in node.targets)), None)
        for name, line in imported.items():
            exported = (name in exports if exports is not None
                        else not name.startswith("_"))
            if name not in used and not exported:
                unused.append(f"{path.name}:{line}: {name}")
    assert not unused


def test_every_parameter_is_read():
    """Each function and method of a szilard module reads every parameter
    it takes (self and cls exempt), in its body or a function nested in
    it: a parameter nothing reads is a stale part of its signature."""
    unread = []
    for path in sorted(Path(szilard.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            names = {arg.arg for arg in (*args.posonlyargs, *args.args,
                                         *args.kwonlyargs, args.vararg,
                                         args.kwarg) if arg is not None}
            read = {name.id for name in ast.walk(node)
                    if isinstance(name, ast.Name)
                    and isinstance(name.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno}: {node.name}({name})"
                       for name in sorted(names - read - {"self", "cls"})]
    assert not unread


def test_every_private_definition_is_referenced():
    """Each private function, class or method of szilard (a leading
    underscore, not a dunder) is referenced somewhere in the package: by
    name, as an attribute or in an import.  A helper that only tests
    reach is dead code."""
    defined, referenced = [], set()
    for path in sorted(Path(szilard.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((f"{path.name}:{node.lineno}", node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert defined
    assert [f"{at}: {name}" for at, name in defined
            if name not in referenced] == []


def test_every_slot_is_read():
    """Each name in the __slots__ of a szilard class is read as an
    attribute somewhere in the package (loaded, not only stored): a column
    that nothing reads is dead."""
    slots, read = [], set()
    for path in sorted(Path(szilard.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) == "__slots__"
                    for target in node.targets):
                slots += [(f"{path.name}:{node.lineno}", name)
                          for name in ast.literal_eval(node.value)]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    assert slots
    assert [f"{at}: {name}" for at, name in slots if name not in read] == []
