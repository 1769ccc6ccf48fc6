"""Every import in the package, its tests and its benchmark is used, and so
is every module-level function and class of the package.

A scan of the syntax tree with the standard library, since no linter is a
dependency: an imported name counts as used when the module reads it as a
name anywhere, or lists it in ``__all__``.  ``__future__`` imports are
skipped.  A definition counts as used when some file of the package, its
tests or its benchmark reads it as a name or an attribute, or when the
benchmark's tracer lists it in ``LAYERS``; click commands are exempt.

Importing the package builds no table: every lru_cache is empty after it.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "thetacoble"
FILES = [path for folder in (PACKAGE, ROOT / "tests", ROOT / "perfbench")
         for path in sorted(folder.glob("*.py"))]


def _unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    assert FILES
    unused = [entry for path in FILES for entry in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _is_command(decorator: ast.expr) -> bool:
    """A click command decorator, @<group>.command(...)."""
    return (isinstance(decorator, ast.Call) and isinstance(decorator.func, ast.Attribute)
            and decorator.func.attr == "command")


def _definitions() -> list[tuple[str, str]]:
    """(file:line, name) of every module-level def and class of the package,
    click commands aside."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not any(map(_is_command, node.decorator_list))):
                found.append((f"{path.relative_to(ROOT)}:{node.lineno}", node.name))
    return found


def _read_names() -> set[str]:
    """The names and attributes read anywhere, plus the tracer's LAYERS."""
    read = set()
    for path in FILES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
            ):
                read.update(name for names in ast.literal_eval(node.value).values()
                            for name in names)
    return read


def test_no_unread_definitions():
    definitions = _definitions()
    assert len(definitions) > 150
    read = _read_names()
    unread = [f"{where} {name}" for where, name in definitions if name not in read]
    assert not unread, "definitions read nowhere:\n" + "\n".join(unread)


# In a fresh interpreter: import every module of the package, then report the
# entry count of each lru_cache bound in one of them.
_CACHE_SIZES = """
import importlib, json, pkgutil, sys
import thetacoble
for info in pkgutil.iter_modules(thetacoble.__path__):
    importlib.import_module("thetacoble." + info.name)
print(json.dumps({f"{name}.{attr}": value.cache_info().currsize
                  for name, module in list(sys.modules.items())
                  if name == "thetacoble" or name.startswith("thetacoble.")
                  for attr, value in vars(module).items() if hasattr(value, "cache_info")}))
"""


def test_importing_builds_no_table():
    """Importing the package fills no cache, so cold-start work cannot move
    into the import (the benchmark's set-up time) unseen."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _CACHE_SIZES], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    sizes = json.loads(out.stdout)
    assert len(sizes) > 30
    assert {name: n for name, n in sizes.items() if n} == {}
