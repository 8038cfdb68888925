"""Every module-level private name and every import in the package is used.

A private function, class or constant that nothing loads is dead code
left behind by a refactor; importing it into another module does not
count as a use.  The public API is exempt, since callers outside the
package use it.  Likewise every name a module imports must be loaded in
that module; only the package's __init__.py imports names to re-export
them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import clusteralg

PACKAGE = Path(clusteralg.__file__).parent


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [x for x in names if x.startswith("_") and not x.startswith("__")]


def _loaded_names(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_no_unused_private_module_names():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    loaded = set().union(*(_loaded_names(t) for t in trees.values()))
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in loaded
    ]
    assert unused == []


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(a.asname or a.name for a in node.names)
    return names


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [f"{path.name}:{x}" for x in _imported_names(tree) if x not in loaded]
    assert unused == []
