"""Every public function and method of the package has a caller.

A name in __all__ is kept only while something outside the tests uses
it: a package module other than __init__.py loads it, the benchmark
under bench/ reads it, or README.md names it for users.  A function the
tests alone call is dead weight that every later change must keep
working; delete it and let the test check what it checked some other
way.

A function in __all__ counts as used when a module loads it as a name
or an attribute.  A public method, property or classmethod of a class
in __all__ counts only as an attribute (x.name), since a bare name of
the same spelling is some other binding (the builtin any, a local
rank).  In bench/*.py a word of a string constant counts as well, since
the tracer finds what it wraps by name ("LaurentPoly.pow").  In
README.md a name counts when it is a word of inline code or of a code
block.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import clusteralg

PACKAGE = Path(clusteralg.__file__).parent
ROOT = PACKAGE.parent.parent
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _loads(paths, with_strings: bool) -> tuple[set[str], set[str]]:
    """Bare names and attribute names the files load, words of strings among the latter."""
    names, attrs = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                attrs.update(WORD.findall(node.value))
    return names, attrs


def _readme_words() -> set[str]:
    text = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```", text, re.S)
    code += re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {w for chunk in code for w in WORD.findall(chunk)}


def _public_callables() -> tuple[list[str], list[tuple[str, str]]]:
    """Functions in __all__, and (class, member) for the classes' own public members."""
    functions, members = [], []
    for name in clusteralg.__all__:
        obj = getattr(clusteralg, name)
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if not attr.startswith("_") and (
                    inspect.isfunction(value)
                    or isinstance(value, (property, classmethod, staticmethod))
                ):
                    members.append((name, attr))
        elif inspect.isfunction(obj):
            functions.append(name)
    return functions, members


def _unused() -> list[str]:
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    pkg_names, pkg_attrs = _loads(modules, with_strings=False)
    bench_names, bench_attrs = _loads(sorted((ROOT / "bench").glob("*.py")), with_strings=True)
    readme = _readme_words()
    functions, members = _public_callables()
    used_as_attr = pkg_attrs | bench_attrs | readme
    used_as_name = used_as_attr | pkg_names | bench_names
    return [f for f in functions if f not in used_as_name] + [
        f"{cls}.{attr}" for cls, attr in members if attr not in used_as_attr
    ]


def test_the_scan_sees_the_public_api():
    functions, members = _public_callables()
    assert {"orbit", "classify", "find_periods"} <= set(functions)
    assert {("LaurentPoly", "pow"), ("ExchangeMatrix", "mutate")} <= set(members)
    assert ("Permutation", "from_cycle_notation") in members


def test_every_public_function_and_method_has_a_caller():
    unused = _unused()
    assert unused == [], f"public names that only tests use: {', '.join(unused)}"
