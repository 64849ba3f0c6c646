"""Every name a module of the package imports is used in that module, and
every private helper the package defines is referenced somewhere in it.

A name used only inside a quoted annotation counts as unused; the modules
import `annotations` from `__future__`, so annotations need no quotes.
"""

import ast
from collections import Counter
from pathlib import Path

import fqpoints

PACKAGE = Path(fqpoints.__file__).resolve().parent


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports through __all__
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}: {name}" for name in _imported_names(tree)
                   if name not in used]
    assert unused == []


def _private_defs(tree):
    """Private module-level functions and private methods, dunders aside."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in body:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name.startswith("_")
                    and not item.name.endswith("__")):
                yield item


def _references(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_private_helper_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    refs = Counter(name for tree in trees.values()
                   for name in _references(tree))
    unreferenced = [
        f"{module}: {fn.name}"
        for module, tree in trees.items() for fn in _private_defs(tree)
        # a call from its own body (recursion) does not count as a use
        if refs[fn.name] == Counter(_references(fn))[fn.name]]
    assert unreferenced == []
