"""Every name a module of the package imports is used in that module.

A name used only inside a quoted annotation counts as unused; the modules
import `annotations` from `__future__`, so annotations need no quotes.
"""

import ast
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
