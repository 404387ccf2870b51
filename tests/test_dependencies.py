"""numpy stays the only runtime dependency: every module of the package
imports only the standard library, numpy and the package itself."""

import ast
import sys
from pathlib import Path

import httpglass

ALLOWED = sys.stdlib_module_names | {"numpy", "httpglass"}


def _imports(path):
    """The top-level name of every module that ``path`` imports, with the
    package's name for a relative import."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "httpglass" if node.level else node.module.split(".")[0]


def test_the_package_imports_only_the_stdlib_and_numpy():
    modules = sorted(Path(httpglass.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    found = {path.name: sorted(set(_imports(path)) - ALLOWED)
             for path in modules}
    assert {name: bad for name, bad in found.items() if bad} == {}
    assert "numpy" in {name for path in modules for name in _imports(path)}
