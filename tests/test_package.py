"""Package-level contracts: the export list is the union of the modules'
export lists, and the package imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import ccbound
from ccbound import bounds, fluid, packetsim, scenarios, trace


def test_all_is_the_modules_exports_without_duplicates():
    names = ccbound.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(ccbound, name) is not None
    modules = (trace, bounds, fluid, packetsim, scenarios)
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in modules))


def test_runtime_imports_are_stdlib_only():
    for path in sorted(Path(ccbound.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside ccbound
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "ccbound", (path.name, name)
