"""Every module-level import of the runtime is used.

A parse of each module with ``ast`` stands in for a linter's unused-import
rule.  ``__init__.py`` is skipped, since its imports are the package's
re-exports, as are ``__future__`` imports and lines marked ``# noqa``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "posinv"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of ``source`` bind and that
    nothing else in it reads."""
    tree, lines = ast.parse(source), source.splitlines()
    bound = {}
    for node in tree.body:
        if (not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa" in lines[node.lineno - 1]
                or isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_modules_are_found():
    assert {"model.py", "modes.py", "pine.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_an_unused_import_is_flagged():
    source = "import math\nimport numpy as np\nfrom os import path  # noqa\n\nx = np.zeros(1)\n"
    assert unused_imports(source) == ["math (line 1)"]
