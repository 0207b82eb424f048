"""Every module-level import of the runtime is used, and the float64
oracle takes no rule from the runtime it checks.

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


RUNTIME_ONLY = {"pine", "rope", "kernels"}
MODE_FIELDS = {"variant", "aggregation"}


def oracle_dependencies(source: str) -> list[str]:
    """What ``source``, the float64 oracle, takes from the runtime that
    would let it share a bug with it: an import of ``pine``, ``rope`` or
    ``kernels``, a name of ``modes`` other than ``AttentionMode``, and a
    read of a mode field other than ``variant`` and ``aggregation``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            modules = [node.module] if node.module else names
            for module in (m.removeprefix("posinv.") for m in modules):
                if module in RUNTIME_ONLY or module == "modes" and names != ["AttentionMode"]:
                    found.append(f"from {module} import {', '.join(names)} (line {node.lineno})")
        elif isinstance(node, ast.Import):
            found += [f"import {a.name} (line {node.lineno})" for a in node.names
                      if a.name.removeprefix("posinv.") in RUNTIME_ONLY | {"modes"}]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "mode" and node.attr not in MODE_FIELDS):
            found.append(f"mode.{node.attr} (line {node.lineno})")
    return found


def test_oracle_shares_no_runtime_rule():
    assert oracle_dependencies((SRC / "oracle.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("planted", [
    "from .rope import rotate", "from .modes import AttentionMode, build_mask",
    "from . import kernels", "import posinv.pine", "def f(mode):\n    return mode.canonical",
])
def test_a_shared_rule_is_flagged(planted):
    source = "from .modes import AttentionMode\n\ndef g(mode):\n    return mode.variant\n"
    assert len(oracle_dependencies(source + planted + "\n")) == 1
