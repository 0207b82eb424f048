"""No module of the runtime rebinds module-level state through ``global``.

A parse of each module with ``ast`` finds its ``global`` statements.  The
one allowed is ``pine``'s comparator counter, which perfbench reads."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "posinv"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
ALLOWED = {("pine.py", "_comparisons")}


def global_names(source: str) -> list[str]:
    """The names that the ``global`` statements of ``source`` declare."""
    return sorted({name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)
                   for name in node.names})


def test_modules_are_found():
    assert {"__init__.py", "model.py", "pine.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_global_beyond_the_allowlist(module):
    names = global_names((SRC / module).read_text(encoding="utf-8"))
    assert [name for name in names if (module, name) not in ALLOWED] == []


def test_a_global_is_flagged():
    source = "count = 0\n\n\ndef bump():\n    global count\n    count += 1\n"
    assert global_names(source) == ["count"]
