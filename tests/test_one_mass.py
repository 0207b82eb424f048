"""``pine.py`` computes importance masses in one place.

A parse of the module with ``ast`` finds its ``row_softmax`` calls.  Every
layer's importance pass exponentiates its scores in ``_key_set_mass``, so
a second call site would be a second mass path."""

import ast
from pathlib import Path

PINE = Path(__file__).resolve().parent.parent / "src" / "posinv" / "pine.py"


def softmax_call_sites(source: str) -> list[int]:
    """The lines of the calls in ``source`` to ``row_softmax``, by name or as
    an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and "row_softmax" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_pine_has_one_softmax_call_site():
    assert len(softmax_call_sites(PINE.read_text(encoding="utf-8"))) == 1


def test_a_second_call_site_is_flagged():
    source = ("from . import kernels\nfrom .kernels import row_softmax\n\n\n"
              "def mass(x):\n    return row_softmax(x)\n\n\n"
              "def other_mass(x):\n    return kernels.row_softmax(x, sums=False)\n")
    assert softmax_call_sites(source) == [6, 10]
