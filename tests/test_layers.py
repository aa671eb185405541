"""Each module of the package imports only from the layers below it.

The stack, lowest first: ``errors``, ``scalars``, ``series``, then
``odekit`` and ``connmat`` (the matrix algebra and the gauge actions), then
the pipelines built on them, then ``selftest`` and ``cli``.  The package
root imports nothing.  Every module's intra-package imports, function-local
ones included, are read with ``ast`` and checked against the table.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "connexa"

# The modules each module may import, besides everything those may import.
ALLOWED = {
    "__init__": (),
    "errors": (),
    "scalars": ("errors",),
    "series": ("errors", "scalars"),
    "odekit": ("series",),
    "connmat": ("series",),
    "euler": ("odekit", "connmat"),
    "docio": ("connmat",),
    "formalnf": ("odekit", "connmat"),
    "origin": ("formalnf",),
    "malgrange": ("origin",),
    "fixtures": ("docio", "formalnf"),
    "selftest": ("euler", "fixtures", "malgrange"),
    "cli": ("selftest",),
}


def _imports(text: str) -> set[str]:
    """The package modules a source text imports, in any of the forms
    ``from . import m``, ``from .m import x``, ``from connexa import m``,
    ``from connexa.m import x`` and ``import connexa.m``."""
    out = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = (a.name for a in node.names)
            out |= {n.split(".")[1] for n in names if n.startswith("connexa.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "connexa" and not module.startswith("connexa."):
                    continue
                module = module[len("connexa."):]
            if module:
                out.add(module.split(".")[0])
            else:
                out |= {a.name for a in node.names}
    return out


def _below(name: str) -> set[str]:
    """The modules ``name`` may import: its table entry, closed downwards."""
    seen: set[str] = set()
    todo = list(ALLOWED[name])
    while todo:
        mod = todo.pop()
        if mod not in seen:
            seen.add(mod)
            todo.extend(ALLOWED[mod])
    return seen


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(ALLOWED)


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_module_imports_only_lower_layers(name):
    got = _imports((SRC / f"{name}.py").read_text(encoding="utf-8"))
    assert got <= _below(name), f"{name} imports {sorted(got - _below(name))}"


def test_every_import_form_is_read():
    text = (
        "import json\nimport connexa.euler\nfrom . import odekit\n"
        "from .series import TSeries\nfrom connexa import docio\n"
        "from connexa.origin import ConstMat\nfrom fractions import Fraction\n"
        "def f():\n    from .cli import main\n"
    )
    assert _imports(text) == {"euler", "odekit", "series", "docio", "origin", "cli"}
    assert _below("connmat") == {"errors", "scalars", "series"}
    assert _below("cli") == set(ALLOWED) - {"__init__", "cli"}
