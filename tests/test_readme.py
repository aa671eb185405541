"""Every backticked ``module.attr`` or ``Class.attr`` in README.md that
names a connexa module or class must resolve to a real attribute, so the
module table cannot keep naming a helper that was renamed or deleted; and
README lists, for each command, exactly the flags the CLI parser declares."""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import connexa

README = Path(__file__).resolve().parent.parent / "README.md"

# a backticked dotted name, optionally called: `series.MAX_ORDER`,
# `connexa.series`, `OriginRestriction.bz_components()`
_DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")


def _roots() -> dict:
    """The names a README reference may start with: the package, its
    modules and the classes they define."""
    roots = {"connexa": connexa}
    for info in pkgutil.iter_modules(connexa.__path__):
        mod = importlib.import_module(f"connexa.{info.name}")
        roots[info.name] = mod
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                roots[name] = obj
    return roots


def _resolves(obj, name: str) -> bool:
    if hasattr(obj, name):
        return True
    # a dataclass field without a default is no class attribute
    return dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)}


def _unresolved(text: str, roots: dict) -> tuple[list[str], int]:
    """The references of ``text`` that name a connexa module or class but
    do not resolve, and the number checked."""
    bad = []
    checked = 0
    for ref in _DOTTED.findall(text):
        head, *path = ref.split(".")
        obj = roots.get(head)
        if obj is None:
            continue
        checked += 1
        for name in path:
            if not _resolves(obj, name):
                bad.append(ref)
                break
            obj = getattr(obj, name, None)
    return bad, checked


def test_readme_references_resolve():
    bad, checked = _unresolved(README.read_text(encoding="utf-8"), _roots())
    assert not bad, f"README names attributes that do not exist: {bad}"
    assert checked >= 20


def test_unresolved_reference_is_caught():
    roots = _roots()
    text = "`Plane.z_power`, `series.plane_dot`, `Classification.target`, `pyproject.toml`"
    assert _unresolved(text, roots) == (["Plane.z_power"], 3)


def _declared_flags() -> dict[str, set[str]]:
    """Each subcommand of the CLI parser and the long flags it declares."""
    from connexa import cli

    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {
            opt for a in parser._actions for opt in a.option_strings
            if opt.startswith("--") and opt != "--help"
        }
        for name, parser in sub.choices.items()
    }


def _listed_flags(text: str) -> dict[str, set[str]]:
    """Each command in the first list of README's "Command line" section,
    with the flags of its synopsis: a bullet that opens with the backticked
    command line."""
    section = text.split("\n## Command line\n", 1)[1]
    commands = section[section.index("\n* `"):].split("\n\n", 1)[0]
    listed = {}
    for name, rest in re.findall(r"^\* `([a-z-]+)([^`]*)`", commands, re.M):
        assert name not in listed, f"{name} is listed twice"
        listed[name] = set(re.findall(r"--[a-z0-9-]+", rest))
    return listed


def test_readme_lists_the_flags_each_command_declares():
    assert _listed_flags(README.read_text(encoding="utf-8")) == _declared_flags()
