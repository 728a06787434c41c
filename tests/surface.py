"""The public surface of ``mixdisc``: its exported names and its settings.

    python tests/surface.py

Imports ``mixdisc`` from the ``src`` beside this script, whatever else is
installed, and prints:

- ``exports``: the count of ``mixdisc.__all__``;
- ``tolerances``: the fields of ``Tolerances``;
- one line per subcommand of the command line, each option with its number
  of choices in brackets (an option without choices has one), then the
  subcommand's own settable values;
- ``settable``: the total.  A tolerance flag counts once before and once
  after the subcommand, the two positions it takes; every other option
  counts its number of choices.  Positional arguments are inputs and count
  nothing;
- ``unread``: the public functions, classes and methods of ``src/mixdisc``
  that no module of it reads, the package's re-exports in ``__init__``
  aside, and that nothing in ``perfbench/`` names, each as ``module.name``
  or ``module.Class.method``, then their count.  Code reads a name when it
  names it as a variable, an attribute or an import; in ``perfbench/`` a
  string that is a dotted name counts too, since its tracer names the
  functions it wraps that way.  No library route, command or benchmark
  calls what is listed.
"""

import argparse
import ast
import re
import sys
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mixdisc  # noqa: E402
from mixdisc.cli import build_parser  # noqa: E402
from mixdisc.core import Tolerances  # noqa: E402


def _options(parser: argparse.ArgumentParser, skip=()) -> dict:
    """Each option string of ``parser`` but ``--help`` and ``skip``, with its
    number of choices."""
    return {
        action.option_strings[-1]: len(action.choices) if action.choices else 1
        for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
        and action.option_strings[-1] not in skip
    }



def _names(tree: ast.AST, strings: bool = False) -> set:
    """The names that the code of ``tree`` reads, with the parts of each
    string that is a dotted name when ``strings`` is set."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\w+(\.\w+)*", node.value):
                out.update(node.value.split("."))
    return out


def unread() -> list:
    """The public functions, classes and methods of ``src/mixdisc`` that no
    module of it reads, the package's re-exports aside, and that nothing in
    ``perfbench/`` names."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "mixdisc").glob("*.py"))
        if path.stem != "__init__"
    }
    bench = (ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / "perfbench").rglob("*.py"))
    read = set().union(*map(_names, trees.values()), *(_names(tree, strings=True) for tree in bench))
    found = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in read:
                found.append(f"{stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{stem}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                    and item.name not in read
                ]
    return found


if __name__ == "__main__":
    parser = build_parser()
    print(f"exports {len(mixdisc.__all__)}")
    print("tolerances", *(f.name for f in fields(Tolerances)))
    root = _options(parser)
    total = 2 * len(root)
    print(f"tolerance flags {len(root)}, before or after the subcommand: {2 * len(root)}")
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in commands.choices.items():
        own = _options(sub, skip=root)
        total += sum(own.values())
        print(name, *(f"{opt}[{k}]" for opt, k in own.items()), sum(own.values()))
    print(f"settable {total}")
    names = unread()
    print("unread", *names, len(names))
