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
  nothing.
"""

import argparse
import sys
from dataclasses import fields
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

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
