"""Statements of ``src/mixdisc`` that the Tier-1 tests never run.

    python tests/unreached.py [pytest arguments]

Runs the Tier-1 suite in this process, through ``pytest.main`` with the
repository's own pytest settings plus any arguments given, under a line
tracer (``sys.settrace`` and ``threading.settrace``) that records only the
frames of ``src/mixdisc``.  Then it prints, per module, its count of
statements that never ran and each one's line, and their total.  The exit
status is pytest's, so the report alone fails nothing.

Statements are found with ``ast``.  Constant expression statements, the
docstrings among them, and ``nonlocal`` and ``global`` compile to no code,
so they are skipped.  A statement ran when a line event fell on one of its
own lines (those before its first nested statement) or when a nested
statement ran: a compound statement whose header holds no code of its own
(``try:``, ``while True:``) runs whenever its body does.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mixdisc"


def _traced_run(args):
    """pytest's exit code, and the set of lines run of each module of SRC
    that ran at all, by path."""
    import pytest

    prefix = str(SRC) + os.sep
    ran = {}  # code file name -> lines run, or None for a file outside SRC

    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ran:
            ran[name] = set() if os.path.realpath(name).startswith(prefix) else None
        return None if ran[name] is None else on_line

    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(list(args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path = {}
    for name, lines in ran.items():
        if lines is not None:
            by_path.setdefault(Path(os.path.realpath(name)), set()).update(lines)
    return code, by_path


def _blocks(node):
    """The statement lists nested directly in one statement."""
    for field in ("body", "orelse", "finalbody"):
        block = getattr(node, field, None)
        if isinstance(block, list) and block:
            yield block
    for clause in [*getattr(node, "handlers", []), *getattr(node, "cases", [])]:
        yield clause.body


def _unreached(stmts, ran: set, out: list) -> bool:
    """Whether any statement of ``stmts`` (or nested in one) ran; appends to
    ``out`` each one that did not."""
    any_ran = False
    for node in stmts:
        if isinstance(node, (ast.Global, ast.Nonlocal)) or (
            isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        ):
            continue
        blocks = list(_blocks(node))
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        last = min([s.lineno - 1 for block in blocks for s in block], default=node.end_lineno)
        # Evaluate every nested block, so that its own unreached statements are listed.
        inner = [_unreached(block, ran, out) for block in blocks]
        if any(inner) or not ran.isdisjoint(range(first, max(last, node.lineno) + 1)):
            any_ran = True
        else:
            out.append(node)
    return any_ran


def main(args) -> int:
    code, ran = _traced_run(args)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        missed = []
        _unreached(ast.parse(text).body, ran.get(path, set()), missed)
        total += len(missed)
        print(f"{path.stem} {len(missed)}")
        for node in sorted(missed, key=lambda node: node.lineno):
            print(f"  {path.name}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    print(f"total {total}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
