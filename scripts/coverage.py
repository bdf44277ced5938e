"""Line coverage of src/nxnflow under pytest, from the standard library alone.

    python scripts/coverage.py [pytest arguments...]
    python scripts/coverage.py tests/test_tensor.py -q

Runs pytest in this process with a ``sys.settrace`` hook that records the
lines executed in the package's modules, then prints, per module, the
statement lines that no test ran (ranges as ``a-b``). Statement lines are
the line numbers of each compiled module's bytecode, nested functions and
classes included. Code that tests run in a subprocess is not seen. The
exit code is pytest's.
"""

from __future__ import annotations

import os
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "nxnflow")


def statement_lines(path: str) -> set:
    """The line numbers that carry bytecode in the module at path."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        c = todo.pop()
        lines.update(line for _, _, line in c.co_lines() if line)
        todo.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    return lines


def ranges(lines) -> str:
    """Sorted line numbers as comma-separated numbers and a-b runs."""
    out, lines = [], sorted(lines)
    start = prev = lines[0]
    for line in lines[1:] + [None]:
        if line != prev + 1:
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = line
        prev = line
    return ", ".join(out)


def main(args) -> int:
    ran = {}  # file -> set of executed lines

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        ran.setdefault(path, set()).add(frame.f_lineno)
        return local

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = statement_lines(path)
        unrun = lines - ran.get(path, set())
        total, missed = total + len(lines), missed + len(unrun)
        print(f"{name}: {len(unrun)} of {len(lines)} statement lines not run"
              + (f": {ranges(unrun)}" if unrun else ""))
    print(f"total: {missed} of {total} statement lines not run")
    return int(code)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    raise SystemExit(main(sys.argv[1:]))
