"""List the statements of ``src/robustpca`` that no tier-1 test runs.

    python tools/unexercised.py

The script runs the tier-1 set (``pytest -q`` with the ``testpaths`` of
``pyproject.toml``) in-process on the checkout that holds it, under a
``sys.settrace`` line tracer that records only frames whose code lies in
that checkout's ``src/robustpca``.  It then prints, per module, each
statement that never ran (line number and source line), and the total.

Statements are the ``ast`` statements of each module, without docstrings,
``def`` and ``class`` lines, imports, and ``nonlocal``/``global``
declarations.  A statement ran if a line event fell on one of its lines
(for a compound statement, the lines of its header); a ``try``, which
executes no code of its own, ran if the first statement of its body did.

The demo tests run the demos in subprocesses, which are not traced, so the
statements that only the demos reach are listed.  Tracing makes the run
slower (about 72 s instead of 52 s on a 2-core x86-64).  The exit code is
pytest's.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "robustpca"


def statements(tree):
    """The counted statements of the module ``tree``, as ``(line, lines)``: the
    statement's first line and the lines on which a line event marks it as run."""
    out = []

    def visit(body):
        for i, node in enumerate(body):
            if (i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue  # a docstring
            blocks = [getattr(node, f, []) for f in ("body", "orelse", "finalbody")]
            blocks = [b for b in blocks + [h.body for h in getattr(node, "handlers", [])] if b]
            if isinstance(node, ast.Try):
                first = node.body[0]
                out.append((node.lineno, range(first.lineno, first.end_lineno + 1)))
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                       ast.Import, ast.ImportFrom, ast.Nonlocal, ast.Global)):
                header_end = blocks[0][0].lineno - 1 if blocks else node.end_lineno
                out.append((node.lineno, range(node.lineno, header_end + 1)))
            for block in blocks:
                visit(block)

    visit(tree.body)
    return out


def main():
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + os.sep
    ran = {}  # file name -> line numbers that had a line event

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen = ran.setdefault(name, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    import pytest

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        seen = ran.get(str(path), set())
        missed = [line for line, span in statements(ast.parse(source))
                  if not seen.intersection(span)]
        if missed:
            text = source.splitlines()
            print("\n%s: %d" % (path.relative_to(ROOT), len(missed)))
            for line in missed:
                print("  %5d  %s" % (line, text[line - 1].strip()))
        total += len(missed)
    print("\n%d statements never ran" % total)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
