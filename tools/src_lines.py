"""Count the lines of each module under ``src/robustpca`` in two source trees.

    python tools/src_lines.py OLD_TREE NEW_TREE

For every module of either tree the script prints its total lines and its
code lines in both trees and the differences, then the totals.  Code lines
leave out blank lines, comment-only lines and the lines of docstrings
(module, class and function docstrings, found with ``ast``), so deleting a
comment or a docstring does not read as simpler code.  A module that only
one tree has counts 0 in the other.
"""

import ast
import sys
from pathlib import Path


def counts(path):
    """``(total lines, code lines)`` of the Python file ``path``; (0, 0) if absent."""
    if not path.exists():
        return 0, 0
    text = path.read_text()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = text.splitlines()
    code = sum(1 for i, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#") and i not in docs)
    return len(lines), code


def main(old, new):
    trees = [Path(old) / "src" / "robustpca", Path(new) / "src" / "robustpca"]
    names = sorted({p.name for tree in trees for p in tree.glob("*.py")})
    rows = [(name, *counts(trees[0] / name), *counts(trees[1] / name)) for name in names]
    rows.append(("TOTAL", *(sum(column) for column in list(zip(*rows))[1:])))
    print("%-16s %9s %9s %6s %9s %9s %6s" % ("module", "old total", "new total", "diff",
                                            "old code", "new code", "diff"))
    for name, old_total, old_code, new_total, new_code in rows:
        print("%-16s %9d %9d %+6d %9d %9d %+6d" % (name, old_total, new_total,
                                                   new_total - old_total, old_code, new_code,
                                                   new_code - old_code))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
