#!/usr/bin/env python3
"""Physical and code lines of the Python files directly under a directory.

    python3 scripts/loc.py src/sigmagraph

Prints one line per ``*.py`` file, in name order, then a total: the file's
physical lines and its code lines.  A code line is one that is not blank,
not only a comment, and not inside the docstring of the module, a class or
a function (found with ``ast``).  Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    lines = source.splitlines()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = sum(1 for number, line in enumerate(lines, 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)
    return len(lines), code


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not Path(args[0]).is_dir():
        print("usage: loc.py DIR", file=sys.stderr)
        return 2
    total = [0, 0]
    for path in sorted(Path(args[0]).glob("*.py")):
        physical, code = counts(path.read_text(encoding="utf-8"))
        total[0] += physical
        total[1] += code
        print(f"{physical:6} {code:6}  {path.name}")
    print(f"{total[0]:6} {total[1]:6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
