"""Lines of each ``src/qot`` module: physical lines and code lines.

A code line holds a token that is not a comment or part of a docstring (of
the module, a class or a function); blank lines, comment lines and docstring
lines do not count.  With a git ref, the ref's counts are read from git and
printed beside the working tree's, with the difference (working tree minus
ref), so that a change reports its net lines in both measures.

Usage::

    python3 tools/loc.py           # the working tree
    python3 tools/loc.py HEAD~1    # the working tree against HEAD~1
"""

from __future__ import annotations

import ast
import io
import os
import subprocess
import sys
import tokenize

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "src/qot"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def counts(source: str) -> tuple[int, int]:
    """``(physical lines, code lines)`` of a Python source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO, check=True, capture_output=True, text=True
    ).stdout


def tree_counts(ref: str | None) -> dict[str, tuple[int, int]]:
    """``{module: counts}`` of the package in the working tree, or at ``ref``."""
    if ref is None:
        folder = os.path.join(REPO, PACKAGE)
        names = sorted(n for n in os.listdir(folder) if n.endswith(".py"))
        sources = {}
        for name in names:
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    else:
        paths = _git("ls-tree", "--name-only", f"{ref}:{PACKAGE}").split()
        sources = {n: _git("show", f"{ref}:{PACKAGE}/{n}") for n in paths if n.endswith(".py")}
    return {name: counts(source) for name, source in sources.items()}


def table(ref: str | None) -> list[str]:
    """The printed rows: per module and in total, the working tree's lines and
    code lines, and with ``ref`` the ref's and the difference."""
    now = tree_counts(None)
    then = tree_counts(ref) if ref is not None else {}
    header = f"{'module':<16}{'lines':>8}{'code':>8}"
    if ref is not None:
        header += f"{'ref lines':>11}{'ref code':>10}{'d lines':>9}{'d code':>8}"
    rows = [header]
    names = sorted(set(now) | set(then))
    for name in names + ["total"]:
        if name == "total":
            a = tuple(sum(c[i] for c in now.values()) for i in (0, 1))
            b = tuple(sum(c[i] for c in then.values()) for i in (0, 1))
        else:
            a, b = now.get(name, (0, 0)), then.get(name, (0, 0))
        row = f"{name:<16}{a[0]:>8}{a[1]:>8}"
        if ref is not None:
            row += f"{b[0]:>11}{b[1]:>10}{a[0] - b[0]:>+9}{a[1] - b[1]:>+8}"
        rows.append(row)
    return rows


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: tools/loc.py [REF]", file=sys.stderr)
        return 2
    try:
        rows = table(argv[0] if argv else None)
    except subprocess.CalledProcessError as exc:
        print(f"git {' '.join(exc.cmd[1:])}: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
