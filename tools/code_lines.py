"""Count the lines of Python *code*: no docstrings, comments or blanks.

A physical line counts when a token of code starts on it or spans it.
A statement that is nothing but a string literal — a docstring, or a
string standing in for a comment — is not code.

Usage::

    python tools/code_lines.py src               # the working tree
    python tools/code_lines.py --base REV src    # REV, HEAD and the net

With ``--base`` both sides are read from git (``REV`` and ``HEAD``), so
the working tree does not matter.  Only stdlib.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def code_lines(source: str) -> int:
    """The number of physical lines of ``source`` that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []

    def close() -> None:
        if not all(t.type == tokenize.STRING for t in statement):
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
        statement.clear()

    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            close()
        elif tok.type not in _NOT_CODE:
            statement.append(tok)
    close()  # a last statement without its NEWLINE
    return len(lines)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True
    ).stdout


def count_at(rev: str, paths: list[str]) -> int:
    names = _git("ls-tree", "-r", "--name-only", rev, "--", *paths).split()
    return sum(
        code_lines(_git("show", f"{rev}:{name}"))
        for name in names
        if name.endswith(".py")
    )


def count_tree(paths: list[str]) -> int:
    """Code lines in ``paths``: a ``.py`` file counts as itself, a
    directory as the ``.py`` files under it.  A path that does not
    exist is an error, not zero lines."""
    files: list[Path] = []
    for p in map(Path, paths):
        if not p.exists():
            raise FileNotFoundError(f"no such file or directory: {p}")
        files += [p] if p.is_file() else sorted(p.rglob("*.py"))
    return sum(code_lines(f.read_text(encoding="utf-8")) for f in files)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+")
    parser.add_argument("--base", help="a git revision to compare HEAD to")
    args = parser.parse_args(argv)
    where = " ".join(args.paths)
    if args.base is None:
        try:
            count = count_tree(args.paths)
        except FileNotFoundError as exc:
            parser.error(str(exc))
        print(f"{count} code lines under {where}")
        return 0
    base, head = count_at(args.base, args.paths), count_at("HEAD", args.paths)
    print(
        f"code lines under {where} since {args.base[:7]}: "
        f"{base} -> {head} = {head - base:+d} net"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
