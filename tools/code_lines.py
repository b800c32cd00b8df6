"""Count the lines of Python source that hold code.

A line counts when a token of a statement starts on it, ends on it or spans
it. Comments, blank lines and docstrings do not count; a docstring here is
any statement made only of string literals. Prints one count per module and
a total.

Usage: python tools/code_lines.py [PATH ...]   (default: src/clbacktest)
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# Tokens that hold no code of their own.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """Number of lines of ``path`` that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with tokenize.open(path) as handle:
        for token in tokenize.generate_tokens(handle.readline):
            if token.type not in _LAYOUT:
                statement.append(token)
            elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(part.type != tokenize.STRING for part in statement):
                    for part in statement:
                        lines.update(range(part.start[0], part.end[0] + 1))
                statement = []
    return len(lines)


def modules(paths: list[str]) -> list[Path]:
    """The ``.py`` files named by ``paths``, directories searched recursively."""
    found: list[Path] = []
    for name in paths:
        path = Path(name)
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str]) -> int:
    total = 0
    for path in modules(argv or ["src/clbacktest"]):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
