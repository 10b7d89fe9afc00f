#!/usr/bin/env python3
"""Count lines, code lines and tokens of the Python files under each path.

A code line holds at least one counted token.  Comments, blank lines and
strings that are a whole statement (docstrings) are not counted; the
layout tokens (newlines, indents, dedents, end marker) are not tokens
either.  A directory counts every *.py file below it.

    python scripts/count_lines.py src tests
"""

import argparse
import tokenize
from pathlib import Path

NOT_COUNTED = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
               tokenize.ENDMARKER, tokenize.COMMENT}


def count_file(path: Path) -> tuple[int, int, int]:
    """(lines, code lines, tokens) of one Python file."""
    with path.open("rb") as f:
        source = f.read()
        f.seek(0)
        tokens = list(tokenize.tokenize(f.readline))
    code_lines: set[int] = set()
    counted = 0
    statement: list[tokenize.TokenInfo] = []
    for tok in tokens[1:]:  # tokens[0] is the encoding
        if tok.type in NOT_COUNTED:
            if tok.type == tokenize.NEWLINE and statement:
                if not all(t.type == tokenize.STRING for t in statement):
                    counted += len(statement)
                    code_lines.update(n for t in statement
                                      for n in range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(source.splitlines()), len(code_lines), counted


def count_path(path: Path) -> tuple[int, int, int]:
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    counts = [count_file(f) for f in files]
    return tuple(sum(c[k] for c in counts) for k in range(3))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path)
    args = parser.parse_args()
    rows = [(str(p), *count_path(p)) for p in args.paths]
    if len(rows) > 1:
        rows.append(("total", *map(sum, zip(*(r[1:] for r in rows)))))
    print(f"{'path':<24} {'lines':>7} {'code':>7} {'tokens':>7}")
    for name, lines, code, toks in rows:
        print(f"{name:<24} {lines:>7,} {code:>7,} {toks:>7,}")


if __name__ == "__main__":
    main()
