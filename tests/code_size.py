"""Print the size of each module of src/polysum, as ROADMAP item 5 counts it.

    python tests/code_size.py

For each module: its total lines, as wc -l counts them, and its code-only
lines, those that hold a token other than a comment and that lie outside
every docstring.  Docstrings are the first string statements of a module,
class or function, as ast.get_docstring finds them; comments and blank lines
are found by tokenize.  A string literal that spans lines counts each of its
lines as code.  The last row is the sums.  The script reads the files only;
it imports nothing from the package and gates nothing.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polysum"
PROSE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def sizes(text: str) -> tuple[int, int]:
    """(total lines, code-only lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in PROSE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstrings)


def main() -> None:
    rows = [(path.stem, *sizes(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]
    rows.sort(key=lambda row: -row[1])
    rows.append(("src/", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    print("| module | total | code only |")
    print("|---|---|---|")
    for name, total, code in rows:
        print(f"| `{name}` | {total} | {code} |")


if __name__ == "__main__":
    main()
