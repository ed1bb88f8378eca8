"""Line counts of the `garsidehyp` package, per module and in total.

Code lines are the lines that hold a token other than a comment, a newline or
indentation, leaving out the lines of module, class and function docstrings.
All lines are the lines of the file.  Run from the repository root:

    python tools/count_lines.py
"""

import ast
import io
import pathlib
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(text: str) -> tuple[int, int]:
    """(code lines, all lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(code), len(text.splitlines())


def main() -> None:
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "garsidehyp"
    total = [0, 0]
    print(f"{'module':<16}{'code':>8}{'all':>8}")
    for path in sorted(root.glob("*.py")):
        got = counts(path.read_text())
        total = [t + g for t, g in zip(total, got)]
        print(f"{path.name:<16}{got[0]:>8}{got[1]:>8}")
    print(f"{'total':<16}{total[0]:>8}{total[1]:>8}")


if __name__ == "__main__":
    main()
