"""Count the code lines of Python modules: lines that hold code, not
counting docstrings, comments or blank lines.

    python3 tests/support/code_lines.py [PATH ...]

Each PATH is a module or a directory of them (default: src/hyhe).  It
prints each module's count and the total.  A line counts if some token on
it is code: a comment or a docstring (the string that opens a module,
class or function) is not, and a statement that spans several lines
counts each of them.
"""

import ast
import io
import os
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source):
    """The number of lines of source that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIP:
            continue
        span = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.STRING and tok.start[0] in docstrings:
            continue
        lines.update(span)
    return len(lines)


def modules(path):
    """The .py files under path (itself, if it is one), sorted."""
    if os.path.isfile(path):
        return [path]
    return sorted(os.path.join(root, name)
                  for root, _, names in os.walk(path)
                  for name in names if name.endswith(".py"))


def main(argv):
    total = 0
    for path in argv or ["src/hyhe"]:
        for module in modules(path):
            with open(module, encoding="utf-8") as f:
                count = code_lines(f.read())
            total += count
            print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
