"""Count the code lines of Python modules: lines that hold code, not
counting docstrings, comments or blank lines.

    python3 tests/support/code_lines.py [--parent TREE] [PATH ...]

Each PATH is a module or a directory of them (default: src/hyhe).  It
prints each module's count and the total.  With --parent, each PATH is
read under the tree TREE too, and each module and the total print as
TREE's count -> the count here; a module on one side only reads 0 on the
other.  A line counts if some token on it is code: a comment or a
docstring (the string that opens a module, class or function) is not, and
a statement that spans several lines counts each of them.
"""

import argparse
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


def counts(paths, tree=""):
    """{module: code lines} of the modules under each of paths, read under
    tree and named as under it."""
    out = {}
    for path in paths:
        for module in modules(os.path.join(tree, path)):
            with open(module, encoding="utf-8") as f:
                out[os.path.relpath(module, tree) if tree else module] = \
                    code_lines(f.read())
    return out


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", metavar="TREE")
    parser.add_argument("paths", nargs="*", default=["src/hyhe"])
    opts = parser.parse_args(argv)
    change = counts(opts.paths)
    if opts.parent is None:
        for module, count in change.items():
            print(f"{count:6d}  {module}")
        print(f"{sum(change.values()):6d}  total")
        return
    parent = counts(opts.paths, opts.parent)
    for module in sorted(parent.keys() | change.keys()):
        print(f"{parent.get(module, 0):6d} -> {change.get(module, 0):6d}  "
              f"{module}")
    print(f"{sum(parent.values()):6d} -> {sum(change.values()):6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
