"""Line counts of the `rvqgen` modules.

    python3 scripts/code_lines.py [PACKAGE_DIR]

For each module of `src/rvqgen` (or of PACKAGE_DIR), in name order, prints
its `wc -l` count (newlines) and its code lines, then the totals of both.
A code line is a line that is not blank, not only a comment and not part
of a docstring: a line that some token other than a comment touches (a
string over several lines touches each of them), found with `tokenize`,
less the docstrings, found with `ast` (the string statement that opens a
module, class or function body). Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def counts(source):
    """(wc -l, code lines) of one module's source text."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()            # lines that a token other than a comment touches
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("package", nargs="?", default=os.path.join(ROOT, "src", "rvqgen"))
    args = ap.parse_args(argv)
    total = [0, 0]
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    for name in sorted(n for n in os.listdir(args.package) if n.endswith(".py")):
        with open(os.path.join(args.package, name), encoding="utf-8") as fh:
            wc, code = counts(fh.read())
        total = [total[0] + wc, total[1] + code]
        print(f"{name:<16}{wc:>8}{code:>8}")
    print(f"{'total':<16}{total[0]:>8}{total[1]:>8}")


if __name__ == "__main__":
    main()
