"""The package's own sources, parsed, for the tests that pin where a rule,
a message or a cache is written, and counted in code lines.

    PYTHONPATH=src python tests/package_ast.py

prints the code lines of each module of the package and their total.
"""

import ast
import io
import tokenize
from pathlib import Path

import weylirr


def package_sources() -> dict[str, str]:
    """Module name -> source text, for every module of the package."""
    package = Path(weylirr.__file__).parent
    sources = {path.stem: path.read_text()
               for path in sorted(package.glob("*.py"))}
    assert len(sources) >= 8
    return sources


def scoped_nodes(sources: dict[str, str]) -> list[tuple[str, ast.AST]]:
    """(dotted scope, node) for every node of every module in sources, as
    "module.Class.function"; a decorator is scoped to the function or
    class it decorates, and imports are skipped."""
    def walk(node, scope):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        yield scope, node
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)

    return [pair for module, text in sources.items()
            for pair in walk(ast.parse(text), module)]


def literal_scopes(sources: dict[str, str], value) -> list[str]:
    """The scope of each constant equal to value, once per occurrence."""
    return [scope for scope, node in scoped_nodes(sources)
            if isinstance(node, ast.Constant) and node.value == value]


def code_lines(sources: dict[str, str]) -> dict[str, int]:
    """Module name -> number of lines that hold code: a line that is
    blank or holds only a comment or part of a docstring is not
    counted."""
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
               tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    counts = {}
    for module, text in sources.items():
        docstrings = [
            ((doc.lineno, doc.col_offset),
             (doc.end_lineno, doc.end_col_offset))
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
            for doc in [node.body[0].value]]
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type in skipped or tok.type == tokenize.STRING and any(
                    start <= tok.start < end for start, end in docstrings):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
        counts[module] = len(lines)
    return counts


if __name__ == "__main__":
    counts = code_lines(package_sources())
    for module, count in counts.items():
        print(f"{module:12} {count:5}")
    print(f"{'total':12} {sum(counts.values()):5}")
