"""The package's own sources, parsed, for the tests that pin where a rule,
a message or a cache is written."""

import ast
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
