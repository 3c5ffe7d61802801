"""The reference computations stay independent of the engine they check."""

import ast
from pathlib import Path

ENGINE = {
    f"butlercad.{m}"
    for m in ("network", "components", "butler", "report", "cli", "touchstone")
}


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            # ``from butlercad import network`` names the module as an alias
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_oracles_never_import_the_engine():
    source = Path(__file__).with_name("oracles.py").read_text()
    hits = [
        module
        for module in _imported_modules(ast.parse(source))
        if any(module == m or module.startswith(m + ".") for m in ENGINE)
    ]
    assert not hits, f"oracles.py imports the engine: {hits}"
