"""The package holds only what its commands run: code that only tests call
belongs in tests/oracles.py."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "smd"

# Entry points, called from outside the package.
ENTRY_POINTS = {("cli", "main")}


def test_every_public_definition_is_used_inside_the_package():
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports are not uses
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [
            (path.stem, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert defined
    unused = [d for d in defined if d[1] not in used and d not in ENTRY_POINTS]
    assert unused == []
