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


# Modules that only `ablate`'s forked sweep needs: importing multiprocessing
# and concurrent.futures costs about 21 ms, which no other command should pay.
DEFERRED_IMPORTS = ("multiprocessing", "concurrent.futures", "ctypes")


def _module_level_imports(tree: ast.Module) -> list[str]:
    """The modules a file imports outside any function or class body."""
    names, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        todo.extend(ast.iter_child_nodes(node))
    return names


def test_no_module_imports_the_worker_pool_at_module_level():
    found = [
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        if any(name == d or name.startswith(d + ".") for d in DEFERRED_IMPORTS)
    ]
    assert found == []
