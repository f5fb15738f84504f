"""README's "Invariants" chapter is an index: each invariant names the
tier-1 tests that guard it and the `tests/mutants.py` rows that break it.
These tests keep the index in step with both files, using the standard
library and `ast` only; they do not run the mutants."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def invariants() -> list[str]:
    """The bullets of README's "Invariants" chapter, each as one string."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    chapter = readme.split("\n## Invariants\n")[1].split("\n## ")[0]
    return ["- " + bullet for bullet in chapter.split("\n- ")[1:]]


def node_ids(bullet: str) -> list[str]:
    """The pytest node ids a bullet names, without parametrize ids."""
    return [node.split("[")[0] for node in re.findall(r"`(tests/[^`]+::[^`]+)`", bullet)]


def mutant_names(bullet: str) -> list[str]:
    """The mutants a bullet names: the code spans after its `Mutants:`."""
    _, _, named = bullet.partition("Mutants:")
    return re.findall(r"`([^`]+)`", named)


def mutant_rows() -> list[str]:
    """The name of each `MUTANTS` row of tests/mutants.py, read by `ast`."""
    tree = ast.parse((ROOT / "tests" / "mutants.py").read_text(encoding="utf-8"))
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["MUTANTS"]
    ]
    return [ast.literal_eval(row.args[0]) for row in table.elts]


def defines(path: Path, names: list[str]) -> bool:
    """Whether the module at path defines the class and function `names`
    (a module-level function, or a class then one of its methods)."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        found = [
            node for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        ]
        if not found:
            return False
        body = found[0].body
    return True


def test_every_invariant_names_a_test_and_a_mutant():
    bullets = invariants()
    assert len(bullets) >= 10
    for bullet in bullets:
        assert node_ids(bullet), bullet
        assert mutant_names(bullet), bullet


def test_every_named_test_exists():
    missing = []
    for bullet in invariants():
        for node in node_ids(bullet):
            path, *names = node.split("::")
            if not (ROOT / path).is_file() or not defines(ROOT / path, names):
                missing.append(node)
    assert missing == []


def test_every_named_mutant_is_a_row_and_every_row_is_named():
    named = [name for bullet in invariants() for name in mutant_names(bullet)]
    rows = mutant_rows()
    assert sorted(set(named) - set(rows)) == []
    assert sorted(set(rows) - set(named)) == []
