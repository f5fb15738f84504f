"""The package holds only what its commands run: code that only tests call
belongs in tests/oracles.py."""

import ast
import subprocess
import sys
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


# The modules that may make an activation workspace: `network`, whose
# `predict` makes one per scoring pass and whose `forward` makes one per
# call, and `boundary`, which makes one for a whole export.
WORKSPACE_MAKERS = {"boundary.py", "network.py"}


def test_workspaces_are_made_only_where_they_are_decided():
    makers = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "workspace"
    }
    assert makers <= WORKSPACE_MAKERS


# The functions that may copy a genome's `values` whole (`.copy()`,
# `.astype(...)`, `np.copy`, `np.array`), each once per pass or per
# network, never once per child: a scoring pass holds each child as a patch.
GENOME_COPIES = {
    ("evolution", "_evolve"),  # the chained parent, quantized once per generation
    ("training", "train_model"),  # the parameters being trained
    ("checkpoint", "save_checkpoint"),  # the float32 bytes of a checkpoint
}
# The functions that may allocate a float32 array: `network.predict`, whose
# pass holds one float32 parameter buffer and one float32 input array.
FLOAT32_ALLOCATORS = {("network", "predict")}


def _calls_by_function():
    """(module, function, call) for each call in a module-level function or
    a method, nested functions' calls counted as their enclosing one's."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for func in members:
                if isinstance(func, ast.FunctionDef):
                    for call in ast.walk(func):
                        if isinstance(call, ast.Call):
                            yield path.stem, func.name, call


def _is_values(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "values"


def _copies_values(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in ("copy", "astype") and _is_values(func.value):
        return True
    return func.attr in ("copy", "array") and bool(call.args) and _is_values(call.args[0])


def _allocates_float32(call: ast.Call) -> bool:
    name = getattr(call.func, "attr", getattr(call.func, "id", None))
    arguments = [*call.args, *(keyword.value for keyword in call.keywords)]
    return name in ("empty", "zeros", "ones", "full") and any(
        getattr(node, "attr", None) == "float32" for arg in arguments for node in ast.walk(arg)
    )


def test_genomes_are_copied_only_where_it_is_decided():
    """No scoring pass builds a float64 child genome: a whole copy of a
    genome's values, or a float32 allocation, outside the functions named
    above would let one come back unnoticed."""
    calls = list(_calls_by_function())
    copies = {(module, func) for module, func, call in calls if _copies_values(call)}
    float32 = {(module, func) for module, func, call in calls if _allocates_float32(call)}
    assert copies <= GENOME_COPIES
    assert float32 <= FLOAT32_ALLOCATORS
    assert ("network", "predict") in float32


# Modules that no command should pay to import at start-up: importing
# multiprocessing and concurrent.futures costs about 21 ms. `ctypes` is
# imported only by `workers._blas_threads`, on the first OpenBLAS pin, to
# find OpenBLAS's thread functions.
DEFERRED_IMPORTS = ("multiprocessing", "concurrent.futures", "ctypes")
# Modules no code of the package imports at all: its workers are plain
# forks (`workers.map_points`), which need no process pool.
POOL_IMPORTS = ("multiprocessing", "concurrent.futures")
# How work leaves the command process, which only `workers` decides: the
# forks and their reaping, the usable CPU count, and the OpenBLAS lookup.
PROCESS_MACHINERY = {"os.fork", "os.waitpid", "os.sched_getaffinity", "ctypes", "/proc/self/maps"}


def _imports(tree: ast.Module, module_level: bool = True) -> list[str]:
    """The modules a file imports: outside any function or class body, or
    anywhere."""
    names, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        scope = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        if module_level and isinstance(node, scope):
            continue
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        todo.extend(ast.iter_child_nodes(node))
    return names


def _found(names: tuple[str, ...], module_level: bool) -> list[tuple[str, str]]:
    return [
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _imports(ast.parse(path.read_text(encoding="utf-8")), module_level)
        if any(name == d or name.startswith(d + ".") for d in names)
    ]


def test_no_module_imports_the_worker_pool_at_module_level():
    assert _found(DEFERRED_IMPORTS, module_level=True) == []


def test_no_module_imports_a_process_pool():
    assert _found(POOL_IMPORTS, module_level=False) == []


def _process_machinery(tree: ast.Module) -> set[str]:
    """The `PROCESS_MACHINERY` a file imports, calls, reads or names."""
    names = set(_imports(tree, module_level=False))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names & PROCESS_MACHINERY


def test_only_workers_touches_processes_and_blas_threads():
    found = {
        path.name: _process_machinery(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: uses for name, uses in found.items() if uses} == {
        "workers.py": PROCESS_MACHINERY
    }


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    """Under this repo's pytest settings, where every warning is an error, a
    failing `@given` test is reported and the tests after it still run.
    Hypothesis's failure report imports libcst, which raises a
    DeprecationWarning; unfiltered, it ends the run with an INTERNALERROR
    and no summary."""
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None, max_examples=5)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x != x\n\n\n"
        "def test_passes():\n"
        "    pass\n",
        encoding="utf-8",
    )
    config = PACKAGE.parent.parent / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider", "-q",
         str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "1 failed, 1 passed" in done.stdout, output
    assert "INTERNALERROR" not in output
