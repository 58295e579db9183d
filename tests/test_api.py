"""Public names resolve, and no module imports or assigns a name it never uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import kscope

SRC = Path(kscope.__file__).parent
# importing __main__ runs the CLI
MODULES = ["kscope"] + [
    f"kscope.{m.name}" for m in pkgutil.iter_modules([str(SRC)]) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _unused_imports(path: Path) -> list:
    """Imported names that no expression of the module refers to.

    Quoted annotations are not read; the package quotes only its own
    class names.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


# __init__.py imports names only to re-export them
@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _unused_locals(path: Path) -> list:
    """Names a function binds by plain assignment and never reads.

    Tuple targets and ``_``-prefixed names are left alone, as are names a
    function declares ``global`` or ``nonlocal``.  A read in a nested
    function counts as a read.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(func))
        kept = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        kept.update(name for n in nodes if isinstance(n, (ast.Global, ast.Nonlocal))
                    for name in n.names)
        for node in nodes:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("_") and t.id not in kept:
                    found.add(f"{path.name}:{t.lineno} {t.id}")
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert _unused_locals(path) == []
