"""Static check of the package source: every top-level function and class is
used somewhere other than its own definition, every module-level import is
used by the module that makes it, and every function-level import breaks an
import cycle.

A use is any name or attribute in `src/dslforge` or `tests/`, an import of
the name, or an export from `dslforge/__init__.py`.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "dslforge"


def _trees(*dirs: Path) -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for d in dirs
        for path in sorted(d.rglob("*.py"))
    }


def _names(node: ast.AST) -> Counter:
    """Every name read, every attribute and every imported name under node."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.split(".")[-1]] += 1
    return out


def unreferenced_definitions(package: Path, *others: Path) -> list[str]:
    trees = _trees(package, *others)
    used = sum((_names(tree) for tree in trees.values()), Counter())
    dead = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if used[node.name] - _names(node)[node.name] <= 0:
                    dead.append(f"{path.stem}.{node.name}")
    return dead


def unused_imports(package: Path) -> list[str]:
    dead = []
    for path, tree in _trees(package).items():
        if path.name == "__init__.py":
            continue  # its imports are the package's exports
        names = Counter(
            sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)
        )
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if not names[bound]:
                        dead.append(f"{path.stem}: {bound}")
    return dead


def _relative_targets(node: ast.ImportFrom) -> list[str]:
    """The package modules a relative `from .x import ...` names."""
    if node.level != 1:
        return []
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def _imports_transitively(graph: dict[str, set], start: str, target: str) -> bool:
    seen, todo = set(), [start]
    while todo:
        mod = todo.pop()
        if mod == target:
            return True
        if mod not in seen:
            seen.add(mod)
            todo.extend(graph.get(mod, ()))
    return False


def needless_function_imports(package: Path) -> list[str]:
    """Each function-level `from .x import` whose module x does not import the
    importing module at module level, directly or through other modules."""
    trees = {path.stem: tree for path, tree in _trees(package).items()}
    graph = {
        name: {
            t
            for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for t in _relative_targets(node)
        }
        for name, tree in trees.items()
    }
    found = []
    for name, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    for target in _relative_targets(node):
                        if not _imports_transitively(graph, target, name):
                            found.append(f"{name}:{node.lineno} imports {target}")
    return found


def test_every_definition_is_referenced() -> None:
    assert unreferenced_definitions(_PACKAGE, _ROOT / "tests") == []


def test_every_module_level_import_is_used() -> None:
    assert unused_imports(_PACKAGE) == []


def test_every_function_level_import_breaks_a_cycle() -> None:
    assert needless_function_imports(_PACKAGE) == []
