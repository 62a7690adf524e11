"""Static check of the package source: every top-level function and class is
used somewhere other than its own definition, and every module-level import
is used by the module that makes it.

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


def test_every_definition_is_referenced() -> None:
    assert unreferenced_definitions(_PACKAGE, _ROOT / "tests") == []


def test_every_module_level_import_is_used() -> None:
    assert unused_imports(_PACKAGE) == []
