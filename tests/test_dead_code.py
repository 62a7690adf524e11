"""Static check of the package source: every top-level function and class,
every method and every module-level assignment is used somewhere other than
its own definition, every module-level import is used by the module that
makes it, every function-level import breaks an import cycle, every
defaulted parameter is passed by some call in the package or the benchmark,
not by the tests alone (the console-script entry `cli.main(argv)` is the one
exception), and every public top-level name is exported from
`dslforge/__init__.py` or used by the package or the benchmark, not by the
tests alone.  No module divides with `/` except to join a path with a name:
the quotient of two int coefficients is a float, so every exact division is
spelled Fraction(p, q).

A use is any name read or attribute in `src/dslforge`, `tests/` or `bench/`,
an import of the name, or an export from `dslforge/__init__.py`.  Dunder
names are used by the language and never count as dead.  Calls are matched
to definitions by name alone, and a call that passes *args or **kw counts as
passing every parameter.
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
            if not isinstance(sub.ctx, ast.Store):
                out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.split(".")[-1]] += 1
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class, each
    method, and each name bound by a module-level assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, sub


def unreferenced_definitions(package: Path, *others: Path) -> list[str]:
    trees = _trees(package, *others)
    used = sum((_names(tree) for tree in trees.values()), Counter())
    dead = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for qualname, node in _definitions(tree):
            name = qualname.split(".")[-1]
            if not _is_dunder(name) and used[name] - _names(node)[name] <= 0:
                dead.append(f"{path.stem}.{qualname}")
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


def _defaulted_parameters(tree: ast.Module):
    """(qualified name, position, parameter) of each defaulted parameter of a
    non-dunder function or method.  position counts the positional arguments
    a call passes before it (self or cls not included), None when the
    parameter is keyword-only."""
    for qualname, node in _definitions(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if _is_dunder(qualname.split(".")[-1]):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        shift = 1 if "." in qualname and not static else 0
        for i in range(first, len(positional)):
            yield qualname, i - shift, positional[i].arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualname, None, arg.arg


def _calls(trees) -> dict[str, tuple[int, set] | None]:
    """Callee name -> (most positional arguments, keyword names) over every
    call by that name, or None when some call passes *args or **kw."""
    out: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None or (name in out and out[name] is None):
                continue
            keywords = {k.arg for k in node.keywords}
            if None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
                out[name] = None
                continue
            count, seen = out.get(name, (0, set()))
            out[name] = (max(count, len(node.args)), seen | keywords)
    return out


def unpassed_parameters(package: Path, *others: Path) -> list[str]:
    """Each defaulted parameter that no call in the given trees passes, by
    keyword or by position: a knob that always takes its default."""
    trees = _trees(package, *others)
    calls = _calls(trees.values())
    dead = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for qualname, position, param in _defaulted_parameters(tree):
            seen = calls.get(qualname.split(".")[-1], (0, set()))
            if seen is None or param in seen[1]:
                continue
            if position is None or seen[0] <= position:
                dead.append(f"{path.stem}.{qualname}({param})")
    return dead


def _strings(tree: ast.Module) -> Counter:
    return Counter(
        sub.value for sub in ast.walk(tree)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    )


def public_names_only_tests_use(package: Path, bench: Path) -> list[str]:
    """Each top-level name of the package without a leading underscore that
    dslforge/__init__.py does not export and that neither the package nor
    the benchmark uses outside its own definition.  A string constant in the
    benchmark counts as a use, because its tracer wraps functions by name."""
    trees = _trees(package, bench)
    exported = _names(trees[package / "__init__.py"])
    used = sum((_names(tree) for tree in trees.values()), Counter())
    for path, tree in trees.items():
        if bench in path.parents:
            used += _strings(tree)
    found = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for name, node in _definitions(tree):
            if "." in name or name.startswith("_") or exported[name]:
                continue
            if used[name] - _names(node)[name] <= 0:
                found.append(f"{path.stem}.{name}")
    return found


def true_divisions(package: Path) -> list[str]:
    """Each `/` or `/=` in the package, except a path join in cache.py: a
    division there whose right operand is a string or an f-string."""
    found = []
    for path, tree in _trees(package).items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                right = node.right if isinstance(node, ast.BinOp) else node.value
                is_name = isinstance(right, ast.JoinedStr) or (
                    isinstance(right, ast.Constant) and isinstance(right.value, str)
                )
                if not (path.name == "cache.py" and is_name):
                    found.append(f"{path.stem}:{node.lineno}")
    return found


def test_every_definition_is_referenced() -> None:
    assert unreferenced_definitions(_PACKAGE, _ROOT / "tests", _ROOT / "bench") == []


def test_every_module_level_import_is_used() -> None:
    assert unused_imports(_PACKAGE) == []


def test_every_function_level_import_breaks_a_cycle() -> None:
    assert needless_function_imports(_PACKAGE) == []


def test_every_defaulted_parameter_is_passed_somewhere() -> None:
    assert unpassed_parameters(_PACKAGE, _ROOT / "tests", _ROOT / "bench") == []


def test_every_defaulted_parameter_is_passed_outside_the_tests() -> None:
    # the installed console script calls main() with no argument
    assert unpassed_parameters(_PACKAGE, _ROOT / "bench") == ["cli.main(argv)"]


def test_every_public_name_is_exported_or_used_outside_the_tests() -> None:
    assert public_names_only_tests_use(_PACKAGE, _ROOT / "bench") == []


def test_no_true_division_outside_path_joins() -> None:
    assert true_divisions(_PACKAGE) == []
