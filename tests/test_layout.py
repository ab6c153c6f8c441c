"""Dead-code guard for the package, read off its syntax trees (``ast``), so
it runs no package code.

- Every module-level function, class and constant of ``src/poisson_malliavin``
  is read somewhere in ``src/`` or ``perfbench/`` outside its own body (as a
  bare name or as an attribute), or is exported through an ``__all__``.
- Every module but ``__init__`` uses each name it imports, where a name in
  that module's own ``__all__`` counts as used.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "poisson_malliavin"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reads(node: ast.AST) -> Counter:
    """Names read under ``node``: bare-name loads and loaded attributes."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
    return out


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def _definitions(tree: ast.Module):
    """(name, node) of each module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node


def _imported(tree: ast.Module):
    """(bound name, line) of each import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_module_level_name_is_read_or_exported():
    package = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    corpus = [*package.values(), *map(_parse, sorted((ROOT / "perfbench").glob("*.py")))]
    reads = sum(map(_reads, corpus), Counter())
    exported = set().union(*map(_exported, package.values()))
    dead = [
        f"{path.name}:{node.lineno} {name}"
        for path, tree in package.items()
        for name, node in _definitions(tree)
        if name not in exported and reads[name] - _reads(node)[name] <= 0
    ]
    assert not dead, f"module-level names nothing reads: {dead}"


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        used = set(_reads(tree)) | _exported(tree)
        unused += [
            f"{path.name}:{line} {name}" for name, line in _imported(tree) if name not in used
        ]
    assert not unused, f"imported and never used: {unused}"
