"""Every function, class and method the library defines is used: a
definition that nothing in ``src/``, ``tests/`` or ``perfbench/`` names is
dead, and goes."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def definitions(tree: ast.AST) -> list[str]:
    """The names of the functions, classes and methods defined in a
    module, nested ones included, less the dunder methods that Python
    calls itself."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def references(tree: ast.AST) -> set[str]:
    """Every name a module reads: a bare name, an attribute, or an imported
    name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_library_definition_is_referenced():
    used = set()
    for part in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / part).rglob("*.py")):
            used |= references(parse(path))
    defined = {(path.name, name)
               for path in sorted((ROOT / "src" / "aggforest").glob("*.py"))
               for name in definitions(parse(path))}
    assert len(defined) > 100
    dead = sorted(f"{module}: {name}" for module, name in defined
                  if name not in used)
    assert not dead, "defined but never referenced: " + ", ".join(dead)
