"""Every public top-level name of the library is used by the program itself:
by the package, a script or the benchmark, not by tests alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def defined(statement: ast.stmt) -> set[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def named(statement: ast.stmt) -> set[str]:
    """Every identifier, attribute, imported name and string a statement reads."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Attribute, ast.alias)):
            names.add(node.attr if isinstance(node, ast.Attribute) else node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)  # e.g. an attribute the benchmark patches by name
    return names


def test_every_public_library_name_is_used_outside_tests():
    used, public = set(), {}
    for path in sorted(p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            used |= named(statement) - defined(statement)  # a definition's use of itself does not count
            if path.parent == ROOT / "src" / "ivroute":
                public.update((name, path.name) for name in defined(statement) if not name.startswith("_"))
    unused = sorted(f"{module}: {name}" for name, module in public.items() if name not in used)
    assert not unused, f"public names only tests use: {unused}"
