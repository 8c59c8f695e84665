"""Every name a module of the package imports is used in that module: read
as a name in its code, or exported through `__all__`.  An import left behind
by a change costs a load and misleads a reader about what the module needs."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "noninner"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module binds by an import, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = _used(tree)
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _imported(tree).items()
            if name not in used
        ]
    assert unused == []
