"""Values computed once per group are kept by one memo, `pcgroup.per_group`,
whose rule is that no kept value refers back to the group.  A hand-written
`group._cache` block elsewhere could break that rule unseen, so only the
memo and `PcGroup.__init__` (which makes the cache) may touch the cache."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "noninner"

ALLOWED = {
    ("pcgroup.py", ("per_group",)),
    ("pcgroup.py", ("PcGroup", "__init__")),
}


def _cache_scopes(tree: ast.AST) -> list[tuple[str, ...]]:
    """The enclosing class and function names of every `._cache`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Attribute) and child.attr == "_cache":
                found.append(scope)
            visit(child, inner)

    visit(tree, ())
    return found


def _owner(name: str, scope: tuple[str, ...]):
    """The allowed place that holds a `._cache` of file `name` at `scope`,
    or None."""
    return next(((n, a) for n, a in ALLOWED if n == name and scope[: len(a)] == a), None)


def test_only_the_memo_touches_the_group_cache():
    owners = {}
    for path in sorted(SRC.glob("*.py")):
        for scope in _cache_scopes(ast.parse(path.read_text())):
            owners[path.name, ".".join(scope)] = _owner(path.name, scope)
    assert [site for site, owner in owners.items() if owner is None] == []
    # each allowed place is still found, so the scan reads the right code
    assert set(owners.values()) == ALLOWED
