"""Rules on the layout of `src/noninner/`, read from its syntax trees.

Values computed once per group are kept by one memo, `pcgroup.per_group`,
whose rule is that no kept value refers back to the group.  A hand-written
`group._cache` block elsewhere could break that rule unseen, so only the
memo and `PcGroup.__init__` (which makes the cache) may touch the cache.
And no function or class is there only for the tests."""

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


def _referenced_outside_tests() -> set[str]:
    """Names the program itself reaches: every name and attribute read in
    `src/noninner/` (its docstrings do not count), `noninner.__all__`, the
    `[project.scripts]` entry points and the names that the benchmark's
    tracer wraps (the first part of each, a function or class)."""
    import re

    import noninner
    from test_tracer_names import _tracer_module

    names = set(noninner.__all__)
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    names.update(re.findall(r'=\s*"[\w.]+:(\w+)"', scripts))
    tracer = _tracer_module()
    names.update(qualname.split(".")[0] for _, qualname in tracer.SPANNED + tracer.AGGREGATED)
    return names


def test_every_module_level_definition_is_used_by_the_program():
    """No function or class in `src/noninner/` that only the tests reach:
    each module-level definition is referenced by the program, exported,
    an entry point or traced by the benchmark."""
    used = _referenced_outside_tests()
    defined = [
        (path.name, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    assert len(defined) > 50
    assert [site for site in defined if site[1] not in used] == []
