"""The surface rule: every name that `import randcol` binds is reached from
a workflow (the CLI, a row of harness._KINDS or harness._RECIPES, a verify
suite or the benchmark in perfbench/), or is a type that such a call
returns or raises. A name that only tests reach waits in ALLOWED, with the
ROADMAP item that will give it a caller; the list only shrinks."""

import ast
import types
from pathlib import Path

import randcol

SRC = Path(randcol.__file__).parent
PERFBENCH = Path(__file__).parent.parent / "perfbench"

# name: the ROADMAP item that will call it
ALLOWED = {
    "colouring_number": "item 1",
    "load_result": "item 13",
    "resilient_pair_detect": "item 4",
    "boundary_resilience_audit": "item 4",
    "resilient_pair_probability_bound": "item 4",
    "BoundConstants": "item 4",
}


def names_in(node) -> set:
    """The names and attribute names node reads, outside parameter
    annotations: a type a call only takes is not reached by it."""
    if isinstance(node, ast.arg):
        return set()
    found = {node.id} if isinstance(node, ast.Name) else (
        {node.attr} if isinstance(node, ast.Attribute) else set())
    for child in ast.iter_child_nodes(node):
        found |= names_in(child)
    return found


def definitions() -> dict:
    """Each top-level name of a randcol module: the names its definition reads."""
    defs: dict = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                          else [node.target]) if isinstance(t, ast.Name)]
            else:
                continue
            for name in targets:
                defs.setdefault(name, set()).update(names_in(node))
    return defs


def workflow_roots() -> set:
    """The names the CLI, the kind and recipe rows, the suites and the benchmark read."""
    roots = names_in(ast.parse((SRC / "cli.py").read_text()))
    for module, tables in (("harness.py", ("_KINDS", "_RECIPES")), ("verify.py", ("_SUITES",))):
        for node in ast.parse((SRC / module).read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in tables for t in node.targets):
                roots |= names_in(node.value)
    for path in PERFBENCH.glob("*.py"):
        roots |= names_in(ast.parse(path.read_text()))
    return roots


def reached(roots: set) -> set:
    defs, seen, todo = definitions(), set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += defs.get(name, ())
    return seen


def public_names() -> set:
    return {name for name, value in vars(randcol).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_every_public_name_is_reached_from_a_workflow():
    roots = workflow_roots()
    # each ALLOWED name is public and still waits for its caller
    assert set(ALLOWED) <= public_names()
    assert sorted(set(ALLOWED) & reached(roots)) == []
    # every other name is reached, or is what an ALLOWED name calls, returns or raises
    assert sorted(public_names() - reached(roots | set(ALLOWED))) == []
