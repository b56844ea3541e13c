"""The surface rule: every name that `import randcol` binds is reached from
a workflow (the CLI, a row of harness._KINDS or harness._RECIPES, a verify
suite or the benchmark in perfbench/), or is a type that such a call
returns or raises. A name that only tests reach waits in ALLOWED, with the
ROADMAP item that will give it a caller; the list only shrinks.

The same holds for options: a workflow's code passes every parameter with
a default, of each public function, public method and non-dataclass
__init__, and reads every public method. A dataclass's fields are record
state, which configs and results fill in from files, so they are not
checked. An option or method that no workflow uses waits in
OPTIONS_ALLOWED, with its reason; the members of an ALLOWED name wait with
that name."""

import ast
import dataclasses
import inspect
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

# "function(parameter)" or "Class.method": why no workflow uses it yet
OPTIONS_ALLOWED = {
    "chromatic_number_exact(n_cap)": "item 6: its cap is in the pinned "
                                     "proposition_check_all_errors message",
    "classify_supervertices_thm3(root)": "item 14",
    "classify_supervertices_thm3(h)": "item 14",
    "Graph.with_edges": "item 14",
    # item 4's members outside ALLOWED: the verdict of boundary_resilience_audit's
    # report, and the round-2 graph that the audit takes
    "BoundaryResilienceReport.holds": "item 4",
    "TwoRoundSample.round2_only_survivors": "item 4",
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
    """Each top-level name of a randcol module: the nodes that define it."""
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
                defs.setdefault(name, []).append(node)
    return defs


def workflow_code() -> list:
    """The CLI, the kind and recipe rows, the suites and the benchmark, as AST nodes."""
    code = [ast.parse((SRC / "cli.py").read_text())]
    for module, tables in (("harness.py", ("_KINDS", "_RECIPES")), ("verify.py", ("_SUITES",))):
        for node in ast.parse((SRC / module).read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in tables for t in node.targets):
                code.append(node.value)
    return code + [ast.parse(path.read_text()) for path in PERFBENCH.glob("*.py")]


def workflow_roots() -> set:
    """The names the workflow code reads."""
    return set().union(*map(names_in, workflow_code()))


def reached(roots: set) -> set:
    defs, seen, todo = definitions(), set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for node in defs.get(name, ()):
                todo += names_in(node)
    return seen


def reached_code() -> list:
    """The workflow code and the definition of every name it reaches."""
    defs = definitions()
    return workflow_code() + [node for name in reached(workflow_roots())
                              for node in defs.get(name, ())]


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


def callables() -> list:
    """(owner, label, the name a call uses, the function, whether a call
    skips its first parameter) for each public function, public method and
    non-dataclass __init__ that `import randcol` binds."""
    found = []
    for owner in sorted(public_names()):
        value = getattr(randcol, owner)
        if inspect.isfunction(value):
            found.append((owner, owner, owner, value, False))
        elif isinstance(value, type):
            for attr, member in vars(value).items():
                if attr == "__init__" and not dataclasses.is_dataclass(value):
                    found.append((owner, owner, owner, member, True))
                elif not attr.startswith("_") and isinstance(
                        member, (types.FunctionType, classmethod, staticmethod, property)):
                    if isinstance(member, property):
                        member = member.fget
                    bound = not isinstance(member, staticmethod)
                    found.append((owner, f"{owner}.{attr}", attr,
                                  getattr(member, "__func__", member), bound))
    return found


def passes(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether call passes the parameter `name`, by keyword or, when it
    can take one, at positional index (a * or ** argument may pass it)."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(
        isinstance(a, ast.Starred) for a in call.args[: index + 1])


def unused_options() -> set:
    """"label(parameter)" for each parameter with a default that no call in
    a workflow's code passes."""
    calls: dict = {}
    for node in reached_code():
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(called, []).append(call)
    found = set()
    for owner, label, called, function, bound in callables():
        if owner in ALLOWED:
            continue
        params = list(inspect.signature(function).parameters.values())[bound:]
        for i, param in enumerate(params):
            if param.default is inspect.Parameter.empty:
                continue
            index = i if param.kind in (param.POSITIONAL_ONLY,
                                        param.POSITIONAL_OR_KEYWORD) else None
            if not any(passes(call, param.name, index) for call in calls.get(called, ())):
                found.add(f"{label}({param.name})")
    return found


def unread_methods() -> set:
    """"Class.method" for each public method no workflow's code reads."""
    read = {node.attr for code in reached_code() for node in ast.walk(code)
            if isinstance(node, ast.Attribute)}
    return {label for owner, label, called, _, _ in callables()
            if owner not in ALLOWED and "." in label and called not in read}


# equal both ways: each allowed entry still waits for its caller, and no other is unused
def test_every_option_is_passed_by_a_workflow():
    assert sorted(unused_options()) == sorted(e for e in OPTIONS_ALLOWED if "(" in e)


def test_every_public_method_is_read_by_a_workflow():
    assert sorted(unread_methods()) == sorted(e for e in OPTIONS_ALLOWED if "(" not in e)
