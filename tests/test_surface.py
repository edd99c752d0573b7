"""Public surface: every public function and class of ``lsl`` has a caller
inside the package, and every field of a public dataclass a reader, or a
named reason to exist without one."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lsl"

#: Public names that no code in ``lsl`` refers to, and why each stays.
ALLOWED = {
    "run_trial": "single-trial oracle of the campaign engine",
    "derive_trial_seed": "(key, index) origin of the run_trial oracle",
    "candidate_set": "explicit candidate-list oracle of the certificates",
    "quantize": "bound in lsl.simulate for perfbench's tracer",
    "entrypoint": "the lsl console script",
}

_ORACLE_OUTPUT = "run_trial oracle output, read by tests and perfbench"

#: Public dataclass fields that no code in ``lsl`` reads, and why each stays.
ALLOWED_FIELDS = {
    "TrialOutcome.direct_errors": _ORACLE_OUTPUT,
    "TrialOutcome.effective_noise_power": _ORACLE_OUTPUT,
    "TrialOutcome.residual_power": _ORACLE_OUTPUT,
    "RunConfig.jobs": "perfbench passes --jobs; ROADMAP item 11 decides it",
}


def module_trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def public_definitions(trees):
    """(module, node) of each public module-level function and class."""
    return [(module, node) for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def references(tree, skip=None):
    """Names that ``Name`` and ``Attribute`` nodes of ``tree`` refer to,
    leaving out the subtree ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_name_has_a_caller_or_a_reason():
    trees = module_trees()
    uncalled = []
    for module, node in public_definitions(trees):
        if node.name in ALLOWED or node.name.startswith("cmd_"):
            continue  # main dispatches cmd_<subcommand> by name
        used = set().union(*(references(tree, skip=node)
                             for tree in trees.values()))
        if node.name not in used:
            uncalled.append(f"{module}.{node.name}")
    assert uncalled == []


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_every_allowed_name_exists(name):
    # an allowance outliving its function would hide nothing, but rot
    trees = module_trees()
    assert name in {node.name for _, node in public_definitions(trees)}


def dataclass_fields(trees):
    """``Class.field`` for each annotated field of a public dataclass."""
    def is_dataclass(node):
        return any(getattr(d.func if isinstance(d, ast.Call) else d, "id",
                           None) == "dataclass" for d in node.decorator_list)

    return [f"{node.name}.{item.target.id}"
            for _, node in public_definitions(trees)
            if isinstance(node, ast.ClassDef) and is_dataclass(node)
            for item in node.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)]


def attributes_read(trees):
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read_or_has_a_reason():
    trees = module_trees()
    read = attributes_read(trees)
    unread = [name for name in dataclass_fields(trees)
              if name.split(".")[1] not in read and name not in ALLOWED_FIELDS]
    assert unread == []


@pytest.mark.parametrize("name", sorted(ALLOWED_FIELDS))
def test_every_allowed_field_exists_unread(name):
    trees = module_trees()
    assert name in dataclass_fields(trees)
    assert name.split(".")[1] not in attributes_read(trees)
