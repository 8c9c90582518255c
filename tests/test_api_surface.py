"""Every public top-level function and class of ``src/tabreduce`` has a
caller in the package: another module that imports and uses it, or code in
its own module.  Library code that only the tests reach is either wired into
the pipeline or deleted."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tabreduce"

# Entry points kept for tests and library users without a pipeline caller.
ALLOWED = {
    "llm.llm_reduce_baseline",  # the paper's zero-shot reduction baseline
    "annotate.annotate_columns",  # single-target labelers that the annotator
    "annotate.annotate_rows",  # acceptance tests (test_01, test_02) call
    "policy.grad_check",  # finite-difference check of the hand-written gradients
}


def parse_package():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def public_definitions(tree):
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def references(module, tree):
    """(module, name) pairs this module's code refers to: bare names resolve
    to this module or to a ``from .mod import name``; ``alias.name`` resolves
    through ``from . import mod [as alias]``."""
    imported_names = {}
    module_aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    module_aliases[alias.asname or alias.name] = alias.name
                else:
                    imported_names[alias.asname or alias.name] = node.module
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add((imported_names.get(node.id, module), node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in module_aliases:
                refs.add((module_aliases[node.value.id], node.attr))
    return refs


def test_every_public_definition_has_a_package_caller():
    trees = parse_package()
    used = set()
    for module, tree in trees.items():
        used |= references(module, tree)
    unused = sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in public_definitions(tree)
        if (module, name) not in used and f"{module}.{name}" not in ALLOWED
    )
    assert unused == [], "public definitions no package code uses: " + ", ".join(unused)


def test_allowlist_names_live_definitions():
    trees = parse_package()
    defined = {f"{m}.{n}" for m, tree in trees.items() for n in public_definitions(tree)}
    assert ALLOWED <= defined
