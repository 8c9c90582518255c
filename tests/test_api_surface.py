"""Every public top-level function and class of ``src/tabreduce`` has a
caller in the package: another module that imports and uses it, or code in
its own module.  Library code that only the tests reach is either wired into
the pipeline or deleted.  Every other top-level definition (private
functions, classes and constants, and public constants) is read by package
code too, so nothing is left behind when its last user goes.  So is every
public method and property of a package class: some package code reads an
attribute of its name (a name shared with another class's attribute counts
as a read, so the check can miss a method but never flags a used one).
The package imports nothing outside the standard library but numpy."""

import ast
import importlib
import re
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tabreduce"

# Entry points kept for tests and library users without a pipeline caller.
ALLOWED: set[str] = set()


def parse_package():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def public_definitions(tree):
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def other_definitions(tree):
    """Top-level private functions and classes and every top-level constant
    (a name assigned at module level), dunder names aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("__")}


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
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add((imported_names.get(node.id, module), node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in module_aliases:
                refs.add((module_aliases[node.value.id], node.attr))
    return refs


def public_methods(tree):
    """(class, method) pairs of the public methods and properties of the
    module's top-level classes."""
    return {
        (node.name, item.name)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }


def attribute_reads(tree):
    """Names read as ``value.name``, except on a module bound by ``import``
    (``np.zeros`` reads no method of ours)."""
    modules = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and not (isinstance(node.value, ast.Name) and node.value.id in modules)
    }


def package_references(trees):
    return set().union(*(references(module, tree) for module, tree in trees.items()))


def test_every_public_definition_has_a_package_caller():
    trees = parse_package()
    used = package_references(trees)
    unused = sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in public_definitions(tree)
        if (module, name) not in used and f"{module}.{name}" not in ALLOWED
    )
    assert unused == [], "public definitions no package code uses: " + ", ".join(unused)


def test_every_other_definition_is_read_by_package_code():
    trees = parse_package()
    used = package_references(trees)
    unused = sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in other_definitions(tree)
        if (module, name) not in used
    )
    assert unused == [], "definitions no package code reads: " + ", ".join(unused)


def test_every_public_method_is_read_by_package_code():
    trees = parse_package()
    read = set().union(*(attribute_reads(tree) for tree in trees.values()))
    unused = sorted(
        f"{module}.{cls}.{name}"
        for module, tree in trees.items()
        for cls, name in public_methods(tree)
        if name not in read
    )
    assert unused == [], "methods no package code reads: " + ", ".join(unused)


def test_allowlist_names_live_definitions():
    trees = parse_package()
    defined = {f"{m}.{n}" for m, tree in trees.items() for n in public_definitions(tree)}
    assert ALLOWED <= defined


def test_allowlist_names_have_no_package_caller():
    """A name that package code has come to use leaves the allowlist."""
    used = package_references(parse_package())
    called = sorted(name for name in ALLOWED if tuple(name.split(".")) in used)
    assert called == [], "allowlisted names with a package caller: " + ", ".join(called)



def absolute_imports(tree):
    """Top-level names of the modules the code imports absolutely."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_absolute_imports_are_stdlib_or_numpy():
    allowed = sys.stdlib_module_names | {"numpy"}
    outside = sorted(
        f"{module}: {name}"
        for module, tree in parse_package().items()
        for name in absolute_imports(tree)
        if name not in allowed
    )
    assert outside == [], "imports outside the standard library and numpy: " + ", ".join(outside)


def docstring_references(trees):
    """(module, reference) pairs for each ``module.name`` and
    :func:`tabreduce.module.name` in a package docstring whose first part is
    a package module."""
    pattern = re.compile(r"``(\w+(?:\.\w+)+)``|:func:`tabreduce\.(\w+(?:\.\w+)+)`")
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                for match in pattern.finditer(ast.get_docstring(node) or ""):
                    reference = match.group(1) or match.group(2)
                    if reference.split(".")[0] in trees:
                        yield module, reference


def resolves(reference):
    """Whether ``module.name[.attr...]`` names an attribute of the package;
    a dataclass field counts."""
    first, *rest = reference.split(".")
    obj = importlib.import_module(f"tabreduce.{first}")
    for name in rest:
        fields = getattr(obj, "__dataclass_fields__", {})
        if not hasattr(obj, name) and name not in fields:
            return False
        obj = getattr(obj, name, None)
    return True


def private_references(trees):
    """(module, class, name) for each bare ``_name`` in a package docstring,
    with the class whose body holds the docstring (None outside a class)."""
    pattern = re.compile(r"``(_\w+)``")

    def walk(module, node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            for match in pattern.finditer(ast.get_docstring(node) or ""):
                yield module, cls, match.group(1)
        for child in ast.iter_child_nodes(node):
            yield from walk(module, child, cls)

    for module, tree in trees.items():
        yield from walk(module, tree, None)


def test_docstring_references_resolve():
    """Dotted references name a package attribute, and a bare ``_name``
    names one of its own module or of the class it is written in."""
    trees = parse_package()
    references = sorted(set(docstring_references(trees)))
    assert len(references) > 20
    unresolved = [f"{module}: {reference}" for module, reference in references if not resolves(reference)]
    private = set(private_references(trees))
    assert len(private) > 20
    unresolved += sorted(
        f"{module}: {name}" for module, cls, name in private
        if not (resolves(f"{module}.{name}") or cls is not None and resolves(f"{module}.{cls}.{name}"))
    )
    assert unresolved == [], "docstring references to no package attribute: " + ", ".join(unresolved)


README = PACKAGE.parent.parent / "README.md"

# Last parts that make a dotted name a file name (``metrics.jsonl``), not a reference.
FILE_SUFFIXES = {"csv", "json", "jsonl", "md", "py", "txt"}


def readme_references(trees):
    """Each backticked dotted name in README.md whose first part is a
    package module or a public package class, as ``module.name...``."""
    classes = {
        node.name: module
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
    }
    for match in re.finditer(r"`(\w+(?:\.\w+)+)`", README.read_text()):
        reference = match.group(1)
        first, *rest = reference.split(".")
        if rest[-1] in FILE_SUFFIXES:
            continue
        if first in trees:
            yield reference
        elif first in classes:
            yield f"{classes[first]}.{reference}"


def test_readme_references_resolve():
    references = list(readme_references(parse_package()))
    assert len(references) > 20
    unresolved = sorted({reference for reference in references if not resolves(reference)})
    assert unresolved == [], "README references to no package attribute: " + ", ".join(unresolved)
