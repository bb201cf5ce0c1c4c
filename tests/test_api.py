"""The public API is what the programs use.

Every public module-level function or class in ``src/cohsys``, and every
public method, property and classmethod of those classes, must be used by a
program: in ``src/`` outside its own definition, in ``scripts/`` or in
``perfbench/``.  A use is a name or an attribute read in code; imports and
strings do not count, and tests are not programs.  Private module-level
functions, and private methods of every class in the package, follow the
same rule, so no helper outlives its last caller; dunders are exempt.  The
package itself binds no names: programs import each name from the module
that defines it.
"""

import ast
import types
from collections import Counter
from pathlib import Path

import cohsys

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cohsys"
PROGRAMS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]

TREES = {
    path: ast.parse(path.read_text()) for root in PROGRAMS for path in sorted(root.rglob("*.py"))
}


def uses(node: ast.AST) -> Counter:
    """How often each name or attribute is read inside node."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


ALL_USES = sum((uses(tree) for tree in TREES.values()), Counter())

# name -> its top-level definition, for every public function and class of the package
DEFINITIONS = {
    node.name: node
    for path, tree in TREES.items()
    if path.parent == PACKAGE
    for node in tree.body
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
}


# (class, method) -> its definition, for every public method of those classes
METHODS = {
    (cls.name, node.name): node
    for cls in DEFINITIONS.values()
    if isinstance(cls, ast.ClassDef)
    for node in cls.body
    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
}


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


# (module, name) -> its definition, for every private module-level function of the package
PRIVATE = {
    (path.stem, node.name): node
    for path, tree in TREES.items()
    if path.parent == PACKAGE
    for node in tree.body
    if isinstance(node, ast.FunctionDef) and is_private(node.name)
}

# (class, method) -> its definition, for every private method of every class of the package
PRIVATE_METHODS = {
    (cls.name, node.name): node
    for path, tree in TREES.items()
    if path.parent == PACKAGE
    for cls in tree.body
    if isinstance(cls, ast.ClassDef)
    for node in cls.body
    if isinstance(node, ast.FunctionDef) and is_private(node.name)
}


def used_outside(name: str, definition: ast.AST) -> bool:
    return ALL_USES[name] > uses(definition)[name]


def test_package_binds_only_its_submodules():
    assert [
        name
        for name, value in vars(cohsys).items()
        if not name.startswith("__")
        and not (isinstance(value, types.ModuleType) and value.__name__ == f"cohsys.{name}")
    ] == []


def test_public_definitions_have_a_program_caller():
    assert [name for name, node in DEFINITIONS.items() if not used_outside(name, node)] == []


def test_public_methods_have_a_program_caller():
    assert [key for key, node in METHODS.items() if not used_outside(key[1], node)] == []


def test_private_functions_have_a_program_caller():
    assert [key for key, node in PRIVATE.items() if not used_outside(key[1], node)] == []


def test_private_methods_have_a_program_caller():
    assert [key for key, node in PRIVATE_METHODS.items() if not used_outside(key[1], node)] == []
