"""The public API is what the programs use.

Every name in ``cohsys.__all__``, and every public module-level function or
class in ``src/cohsys``, must be used by a program: in ``src/`` outside its
own definition, in ``scripts/`` or in ``perfbench/``.  A use is a name or an
attribute read in code; imports, re-exports and strings do not count, and
tests are not programs.
"""

import ast
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


def used_outside_definition(name: str) -> bool:
    return ALL_USES[name] > uses(DEFINITIONS[name])[name]


def test_exported_names_have_a_program_caller():
    assert [name for name in cohsys.__all__ if not used_outside_definition(name)] == []


def test_public_definitions_have_a_program_caller():
    assert [name for name in DEFINITIONS if not used_outside_definition(name)] == []
