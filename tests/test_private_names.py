"""Every private function, method and class in the package is used.

A private name (one leading underscore) is only meant to be reached from
inside ``src/cutpaste``, so one that nothing there names outside its own
definition is dead code that a refactor left behind.  Uses are read from
the syntax trees: a name, an attribute or an imported name.  A name that
several definitions share counts the uses of all of them.
"""

import ast
import pathlib
from collections import Counter

import cutpaste

PACKAGE = pathlib.Path(cutpaste.__file__).parent
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _uses(tree: ast.AST) -> Counter:
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.alias):
            uses[node.name] += 1
    return uses


def test_every_private_definition_is_used_outside_itself():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    uses = sum(map(_uses, trees.values()), Counter())
    unused = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, _DEFINITIONS)
        and _is_private(node.name)
        and uses[node.name] == _uses(node)[node.name]
    ]
    assert not unused, f"private definitions that nothing in the package uses: {unused}"
