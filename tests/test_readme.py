"""The README's examples run and give the values their comments state."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_tour() -> str:
    """The python block under the "Library tour" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_tour_gives_its_commented_values():
    """Each expression line of the tour is evaluated after the statements
    above it; its value and the comment beside it are checked together, so
    a README edit that changes either one fails here."""
    block = _library_tour()
    lines = block.splitlines()
    namespace: dict = {}
    got = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.end_lineno - 1].split("#", 1)[1].strip()
            got.append((value, comment))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert got == [
        (True, "True"),
        (1, "1"),
        ((2, ()), "(2, ())"),
        (True, "the torus dies"),
        (True, "True"),
        (-1, "-1 == Euler characteristic"),
    ]
