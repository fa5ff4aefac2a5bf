"""Runtime checks in the package must survive ``python -O``.

``-O`` strips ``assert`` statements, so a check written as one would pass
silently while a report still says it ran.  The package raises explicitly
instead, and no module under ``src/cutpaste`` may hold an ``assert``.
"""

import ast
import os
import pathlib
import subprocess
import sys

import cutpaste

PACKAGE = pathlib.Path(cutpaste.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements vanish under python -O: {found}"


def test_snf_verify_raises_under_optimize():
    code = (
        "from cutpaste.abgroup import IntMatrix, SNFResult\n"
        "I = IntMatrix.identity(1)\n"
        "try:\n"
        "    SNFResult(d=(1,), U=I, V=I).verify(IntMatrix.from_rows([[2]]))\n"
        "except AssertionError as exc:\n"
        "    print('raised', exc)\n"
        "else:\n"
        "    print('silent')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert out.stdout.strip() == "raised U*A*V is not diag(d)", out
