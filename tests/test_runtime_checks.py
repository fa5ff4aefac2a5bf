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

import pytest

import cutpaste

PACKAGE = pathlib.Path(cutpaste.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements vanish under python -O: {found}"


def _verify_under_optimize(code: str) -> str:
    """Run code that calls SNFResult.verify under ``python -O`` and return
    what it prints."""
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    return out.stdout.strip()


_VERIFY = (
    "from cutpaste.abgroup import IntMatrix, SNFResult\n"
    "I = IntMatrix.identity(2)\n"
    "W = IntMatrix.from_rows([[1, 1], [0, 1]])\n"
    "try:\n"
    "    SNFResult({}).verify({})\n"
    "except AssertionError as exc:\n"
    "    print('raised', exc)\n"
    "else:\n"
    "    print('silent')\n"
)


def test_snf_verify_raises_under_optimize():
    code = _VERIFY.format("d=(1, 1), U=I, V=I, U_inv=I, V_inv=I", "IntMatrix.from_rows([[2, 0], [0, 1]])")
    assert _verify_under_optimize(code) == "raised U*A*V is not diag(d)"


@pytest.mark.parametrize(
    "fields, message",
    [
        ("d=(1, 1), U=W, V=I, U_inv=W, V_inv=I", "raised U*U_inv is not the identity"),
        ("d=(1, 1), U=I, V=W, U_inv=I, V_inv=W", "raised V*V_inv is not the identity"),
    ],
)
def test_snf_verify_checks_the_inverses_under_optimize(fields, message):
    """U_inv and V_inv must invert U and V, not merely be unimodular: W is
    unimodular but not its own inverse, and U*A*V is diag(d) with A = W^-1
    on the side that W is put on."""
    a = "IntMatrix.from_rows([[1, -1], [0, 1]])"
    assert _verify_under_optimize(_VERIFY.format(fields, a)) == message
