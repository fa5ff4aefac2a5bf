"""Every command that reads a surface file reads it checked.

A file that parses but breaks a surface invariant is a domain error (exit
1, not the malformed-input exit 2) that names the broken invariant, on
every command that loads a surface, in either file slot.
"""

import json

import pytest

from cutpaste.cli import main
from cutpaste.surface import octahedron

# two triangles glued along edges that run the same way
_BAD = {"vertices": 4, "triangles": [[0, 1, 2], [0, 1, 3]], "gluing": [[[0, 0], [1, 0]]]}
_VIOLATION = "glued pair (0, 0)~(1, 0) is not orientation-reversing: (0,1) vs (0,1)"


@pytest.mark.parametrize(
    "argv",
    [
        ("surface", "classify", "BAD"),
        ("surface", "chi", "BAD"),
        ("surface", "union", "BAD", "GOOD"),
        ("surface", "union", "GOOD", "BAD"),
        ("surface", "cut", "BAD", "--circle", "[[0, 0], [0, 1], [0, 2]]"),
        ("surface", "paste", "BAD", "--left", "0", "--right", "1"),
        ("sk", "decide", "BAD", "GOOD"),
        ("sk", "decide", "GOOD", "BAD"),
        ("sk", "witness", "GOOD", "BAD", "--budget", "1"),
        ("euler", "chi", "BAD"),
    ],
    ids=lambda argv: "-".join(a for a in argv if a.isalpha()),
)
def test_an_invalid_surface_is_a_domain_error(argv, tmp_path, capsys):
    files = {"BAD": tmp_path / "bad.surf", "GOOD": tmp_path / "good.surf"}
    files["BAD"].write_text(json.dumps(_BAD))
    files["GOOD"].write_text(json.dumps(octahedron().to_json()))
    code = main([str(files.get(a, a)) for a in argv])
    out = capsys.readouterr().out
    assert (code, out) == (1, f"error=domain detail={_VIOLATION}\n")
