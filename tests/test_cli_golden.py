"""Golden digests of CLI output.

Each case runs ``cli.main`` in process and pins the sha256 of everything
it prints to stdout, with its exit code.  A refactor of the group layer or
of the chain functor must leave every digest unchanged: these are the
commands whose bytes such a change claims to keep.  Two ``sk exact`` cases
exit 1: caps 1,1,1 and 2,1,3 lie below the boundary cap of 2 that the
exact sequence needs, so both are refused with a domain error.

The squares file is read twice, once with one of its squares repeated: a
repeated square adds a relation row that reduces to zero, so both runs
print the same bytes.  ``euler verify-square`` runs on a passing square
(a seam and a null circle of the genus-2, one-boundary library surface)
and on the sphere split into two halves that share no triangle, which
exits 1 with a FAIL report.

Run ``python tests/test_cli_golden.py`` to print the current digests.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from cutpaste.cli import main
from cutpaste.euler_functor import square_from_circles
from cutpaste.surface import standard_library

from test_euler_functor import sphere_halves_square

# Object 0 is the basepoint; the squares relate a + b = c and a + c = d.
_SQUARES = {
    "objects": ["O", "a", "b", "c", "d", "e"],
    "basepoint": 0,
    "squares": [[0, 1, 2, 3], [0, 1, 3, 4], [5, 1, 1, 2]],
}

_CASES = {
    "sk exact 1,1,1": ("sk", "exact", "--caps", "1,1,1"),
    "sk exact 2,1,3": ("sk", "exact", "--caps", "2,1,3"),
    "sk exact 2,2,2": ("sk", "exact", "--caps", "2,2,2"),
    "sk exact 3,2,3": ("sk", "exact", "--caps", "3,2,3"),
    "sk exact 3,3,3": ("sk", "exact", "--caps", "3,3,3"),
    "sk exact 4,3,3": ("sk", "exact", "--caps", "4,3,3"),
    "sk exact 5,3,3": ("sk", "exact", "--caps", "5,3,3"),
    "sk k0 3,2,3": ("sk", "k0", "--caps", "3,2,3"),
    "sk k0 4,3,3": ("sk", "k0", "--caps", "4,3,3"),
    "sk k0 5,3,3": ("sk", "k0", "--caps", "5,3,3"),
    "k0 squares": ("k0", "{squares}"),
    "k0 squares repeated": ("k0", "{repeated}"),
    "euler commute 2,2,2": ("euler", "commute", "--caps", "2,2,2"),
    "euler chi 2,1": ("euler", "chi", "{surface}"),
    "euler verify-square pass": ("euler", "verify-square", "{passing}"),
    "euler verify-square fail": ("euler", "verify-square", "{failing}"),
    "accept": ("accept",),
}

GOLDEN = {
    "sk exact 1,1,1": (1, "614285b988a32ee0833751aaba512215213a407e5caf17960620ea5815e337a6"),
    "sk exact 2,1,3": (1, "614285b988a32ee0833751aaba512215213a407e5caf17960620ea5815e337a6"),
    "sk exact 2,2,2": (0, "87ac825aa086bfda1bbbbf188b39a082fbef0f60ea5477f8b9f6d9262229f2e2"),
    "sk exact 3,2,3": (0, "16260dac2fcadfa027b8156def904fe993cb8d8aed3ac61f3a5b8a7bf9dbd504"),
    "sk exact 3,3,3": (0, "8b1f35ed7a2d0ecac13023646f8e1c08a8ac1596920ee3cd964dedc8b13f42e5"),
    "sk exact 4,3,3": (0, "5baceb2b18c55c0e9035696de87acd863975c59f82de3b8b9e8122a9d1f95325"),
    "sk exact 5,3,3": (0, "aae3cade83b46d5960279bd3e0fbda3caa1ee0cf9d8893b897dc271338cb10f4"),
    "sk k0 3,2,3": (0, "10a80c01026ebd3483dc4438a186bb3b2e115d4901affe2381326877f3faf355"),
    "sk k0 4,3,3": (0, "101bdaecec52ceb5927b90866319125b503447b7829283a5385c79b00ab87183"),
    "sk k0 5,3,3": (0, "2c48ab5efd9e077a1745b10a6e4497fff102e4e48a97960d3ab59a6020cc44c5"),
    "k0 squares": (0, "5834cc79fdb9e6d329f0f43586154ba6de3f177836c88a7cb0dfe8911c50c099"),
    "k0 squares repeated": (0, "5834cc79fdb9e6d329f0f43586154ba6de3f177836c88a7cb0dfe8911c50c099"),
    "euler commute 2,2,2": (0, "8919125ccbcf2980cbb009c50b788f9e6315453cf3897a8cf101d10b2c7dfeb0"),
    "euler chi 2,1": (0, "7947cb22a406677371243e7da358b7049639ab6725b5dc1f21cf30602f528867"),
    "euler verify-square pass": (0, "5b4424302c454a0092fce14e6487dd77b5a2281666fd1d0cf1d1af27c6f3f605"),
    "euler verify-square fail": (1, "ab14bbf0b3997de27b4be74e9221a1d518c7525ad789dc74fa0db416b8d1ffaf"),
    "accept": (0, "8314ae389a15c36339cf140d0da1c5cb19b7bbe26bf243bee994fa563272b439"),
}


def _input_files(directory: Path) -> dict[str, str]:
    repeated = dict(_SQUARES, squares=_SQUARES["squares"] + [_SQUARES["squares"][1]])
    lib = standard_library(2, 1)
    passing = square_from_circles(lib.surface, [lib.seams[0], lib.nulls[0]])
    paths = {}
    for name, data in (
        ("squares", _SQUARES),
        ("repeated", repeated),
        ("surface", lib.surface.to_json()),
        ("passing", passing.to_json()),
        ("failing", sphere_halves_square().to_json()),
    ):
        path = directory / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    return paths


def run_case(name: str, directory: Path) -> tuple[int, str]:
    """Exit code and sha256 of the stdout of one case."""
    argv = [a.format(**_input_files(directory)) for a in _CASES[name]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(_CASES))
def test_cli_output_digest(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


def test_repeated_square_prints_the_same_bytes():
    assert GOLDEN["k0 squares"] == GOLDEN["k0 squares repeated"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in _CASES:
            print(f"    {name!r}: {run_case(name, Path(tmp))},")
