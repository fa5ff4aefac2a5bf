"""Golden digests of CLI output.

Each case runs ``cli.main`` in process and pins the sha256 of everything
it prints to stdout, with its exit code.  A refactor of the group layer or
of the chain functor must leave every digest unchanged: these are the
commands whose bytes such a change claims to keep.  Two ``sk exact`` cases
exit 1: at caps 1,1,1 the report reads FAIL, and at 2,1,3 the closed
gluing relations escape the with-boundary lattice, so the inclusion is
refused with a domain error.

The squares file is read twice, once with one of its squares repeated: a
repeated square adds a relation row that reduces to zero, so both runs
print the same bytes.

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
    "k0 squares": ("k0", "{squares}"),
    "k0 squares repeated": ("k0", "{repeated}"),
    "euler commute 2,2,2": ("euler", "commute", "--caps", "2,2,2"),
    "accept": ("accept",),
}

GOLDEN = {
    "sk exact 1,1,1": (1, "8aaeaf3fb09cc2ddc97fd8073e32f51d61d7bd45a92017acfa0e1fd2a03ae987"),
    "sk exact 2,1,3": (1, "6a8ae55fbec43b89bc4519f0d2bf756bcabab18c551463a7ca45fda9d5bf1ef7"),
    "sk exact 2,2,2": (0, "87ac825aa086bfda1bbbbf188b39a082fbef0f60ea5477f8b9f6d9262229f2e2"),
    "sk exact 3,2,3": (0, "16260dac2fcadfa027b8156def904fe993cb8d8aed3ac61f3a5b8a7bf9dbd504"),
    "sk exact 3,3,3": (0, "8b1f35ed7a2d0ecac13023646f8e1c08a8ac1596920ee3cd964dedc8b13f42e5"),
    "sk exact 4,3,3": (0, "5baceb2b18c55c0e9035696de87acd863975c59f82de3b8b9e8122a9d1f95325"),
    "sk exact 5,3,3": (0, "aae3cade83b46d5960279bd3e0fbda3caa1ee0cf9d8893b897dc271338cb10f4"),
    "sk k0 3,2,3": (0, "10a80c01026ebd3483dc4438a186bb3b2e115d4901affe2381326877f3faf355"),
    "k0 squares": (0, "5834cc79fdb9e6d329f0f43586154ba6de3f177836c88a7cb0dfe8911c50c099"),
    "k0 squares repeated": (0, "5834cc79fdb9e6d329f0f43586154ba6de3f177836c88a7cb0dfe8911c50c099"),
    "euler commute 2,2,2": (0, "8919125ccbcf2980cbb009c50b788f9e6315453cf3897a8cf101d10b2c7dfeb0"),
    "accept": (0, "8314ae389a15c36339cf140d0da1c5cb19b7bbe26bf243bee994fa563272b439"),
}


def _squares_files(directory: Path) -> dict[str, str]:
    repeated = dict(_SQUARES, squares=_SQUARES["squares"] + [_SQUARES["squares"][1]])
    paths = {}
    for name, data in (("squares", _SQUARES), ("repeated", repeated)):
        path = directory / f"{name}.sq"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    return paths


def run_case(name: str, directory: Path) -> tuple[int, str]:
    """Exit code and sha256 of the stdout of one case."""
    argv = [a.format(**_squares_files(directory)) for a in _CASES[name]]
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
