"""Golden digests of the surface constructions.

Each family below is serialized as JSON (``to_json`` of every surface it
builds, plus the refs, triangle sets or report lines that go with it) and
hashed with sha256.  The digests pin the exact bytes: a refactor of the
surface walks, the builder or the mirror path must leave every one of them
unchanged.  Library surfaces also feed the benchmark's request pool, which
refuses a ``library_for_class`` surface that is not canonical.

Run ``python tests/test_surface_golden.py`` to print the current digests.
"""

import hashlib
import itertools
import json

import pytest

from cutpaste.euler_functor import square_from_circles
from cutpaste.sk_groups import double_surface, glue_to_mirror, skk_collapse_check
from cutpaste.surface import (
    DiffeoClass,
    _handle_piece,
    build_standard,
    cut,
    double_circle,
    library_for_class,
    mirror,
    paste_cut,
    sk_system_move,
    standard_library,
)

_RANGE = range(4)
_CLASSES = (
    ((0, 1), (1, 0)),
    ((1, 1), (1, 1)),
    ((0, 0), (2, 1), (3, 0)),
    ((0, 2), (1, 2), (2, 0)),
)


def _refs(refs):
    return [list(r) for r in refs]


def _circles(lib):
    return list(lib.seams) + list(lib.nulls)


def _libraries():
    for g in _RANGE:
        for b in _RANGE:
            yield (g, b), standard_library(g, b)


def _library():
    return [
        [key, lib.surface.to_json(), [_refs(c.refs) for c in lib.seams], [_refs(c.refs) for c in lib.nulls]]
        for key, lib in _libraries()
    ]


def _mirror():
    return [[key, mirror(lib.surface).to_json()] for key, lib in _libraries()]


def _cut_paste():
    out = []
    for key, lib in _libraries():
        for i, c in enumerate(_circles(lib)):
            s, rec = cut(lib.surface, c)
            back = paste_cut(s, rec, offset=1)
            out.append([key, i, [s.to_json(), _refs(rec.left), _refs(rec.right), back.to_json()]])
    return out


def _double_circle():
    out = []
    for key, lib in _libraries():
        for i, c in enumerate(_circles(lib)):
            d = double_circle(lib.surface, c)
            out.append(
                [key, i, d.surface.to_json(), _refs(d.first.refs), _refs(d.second.refs), sorted(d.collar_triangles)]
            )
    return out


def _system_moves():
    out = []
    for key, lib in _libraries():
        for (i, a), (j, c) in itertools.combinations(enumerate(_circles(lib)), 2):
            for pairing, offsets in (((0, 1), (1, 0)), ((1, 0), (0, 0))):
                moved = sk_system_move(lib.surface, [a, c], pairing, offsets)
                out.append([key, i, j, list(pairing), list(offsets), moved.to_json()])
    return out


def _squares():
    out = []
    for key, lib in _libraries():
        circles = _circles(lib)
        for chosen in [[c] for c in circles] + ([circles] if len(circles) > 1 else []):
            q = square_from_circles(lib.surface, chosen)
            out.append([key, len(chosen), q.surface.to_json(), sorted(q.b_triangles), sorted(q.c_triangles)])
    return out


def _doubles():
    return [[key, double_surface(lib.surface).to_json()] for key, lib in _libraries()]


def _glued_to_mirror():
    out = []
    for b in range(3):
        for gn in range(3):
            for gm in range(3):
                glued = glue_to_mirror(build_standard(gn, b), build_standard(gm, b))
                out.append([gn, gm, b, glued.to_json()])
    return out


def _library_classes():
    out = []
    for pairs in _CLASSES:
        surf, entries = library_for_class(DiffeoClass.from_pairs(pairs))
        circles = [[_refs(c.refs) for c in _circles(e)] for e in entries]
        out.append([list(pairs), surf.to_json(), circles])
    return out


def _piece():
    return _handle_piece().to_json()


def _skk():
    out = []
    for k in (1, 2, 3):
        identity = tuple(range(k))
        for perm in itertools.permutations(range(k)):
            out.append(skk_collapse_check(k, identity, perm).to_lines())
        out.append(skk_collapse_check(k, identity, identity, None, [1] * k).to_lines())
    return out


FAMILIES = {
    "standard_library": _library,
    "mirror": _mirror,
    "cut_paste_cut": _cut_paste,
    "double_circle": _double_circle,
    "sk_system_move": _system_moves,
    "square_from_circles": _squares,
    "double_surface": _doubles,
    "glue_to_mirror": _glued_to_mirror,
    "library_for_class": _library_classes,
    "handle_piece": _piece,
    "skk_collapse_check": _skk,
}


def digest(family: str) -> str:
    data = json.dumps(FAMILIES[family](), sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


GOLDEN = {
    "standard_library": "7e40f24348e18cac9671772342d98b4f9deb8dba6a0dfd92bb73e65c24835114",
    "mirror": "79506e710edb4afd39a0639267f013ba24ee243a07a6868a84f24164e0309389",
    "cut_paste_cut": "64fe977115c16339480ceeed306cf7d0b50b92631f238929891fdacb0b6158e0",
    "double_circle": "4462d7ff958fe423cc43ac5bb4d51abbfde46b2d9391fe60b756cb822a1b5cf4",
    "sk_system_move": "ecdf7eb8cef7ae679846df7a61b1e3b4a03cb0e61f22281b8345da24e3f25ba0",
    "square_from_circles": "a583ac6b988735418205e014b5093621e9eaa08bbb5140171378ee1ef20bf4db",
    "double_surface": "8acc64fd96b97e2e92e3fa5e879374a2558e8b7c556765110b9ae6e6d2b60239",
    "glue_to_mirror": "dc84b5f263bdbed48488c6ef4009359d52b9a82f1c4a0c14f96ade5f1e01fcfb",
    "library_for_class": "778531c5bdf5f145e33765a642955335b30f691dae8d5e8a4919c9662bc3b4da",
    "handle_piece": "356a8d6aaf9039d92fe4fa30b58dce543f46dc6d4b553515593eac1875ad2e7a",
    "skk_collapse_check": "d6a3031a05506563b0b5c4f139fd88601612d649507d8960791007ec4e771457",
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_golden_digest(family):
    assert digest(family) == GOLDEN[family]


if __name__ == "__main__":
    for name in FAMILIES:
        print(f'    "{name}": "{digest(name)}",')
