"""Golden digests of the surface constructions.

Each family below is serialized as JSON (``to_json`` of every surface it
builds, plus the refs, triangle sets or report lines that go with it) and
hashed with sha256.  The digests pin the exact bytes: a refactor of the
surface walks, the builder or the mirror path must leave every one of them
unchanged.  Every surface file a family writes must parse to itself, with
the identity flat ref map.  Library surfaces also feed the benchmark's request
pool, which refuses a ``library_for_class`` surface that is not canonical.

Run ``python tests/test_surface_golden.py`` to print the current digests.
"""

import hashlib
import itertools
import json

import pytest

import surface_oracle
from cutpaste.euler_functor import coproduct_square, square_from_circles
from cutpaste.sk_groups import double_surface, glue_to_mirror, skk_collapse_check
from cutpaste.surface import (
    BoundaryGluing,
    DiffeoClass,
    TriSurface,
    _handle_piece,
    annulus,
    build_standard,
    cut,
    disjoint_union,
    double_circle,
    library_for_class,
    mirror,
    paste,
    paste_cut,
    refine_boundary,
    sk_system_move,
    standard_library,
    subdivide,
    surface_from_data,
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


def _libraries(sizes=_RANGE):
    for g in sizes:
        for b in sizes:
            yield (g, b), standard_library(g, b)


def _library(sizes=_RANGE):
    return [
        [key, lib.surface.to_json(), [_refs(c.refs) for c in lib.seams], [_refs(c.refs) for c in lib.nulls]]
        for key, lib in _libraries(sizes)
    ]


def _library_to_5():
    """Genus and boundary up to 5, where more holes compete for sites."""
    return _library(range(6))


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


def _refined():
    """Every boundary cycle of the library surfaces refined to 4, 5 and 7
    edges, and of a lone triangle and a thin annulus, whose triangles have
    two or three boundary edges, so a split moves an unglued sibling."""
    surfaces = [(key, lib.surface) for key, lib in _libraries()]
    surfaces += [("triangle", surface_from_data(3, [(0, 1, 2)], [])), ("annulus", annulus(3))]
    out = []
    for key, s in surfaces:
        for i in range(s.boundary_circle_count()):
            for n in (4, 5, 7):
                out.append([key, i, n, refine_boundary(s, i, n).to_json()])
    return out


def _pasted():
    """``paste`` of every ordered pair of boundary cycles at every offset."""
    out = []
    for key, lib in _libraries():
        s = lib.surface
        for left, right in itertools.permutations(range(s.boundary_circle_count()), 2):
            for offset in range(3):
                out.append([key, left, right, offset, paste(s, BoundaryGluing(left, right, offset)).to_json()])
    return out


def _glued_to_mirror_unequal():
    """``glue_to_mirror`` of a subdivided surface with an unsubdivided one,
    either way round, so one side of each cycle pair is refined."""
    out = []
    for b in (1, 2):
        for gn in range(2):
            for gm in range(2):
                n, m = build_standard(gn, b), build_standard(gm, b)
                for first, second in ((subdivide(n), m), (n, subdivide(m))):
                    out.append([gn, gm, b, glue_to_mirror(first, second).to_json()])
    return out


def _unions():
    keys = [(0, 0), (1, 2), (2, 1), (3, 3)]
    return [
        [a, b, disjoint_union(build_standard(*a), build_standard(*b)).to_json()]
        for a, b in itertools.product(keys, repeat=2)
    ]


def _coproduct_squares():
    out = []
    for a, b in itertools.product([(0, 0), (1, 2), (2, 1)], repeat=2):
        q = coproduct_square(build_standard(*a), build_standard(*b))
        pieces = [p.to_json() for p in q.piece_surfaces()]
        out.append([a, b, pieces, sorted(q.b_triangles), sorted(q.c_triangles)])
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
    "standard_library_to_5": _library_to_5,
    "mirror": _mirror,
    "cut_paste_cut": _cut_paste,
    "double_circle": _double_circle,
    "sk_system_move": _system_moves,
    "square_from_circles": _squares,
    "double_surface": _doubles,
    "glue_to_mirror": _glued_to_mirror,
    "glue_to_mirror_unequal": _glued_to_mirror_unequal,
    "refine_boundary": _refined,
    "paste": _pasted,
    "disjoint_union": _unions,
    "coproduct_square": _coproduct_squares,
    "library_for_class": _library_classes,
    "handle_piece": _piece,
    "skk_collapse_check": _skk,
}


def digest(family: str) -> str:
    data = json.dumps(FAMILIES[family](), sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


GOLDEN = {
    "standard_library": "5613df61be2e4c1c76d3e3f36f874c99f7bcb66d97b4f9b73c6d1f9b62e1ec13",
    "standard_library_to_5": "b207b2b454b8c4447385edd7e33e0a7578de6b8bf7b0d3ebb318197238415220",
    "mirror": "0da530d585cc43b970146f90f18c989e913c28daa574a5d36aad450849aa9474",
    "cut_paste_cut": "c129a8847b84f0fda992b987bc83cf3917b7ffc5c34e3dc96baaf2d8fc4848c5",
    "double_circle": "b7b30bb00f5a2aa726f561a3a17deac7978bdccc51728f1ea00affebde1f8231",
    "sk_system_move": "970460f5a7f5aaa9fc020711652ff1eff3d4c497b74309ba8ae7929fe88df515",
    "square_from_circles": "e4c2521493e492416c96ab6a60bb9de1f058bdaa36cb2a686d51e9ae71bd102f",
    "double_surface": "bfefd40c54325793b24e09677bb6cc84eb355cf6d9e77c85a77e823aaa71ab10",
    "glue_to_mirror": "90b3af25c201cca2ca8549bd32040cbd5a221810021c76b29aaa88ae7628cbd8",
    "glue_to_mirror_unequal": "1864ca7ccce7eaf301672352d70739dd20473a9e1940fb872413a9c51dd7e255",
    "refine_boundary": "ec2a1d2827294a3f1eeeea4250a9d7cc94c5af6d25f587dd6dcf3e7c4ff9a043",
    "paste": "474eeeb25d369239fe7929927a888ad76ef7b8b3377eb5a52ca9e5a97029d2e5",
    "disjoint_union": "a9a8f5043c10b46cc717e81c9558daac79b84dbc1cb0c3db37ba60d1887d58a8",
    "coproduct_square": "0390bf893ecf39668fd7a7bf1461c9f0e02e1c8b8b6b6aee980adce613e8777c",
    "library_for_class": "f356e2a416447903edbf0bd59463124c0a73ae5fd2605407b202de6ab630981e",
    "handle_piece": "356a8d6aaf9039d92fe4fa30b58dce543f46dc6d4b553515593eac1875ad2e7a",
    "skk_collapse_check": "d6a3031a05506563b0b5c4f139fd88601612d649507d8960791007ec4e771457",
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_golden_digest(family):
    assert digest(family) == GOLDEN[family]


def _surface_files(data):
    """Every surface file in a family's data."""
    if isinstance(data, dict):
        yield data
    elif isinstance(data, list):
        for item in data:
            yield from _surface_files(item)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_written_surfaces_parse_to_themselves(family):
    for data in _surface_files(FAMILIES[family]()):
        s, new_ref = TriSurface.parse_json(data)
        assert s.to_json() == data
        assert list(new_ref) == surface_oracle.identity_map(s)


if __name__ == "__main__":
    for name in FAMILIES:
        print(f'    "{name}": "{digest(name)}",')
