"""Canonicalization against its reference form, and the round-trip fixpoint.

``surface._canonical_flat`` must return the surface and the ``RefMap``
(``tri_map``, ``rotations``, ``vertex_map``) that the plain version in
``surface_oracle`` returns, on any triangles with an involutive gluing:
valid surfaces under renumbering, and raw complexes with repeated vertex
ids, refs glued to their own triangle and refs glued to themselves.
"""

import random

from hypothesis import given, settings, strategies as st

import surface_oracle
from test_surface_golden import _CLASSES
from cutpaste.surface import (
    DiffeoClass,
    TriSurface,
    disjoint_union,
    library_for_class,
    standard_library,
    subdivide,
)


def _assert_matches_oracle(triangles, glue):
    surf, refmap = surface_oracle.package_canonical_form(triangles, glue)
    want, want_map = surface_oracle.canonical_form(triangles, glue)
    assert surf == want
    assert surf.component_starts == want.component_starts
    assert refmap.tri_map == want_map.tri_map
    assert refmap.rotations == want_map.rotations
    assert refmap.vertex_map == want_map.vertex_map


def _disguise(s: TriSurface, rng: random.Random, as_lists: bool):
    """The raw triangles and gluing of s with triangles shuffled, vertex ids
    permuted (and spread apart) and each triangle rotated."""
    n = len(s.triangles)
    place = list(range(n))
    rng.shuffle(place)
    ids = rng.sample(range(3 * s.vertex_count + 1), s.vertex_count)
    rot = [rng.randrange(3) for _ in range(n)]
    triangles = [None] * n
    for t, tri in enumerate(s.triangles):
        r = rot[t]
        moved = [ids[v] for v in tri[r:] + tri[:r]]
        triangles[place[t]] = moved if as_lists else tuple(moved)

    def ref(t, e):
        return place[t], (e - rot[t]) % 3

    glue = {ref(*a): ref(*b) for a, b in surface_oracle.partner_dict(s).items()}
    return triangles, glue


def _library_surface(g, b, subdivisions, other):
    s = standard_library(g, b).surface
    for _ in range(subdivisions):
        s = subdivide(s)
    if other is not None:
        s = disjoint_union(s, standard_library(*other).surface)
    return s


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 1),
    st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_library_surfaces_match_oracle(g, b, subdivisions, other, as_lists, rng):
    s = _library_surface(g, b, subdivisions, other)
    _assert_matches_oracle(list(s.triangles), surface_oracle.partner_dict(s))
    _assert_matches_oracle(*_disguise(s, rng, as_lists))


@st.composite
def raw_complexes(draw):
    """Triangles over few vertex ids (so ids repeat) with a random involution
    on their refs: pairs across triangles, pairs inside one triangle, refs
    glued to themselves, and free refs."""
    n = draw(st.integers(1, 8))
    ids = st.integers(0, draw(st.integers(0, 6)))
    triangles = [draw(st.tuples(ids, ids, ids)) for _ in range(n)]
    if draw(st.booleans()):
        triangles = [list(t) for t in triangles]
    refs = draw(st.permutations([(t, e) for t in range(n) for e in range(3)]))
    glue = {}
    while refs:
        kind = draw(st.sampled_from(("pair", "self", "free")))
        if kind == "pair" and len(refs) >= 2:
            a, b, refs = refs[0], refs[1], refs[2:]
            glue[a] = b
            glue[b] = a
        else:
            a, refs = refs[0], refs[1:]
            if kind == "self":
                glue[a] = a
    return triangles, glue


@settings(max_examples=300, deadline=None)
@given(raw_complexes())
def test_raw_complexes_match_oracle(complex_):
    _assert_matches_oracle(*complex_)


def test_oracle_cases_that_must_be_covered():
    # a self-glued ref is one gluing pair
    surf, _ = surface_oracle.package_canonical_form([(0, 1, 2)], {(0, 0): (0, 0)})
    assert surf.gluing == (((0, 0), (0, 0)),)
    _assert_matches_oracle([(0, 1, 2)], {(0, 0): (0, 0)})
    # a ref glued to another edge of its own triangle, with a repeated id
    _assert_matches_oracle([[1, 0, 1]], {(0, 1): (0, 2), (0, 2): (0, 1)})
    # every rotation of a triangle whose least id repeats
    for tri in ((0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 0)):
        _assert_matches_oracle([tri], {})
    # two components whose least triangle is not triangle 0
    a = standard_library(1, 1).surface
    b = standard_library(0, 2).surface
    shift = a.vertex_count
    triangles = [tuple(v + shift for v in tri) for tri in a.triangles] + list(b.triangles)
    offset = len(a.triangles)
    glue = surface_oracle.partner_dict(a)
    b_glue = surface_oracle.partner_dict(b)
    glue.update({(t + offset, e): (u + offset, f) for (t, e), (u, f) in b_glue.items()})
    assert min(range(len(triangles)), key=triangles.__getitem__) == offset
    _assert_matches_oracle(triangles, glue)


def _round_trip(s: TriSurface) -> TriSurface:
    return TriSurface.from_json(s.to_json())


def test_one_round_trip_reaches_a_fixpoint():
    surfaces = [standard_library(g, b).surface for g in range(4) for b in range(4)]
    surfaces += [library_for_class(DiffeoClass.from_pairs(pairs))[0] for pairs in _CLASSES]
    for s in surfaces:
        t = _round_trip(s)
        assert _round_trip(t) == t
