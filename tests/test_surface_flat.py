"""The flat-partner walks against their ref-dict references.

``TriSurface`` stores its gluing as a flat partner list (ref (t, e) is
index 3t+e).  Its components, boundary cycles, class, edge count, Euler
characteristic, ``validate`` message and chain data must equal those of
the walks over a ``dict[Ref, Ref]`` in ``surface_oracle`` and
``chain_oracle``, on library surfaces, subdivided ones, unions and mirrors,
surfaces parsed from shuffled and rotated files, raw complexes and
corrupted surfaces.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import chain_oracle
import surface_oracle
from test_surface_canonical import _library, raw_complexes, surfaces
from cutpaste.euler_functor import surface_chain_data
from cutpaste.surface import (
    DiffeoClass,
    InvalidSurface,
    TriSurface,
    _corners_around,
    fan_disk,
    library_for_class,
    octahedron,
    standard_library,
    subdivide,
)


def _assert_walks_match(s: TriSurface):
    glue = surface_oracle.partner_dict(s)
    n = len(s.triangles)
    pairs = {tuple(sorted(pair)) for pair in glue.items()}
    assert s.edge_count == 3 * n - len(pairs)
    assert s.euler_characteristic() == s.vertex_count - (3 * n - len(pairs)) + n
    assert list(s.component_of_triangle) == surface_oracle.components(n, glue)
    assert s.component_count == max(surface_oracle.components(n, glue), default=-1) + 1
    assert s.boundary_cycles == surface_oracle.boundary_cycles(n, glue)
    assert s.boundary_circle_count() == len(s.boundary_cycles)
    assert s.boundary_refs == tuple(sorted(r for c in s.boundary_cycles for r in c))
    for t in range(n):
        for e in range(3):
            assert s.partner((t, e)) == glue.get((t, e))
    for v in range(s.vertex_count):
        corners = [(t, i) for t, tri in enumerate(s.triangles) for i in range(3) if tri[i] == v]
        interior = all((t, (i + 2) % 3) in glue for t, i in corners)
        assert s.vertex_is_interior(v) == interior
    try:
        want = surface_oracle.diffeo_class(s)
    except InvalidSurface as exc:
        with pytest.raises(InvalidSurface) as got:
            s.classify()
        assert str(got.value) == str(exc)
    else:
        assert s.classify() == want
    assert s.validate() == surface_oracle.validate(s)


def _assert_chains_match(s: TriSurface, subset=None):
    got = surface_chain_data(s, subset)
    want = chain_oracle.surface_chain_data(s, subset)
    assert got.vertices == want.vertices
    assert got.edges == want.edges
    assert got.triangles == want.triangles
    assert got.complex == want.complex
    for mine, theirs in zip(got.complex.boundaries, want.complex.boundaries):
        # same entries in the same order, which later reductions read
        assert [list(c.items()) for c in mine.columns] == [list(c.items()) for c in theirs.columns]


@settings(max_examples=60, deadline=None)
@given(surfaces())
def test_walks_match_the_dict_walks(drawn):
    s, _ = drawn
    _assert_walks_match(s)


@settings(max_examples=150, deadline=None)
@given(raw_complexes())
def test_raw_complexes_match_the_dict_walks(complex_):
    # repeated vertex ids, refs glued within one triangle and refs glued
    # to themselves, each of which is one edge
    triangles, glue = complex_
    s, _ = surface_oracle.package_canonical_form(triangles, glue)
    _assert_walks_match(s)
    assert s.edge_count == 3 * len(triangles) - len({tuple(sorted(pair)) for pair in glue.items()})


@settings(max_examples=40, deadline=None)
@given(surfaces())
def test_chain_data_matches_the_edge_rep_version(drawn):
    s, rng = drawn
    _assert_chains_match(s)
    n = s.triangle_count
    subset = rng.sample(range(n), rng.randint(0, n))
    _assert_chains_match(s, subset)
    _assert_chains_match(s, range(rng.randint(0, n)))


def _raw(s: TriSurface):
    return [list(t) for t in s.triangles], dict(surface_oracle.partner_dict(s))


def _swap_partners(s, rng):
    """Two glued pairs a~b, c~d become a~d, c~b."""
    triangles, glue = _raw(s)
    pairs = [(a, b) for a, b in glue.items() if a < b]
    if len(pairs) < 2:
        return None
    (a, b), (c, d) = rng.sample(pairs, 2)
    for r in (a, b, c, d):
        del glue[r]
    glue.update({a: d, d: a, c: b, b: c})
    return s.vertex_count, triangles, glue


def _merge_vertices(s, rng):
    """Vertex v takes the id of another vertex w; the ids above v move down
    one, so they stay 0..vertex_count-1."""
    if s.vertex_count < 2:
        return None
    triangles, glue = _raw(s)
    v, w = rng.sample(range(s.vertex_count), 2)
    squeeze = [x - (x > v) for x in range(s.vertex_count)]
    squeeze[v] = squeeze[w]
    return s.vertex_count - 1, [[squeeze[x] for x in t] for t in triangles], glue


def _unglue(s, rng):
    """Some glued pairs come apart, without splitting their vertices."""
    triangles, glue = _raw(s)
    pairs = [(a, b) for a, b in glue.items() if a < b]
    if not pairs:
        return None
    for a, b in rng.sample(pairs, rng.randint(1, min(3, len(pairs)))):
        del glue[a], glue[b]
    return s.vertex_count, triangles, glue


def _relabel_corner(s, rng):
    """One corner of one triangle gets another vertex id."""
    if s.vertex_count < 2:
        return None
    triangles, glue = _raw(s)
    t = rng.randrange(len(triangles))
    i = rng.randrange(3)
    triangles[t][i] = rng.choice([v for v in range(s.vertex_count) if v != triangles[t][i]])
    return s.vertex_count, triangles, glue


_CORRUPTIONS = (_swap_partners, _merge_vertices, _unglue, _relabel_corner)


@settings(max_examples=80, deadline=None)
@given(surfaces(), st.sampled_from(_CORRUPTIONS), st.integers(1, 2))
def test_validate_matches_on_corrupted_surfaces(drawn, corrupt, times):
    s, rng = drawn
    for _ in range(times):
        broken = corrupt(s, rng)
        if broken is None:
            return
        vertex_count, triangles, glue = broken
        # as built from its fields, in the corrupted numbering
        direct = surface_oracle.from_fields(vertex_count, triangles, glue)
        assert direct.validate() == surface_oracle.validate(direct)
        # as canonicalized, like a parsed file, with every walk compared
        s, _ = surface_oracle.package_canonical_form(triangles, glue)
        _assert_walks_match(s)


def test_corrupted_surfaces_reach_the_link_messages():
    # the corruptions reach both the gluing checks and the link check
    messages = []
    for g, b in ((0, 0), (1, 0), (0, 2), (1, 1)):
        s = standard_library(g, b).surface
        rng = random.Random(10 * g + b)
        for corrupt in _CORRUPTIONS:
            for _ in range(20):
                _, triangles, glue = corrupt(s, rng)
                t, _ = surface_oracle.package_canonical_form(triangles, glue)
                messages.append(t.validate())
                assert messages[-1] == surface_oracle.validate(t)
    assert any(m is not None and m.startswith("link of vertex") for m in messages)
    assert any(m is not None and "orientation-reversing" in m for m in messages)
    assert None in messages


def _pinched(first: TriSurface, second: TriSurface, v_first: int, v_second: int) -> TriSurface:
    """first and second side by side, unchecked, with second's vertex
    v_second given first's id v_first: two components that share one id."""
    n, off = len(first.triangles), first.vertex_count
    ids = [v_first if v == v_second else off + v - (v > v_second) for v in range(second.vertex_count)]
    triangles = list(first.triangles) + [tuple(ids[v] for v in tri) for tri in second.triangles]
    glue = surface_oracle.partner_dict(first)
    for (t, e), (u, f) in surface_oracle.partner_dict(second).items():
        glue[t + n, e] = (u + n, f)
    return surface_oracle.from_fields(off + second.vertex_count - 1, triangles, glue)


def test_pinched_surfaces_give_each_link_message():
    disk, octa = fan_disk(3), octahedron()
    rim = next(v for v in range(disk.vertex_count) if not disk.vertex_is_interior(v))
    cases = [
        (_pinched(disk, disk, rim, rim), f"link of vertex {rim} splits into 2 arcs"),
        (_pinched(octa, disk, 4, rim), "link of vertex 4 is not a single path"),
        (_pinched(octa, octa, 4, 2), "link of vertex 4 is not a single cycle"),
    ]
    for s, message in cases:
        assert s.validate() == message
        assert surface_oracle.validate(s) == message


def test_multi_component_library_surfaces_match():
    for pairs in (((0, 1), (1, 0)), ((0, 0), (2, 1), (3, 0)), ((0, 2), (1, 2), (2, 0))):
        s, _ = library_for_class(DiffeoClass.from_pairs(pairs))
        _assert_walks_match(s)
        _assert_chains_match(s)
        comp = s.component_of_triangle
        for c in range(s.component_count):
            _assert_chains_match(s, [t for t in range(len(comp)) if comp[t] == c])


@pytest.mark.parametrize(
    "build",
    [
        octahedron,
        lambda: _library(2, 0),
        lambda: _library(1, 2),
        lambda: library_for_class(DiffeoClass.from_pairs([(0, 1), (1, 0), (0, 0)]))[0],
        lambda: subdivide(subdivide(_library(0, 1))),
    ],
    ids=["closed", "closed-genus-2", "with-boundary", "multi-component", "subdivided-twice"],
)
def test_corners_around_matches_a_scan(build):
    s = build()
    glue = surface_oracle.partner_dict(s)
    scan: dict[int, list] = {}  # each vertex's corners, by scanning every triangle
    for t, tri in enumerate(s.triangles):
        for i in range(3):
            scan.setdefault(tri[i], []).append((t, i))
    for t, tri in enumerate(s.triangles):
        for i in range(3):
            got = [divmod(k, 3) for k in _corners_around(s.partners, 3 * t + i)]
            # each corner of the vertex once
            assert sorted(got) == scan[tri[i]]
            # one rotation step apart: across the ref that ends at a corner
            # to its partner, which starts at the same vertex
            steps = [glue.get((u, (j + 2) % 3)) for u, j in got]
            assert steps[:-1] == got[1:]
            if s.vertex_is_interior(tri[i]):
                assert got[0] == (t, i) and steps[-1] == got[0]  # the cycle from the corner
            else:
                assert got[0] not in glue and steps[-1] is None  # the whole arc
