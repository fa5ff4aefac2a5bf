"""Surface calculus tests: validation, classification, cut/paste, library."""

import random
from collections import Counter

import pytest

from cutpaste.surface import (
    BoundaryGluing,
    CircleTouchesBoundary,
    CutRecord,
    DiffeoClass,
    EmbeddedCircle,
    InvalidSurface,
    LengthMismatch,
    NonSeparatingCut,
    OrientationClash,
    SurfaceError,
    TriSurface,
    annulus,
    build_standard,
    circles_vertex_disjoint,
    cut,
    cut_nonseparating_ok,
    disjoint_union,
    double_circle,
    fan_disk,
    library_for_class,
    mirror,
    octahedron,
    paste,
    paste_cut,
    refine_boundary,
    seven_vertex_torus,
    sk_move,
    sk_system_move,
    standard_library,
    subdivide,
    surface_from_data,
)


def torus() -> TriSurface:
    return seven_vertex_torus()


# ---------------------------------------------------------------------------
# Validation and basic invariants
# ---------------------------------------------------------------------------


def test_octahedron_is_valid_sphere():
    s = octahedron()
    assert s.validate() is None
    assert s.euler_characteristic() == 2
    assert s.classify() == DiffeoClass.connected(0, 0)
    assert s.boundary_circle_count() == 0


def test_single_triangle_is_a_disk():
    s = surface_from_data(3, [(0, 1, 2)], [])
    assert s.validate() is None
    assert s.euler_characteristic() == 1
    assert s.classify() == DiffeoClass.connected(0, 1)
    assert s.boundary_circle_count() == 1


def test_orientation_violation_detected():
    # two triangles glued along an edge with the SAME direction on both sides:
    # ref (0, 0) is index 0 and ref (1, 0) index 3
    tris = [(0, 1, 2), (0, 1, 3)]
    s = TriSurface(4, tuple(tris), (3, -1, -1, 0, -1, -1), (0,))
    violation = s.validate()
    assert violation is not None and "orientation-reversing" in violation


def test_double_glue_detected():
    # refs (1, 0) and (2, 0) are both glued to (0, 1), which is glued back
    # only to (1, 0)
    tris = [(0, 1, 2), (2, 1, 3), (2, 1, 4)]
    s = TriSurface(5, tuple(tris), (-1, 3, -1, 1, -1, -1, 1, -1, -1), (0,))
    assert s.validate() == "ref (2, 0) is glued to (0, 1), which is not glued back to it"


@pytest.mark.parametrize(
    "partners, message",
    [
        ((-1, -1), "partners has 2 entries, not 3 x 1 triangles = 3"),
        ((-1, -1, -1, -1), "partners has 4 entries, not 3 x 1 triangles = 3"),
        ((-1, 5, -1), "ref (0, 1) has partner index 5 outside -1..2"),
        ((-1, -1, -2), "ref (0, 2) has partner index -2 outside -1..2"),
        ((1, -1, -1), "ref (0, 0) is glued to (0, 1), which is not glued back to it"),
        ((1, 2, 0), "ref (0, 0) is glued to (0, 1), which is not glued back to it"),
        ((1.0, 0, -1), "partner index 1.0 of ref (0, 0) is not a JSON integer"),
        ((-1, -1.0, -1), "partner index -1.0 of ref (0, 1) is not a JSON integer"),
        ((-1, "0", -1), "partner index '0' of ref (0, 1) is not a JSON integer"),
    ],
    ids=["short", "long", "above", "below", "one_sided", "three_cycle", "float", "float_unglued", "string"],
)
def test_validate_names_a_malformed_partner_list(partners, message):
    # a surface built directly from its fields is not checked; validate
    # reports its partner list instead of raising
    s = TriSurface(3, ((0, 1, 2),), partners, (0,))
    assert s.validate() == message
    with pytest.raises(InvalidSurface, match="partner|glued"):
        s.require_valid()


@pytest.mark.parametrize(
    "triangles, starts, message",
    [
        (((0, 1.5, 2),), (0,), "vertex id 1.5 of triangle 0 is not a JSON integer"),
        (((0, 1, 2), (2, 1, True)), (0, 1), "vertex id True of triangle 1 is not a JSON integer"),
    ],
    ids=["float", "bool"],
)
def test_validate_names_a_vertex_id_that_is_not_an_int(triangles, starts, message):
    # 1.5 passes the range check and the id count; True compares as 1
    s = TriSurface(3, triangles, (-1,) * (3 * len(triangles)), starts)
    assert s.validate() == message
    with pytest.raises(InvalidSurface, match="JSON integer"):
        s.require_valid()


@pytest.mark.parametrize(
    "triangles, partners, starts, message",
    [
        (((0, 1, 2),), (-1, -1, -1), (), "component_starts has 0 entries, not one per component (1)"),
        (((0, 1, 2), (3, 4, 5)), (-1,) * 6, (0,), "component_starts has 1 entries, not one per component (2)"),
        (((0, 1, 2), (3, 4, 5)), (-1,) * 6, (0, 2), "component 1 starts at triangle 1, not at 2"),
        (
            ((0, 1, 2), (3, 4, 5), (1, 0, 6)),
            (6, -1, -1, -1, -1, -1, 0, -1, -1),
            (0, 1),
            "triangle 2 belongs to component 0, whose triangles are not consecutive",
        ),
    ],
    ids=["none", "too_few", "wrong_start", "split_block"],
)
def test_validate_checks_component_starts(triangles, partners, starts, message):
    # classify reads the blocks that component_starts marks; wrong starts
    # made it raise IndexError or call a disk "not an oriented surface"
    vertex_count = len({v for tri in triangles for v in tri})
    s = TriSurface(vertex_count, triangles, partners, starts)
    assert s.validate() == message
    with pytest.raises(InvalidSurface, match="component"):
        s.require_valid()


def test_surface_from_data_rejects_a_ref_in_two_pairs():
    with pytest.raises(InvalidSurface, match="glued twice"):
        surface_from_data(5, [(0, 1, 2), (1, 0, 3), (1, 0, 4)], [((0, 0), (1, 0)), ((0, 0), (2, 0))])


@pytest.mark.parametrize(
    "vertex_count, triangle, message",
    [(3, (10, 20, 30), "vertex id 10 outside 0..2"), (3, (0, 1.0, 2), "vertex id 1.0 is not a JSON integer")],
)
def test_surface_from_data_checks_vertex_ids_like_a_file(vertex_count, triangle, message):
    with pytest.raises(InvalidSurface) as raw:
        surface_from_data(vertex_count, [triangle], [])
    with pytest.raises(ValueError) as parsed:
        TriSurface.parse_json({"vertices": vertex_count, "triangles": [list(triangle)], "gluing": []})
    assert str(raw.value) == str(parsed.value) == message


def test_surface_from_data_renumbers_unused_ids_like_a_file():
    disk = surface_from_data(5, [(0, 1, 2)], [])
    assert disk == TriSurface.from_json({"vertices": 5, "triangles": [[0, 1, 2]], "gluing": []})
    assert disk.vertex_count == 3


def test_seven_vertex_torus():
    s = torus()
    assert s.validate() is None
    assert s.vertex_count == 7
    assert s.edge_count == 21
    assert s.triangle_count == 14
    assert s.euler_characteristic() == 0
    assert s.classify() == DiffeoClass.connected(1, 0)


def test_fan_disk_and_annulus():
    d = fan_disk(5)
    assert d.classify() == DiffeoClass.connected(0, 1)
    assert len(d.boundary_cycles) == 1
    assert len(d.boundary_cycles[0]) == 5
    a = annulus(4)
    assert a.classify() == DiffeoClass.connected(0, 2)
    assert [len(c) for c in a.boundary_cycles] == [4, 4]


def test_diffeo_class_helpers():
    c = DiffeoClass.from_pairs([(1, 0), (0, 1)])
    assert c.chi == 0 + 1
    assert c.boundary_circles == 1
    assert c.label() == "{(0,1),(1,0)}"
    assert DiffeoClass.from_label(c.label()) == c
    assert DiffeoClass.from_label("{}") == DiffeoClass.empty()
    assert c.union(DiffeoClass.empty()) == c


def test_json_round_trip():
    for s in (octahedron(), fan_disk(4), annulus(3)):
        again = TriSurface.from_json(s.to_json())
        assert again == s


# ---------------------------------------------------------------------------
# Disjoint union and mirror
# ---------------------------------------------------------------------------


def test_disjoint_union_classify_distributes():
    t = torus()
    d = fan_disk(3)
    u = disjoint_union(t, d)
    assert u.classify() == DiffeoClass.from_pairs([(1, 0), (0, 1)])
    assert u.euler_characteristic() == t.euler_characteristic() + d.euler_characteristic()
    assert disjoint_union(t, TriSurface(0, (), (), ())).classify() == t.classify()
    rng = random.Random(41)
    pool = [octahedron(), torus(), fan_disk(3), annulus(4), build_standard(1, 1)]
    for _ in range(10):
        a = pool[rng.randrange(len(pool))]
        b = pool[rng.randrange(len(pool))]
        u = disjoint_union(a, b)
        assert u.classify() == a.classify().union(b.classify())
        assert u.euler_characteristic() == (
            a.euler_characteristic() + b.euler_characteristic()
        )


def test_mirror_preserves_class():
    for s in (octahedron(), torus(), annulus(4)):
        m = mirror(s)
        assert m.validate() is None
        assert m.classify() == s.classify()


def test_subdivide_preserves_class():
    for s in (octahedron(), fan_disk(3), annulus(3)):
        s2 = subdivide(s)
        assert s2.validate() is None
        assert s2.classify() == s.classify()
        assert s2.triangle_count == 4 * s.triangle_count


# ---------------------------------------------------------------------------
# Cutting
# ---------------------------------------------------------------------------


def vertex_cycle_circle(s: TriSurface, vertices) -> EmbeddedCircle:
    """The circle through a vertex cycle, taking the least ref of each of
    its edges."""
    vertices = list(vertices)
    refs = []
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        candidates = [(t, e) for t in range(s.triangle_count) for e in range(3) if s.endpoints((t, e)) == (a, b)]
        if not candidates:
            raise SurfaceError(f"no edge from {a} to {b}")
        refs.append(min(candidates))
    return EmbeddedCircle(s, tuple(refs))


def equator_circle(s: TriSurface) -> EmbeddedCircle:
    """The length-4 equator of the canonical octahedron."""
    # find a 4-cycle of interior vertices all of valence 4 away from poles:
    # in the canonical octahedron every vertex works; use a known cycle by
    # walking edges from vertex adjacency
    for quad in _four_cycles(s):
        try:
            return vertex_cycle_circle(s, quad)
        except SurfaceError:
            continue
    raise AssertionError("no embeddable 4-cycle found")


def _four_cycles(s: TriSurface):
    adj = {}
    for t in range(s.triangle_count):
        for e in range(3):
            u, v = s.endpoints((t, e))
            adj.setdefault(u, set()).add(v)
    verts = sorted(adj)
    for a in verts:
        for b in sorted(adj[a]):
            for c in sorted(adj[b]):
                if c in (a, b):
                    continue
                for d in sorted(adj[c]):
                    if d in (a, b, c):
                        continue
                    if a in adj[d]:
                        yield (a, b, c, d)


def test_cut_octahedron_equator_gives_two_disks():
    s = octahedron()
    circle = equator_circle(s)
    out, rec = cut(s, circle)
    assert out.validate() is None
    assert out.classify() == DiffeoClass.from_pairs([(0, 1), (0, 1)])
    assert out.euler_characteristic() == s.euler_characteristic()
    assert len(rec.left) == len(rec.right) == 4


def test_cut_torus_along_triangle_boundary():
    s = torus()
    # triangle boundaries of a face are null-homotopic; oracle: classify parts
    circle = EmbeddedCircle.triangle_boundary(s, 0)
    out, _ = cut(s, circle)
    assert out.classify() == DiffeoClass.from_pairs([(0, 1), (1, 1)])


def torus_meridian(s: TriSurface) -> EmbeddedCircle:
    """A non-separating 3-cycle on the 7-vertex torus (it is a K7 graph, so
    every vertex triple is a cycle; non-face triples that fail to separate
    exist and we pick the first)."""
    import itertools

    faces = {tuple(sorted(s.triangles[t])) for t in range(s.triangle_count)}
    for triple in itertools.combinations(range(7), 3):
        if triple in faces:
            continue
        circle = vertex_cycle_circle(s, list(triple))
        try:
            cut(s, circle)
        except NonSeparatingCut:
            return circle
    raise AssertionError("no meridian found")


def test_cut_torus_meridian_is_nonseparating():
    s = torus()
    circle = torus_meridian(s)
    with pytest.raises(NonSeparatingCut):
        cut(s, circle)
    # the raw variant still works and keeps chi
    out, _ = cut_nonseparating_ok(s, circle)
    assert out.euler_characteristic() == 0
    assert out.classify() == DiffeoClass.connected(0, 2)


def test_circle_touching_boundary_rejected():
    d = fan_disk(4)
    with pytest.raises(CircleTouchesBoundary):
        EmbeddedCircle.triangle_boundary(d, 0)


@pytest.mark.parametrize("ref", [(62, 0), (-1, 0), (0, 3)])
def test_circle_refuses_a_ref_outside_the_surface(ref):
    """A ref past either end of the triangles or edges is not a boundary
    edge: the refusal names it and the valid ranges."""
    s = build_standard(1, 0)
    assert s.triangle_count == 62
    with pytest.raises(SurfaceError) as info:
        EmbeddedCircle(s, (ref,))
    assert not isinstance(info.value, CircleTouchesBoundary)
    assert str(info.value) == (
        f"circle edge {ref} is not a ref of this surface, whose triangles are 0..61 and edges 0..2"
    )


def test_chi_unchanged_by_cut():
    s = octahedron()
    circle = equator_circle(s)
    out, _ = cut(s, circle)
    assert out.euler_characteristic() == s.euler_characteristic()


# ---------------------------------------------------------------------------
# Pasting
# ---------------------------------------------------------------------------


def test_two_disks_paste_to_sphere():
    d1 = fan_disk(4)
    u = disjoint_union(d1, fan_disk(4))
    out = paste(u, BoundaryGluing(0, 1, 0))
    assert out.classify() == DiffeoClass.connected(0, 0)


def test_cut_paste_round_trip_is_identity():
    s = octahedron()
    circle = equator_circle(s)
    cut_surface, rec = cut(s, circle)
    back = paste_cut(cut_surface, rec, 0)
    assert back.classify() == s.classify()
    assert back.euler_characteristic() == s.euler_characteristic()
    assert (back.vertex_count, back.edge_count, back.triangle_count) == (
        s.vertex_count,
        s.edge_count,
        s.triangle_count,
    )
    for offset in (1, 2, 3):
        again = paste_cut(cut_surface, rec, offset)
        assert again.classify() == s.classify()
        assert again.euler_characteristic() == s.euler_characteristic()


def _torus_cut():
    """The genus-one library surface cut along its seam: a torus with one
    hole and a disk, and the record of the two length-3 boundary cycles."""
    lib = standard_library(1, 0)
    return cut(lib.surface, lib.seams[0])


def test_paste_cut_refuses_a_half_record():
    """A record with one side cut short would paste part of the circle and
    leave a smaller, still valid surface."""
    s, rec = _torus_cut()
    with pytest.raises(LengthMismatch, match="cut record sides have lengths 3 and 2"):
        paste_cut(s, CutRecord(rec.left, rec.right[:2]), 0)


def test_paste_cut_refuses_a_half_record_at_an_offset():
    s, rec = _torus_cut()
    with pytest.raises(LengthMismatch, match="cut record sides have lengths 3 and 2"):
        paste_cut(s, CutRecord(rec.left, rec.right[:2]), 1)


@pytest.mark.parametrize("ref", [(10**6, 0), (-1, 0), (0, 3), (0, -1)])
def test_paste_cut_refuses_a_ref_outside_the_surface(ref):
    s, rec = _torus_cut()
    with pytest.raises(SurfaceError, match=rf"cut record ref \({ref[0]}, {ref[1]}\) is not a ref of this surface"):
        paste_cut(s, CutRecord(rec.left[:2] + (ref,), rec.right), 0)


def test_paste_cut_refuses_a_record_of_another_surface():
    """The record names refs that the other surface glues, or that it does
    not have."""
    _, rec = _torus_cut()
    with pytest.raises(SurfaceError, match="cut record ref .* (is glued|is not a ref of this surface)"):
        paste_cut(build_standard(0, 2), rec, 0)


def test_paste_cut_refuses_a_glued_ref():
    s, rec = _torus_cut()
    glued = next(divmod(k, 3) for k, p in enumerate(s.partners) if p >= 0)
    with pytest.raises(SurfaceError, match=rf"cut record ref \({glued[0]}, {glued[1]}\) is glued"):
        paste_cut(s, CutRecord(rec.left[:2] + (glued,), rec.right), 0)


@pytest.mark.parametrize("offset", [0, 1])
def test_paste_cut_refuses_sides_that_do_not_chain(offset):
    """Two refs of one cycle and one of the other chain into no cycle."""
    s, rec = _torus_cut()
    left = rec.left[:2] + rec.right[:1]
    right = rec.right[1:] + rec.left[2:]
    with pytest.raises(SurfaceError, match="cut record sides are not one chained cycle each"):
        paste_cut(s, CutRecord(left, right), offset)


def test_paste_cut_refuses_a_side_listed_the_wrong_way_round():
    """With the right side reversed, gluing position by position folds the
    circles onto each other and would give a valid surface of genus two."""
    s, rec = _torus_cut()
    with pytest.raises(SurfaceError, match="cut record sides are not one chained cycle each"):
        paste_cut(s, CutRecord(rec.left, rec.right[::-1]), 0)


def test_paste_cut_takes_a_side_rotated_in_record_order():
    """A rotated side still matches the circles, shifted by one edge."""
    s, rec = _torus_cut()
    out = paste_cut(s, CutRecord(rec.left, rec.right[1:] + rec.right[:1]), 0)
    assert out.classify() == DiffeoClass.connected(1, 0)


@pytest.mark.parametrize("sides", ["same", "repeat"])
def test_paste_cut_refuses_a_repeated_ref(sides):
    s, rec = _torus_cut()
    left = rec.left if sides == "same" else rec.left[:2] + rec.left[:1]
    with pytest.raises(SurfaceError, match="cut record repeats a ref"):
        paste_cut(s, CutRecord(left, rec.left if sides == "same" else rec.right), 0)


def test_paste_cut_refuses_an_empty_record():
    s, _ = _torus_cut()
    with pytest.raises(SurfaceError, match="cut record sides are not one chained cycle each"):
        paste_cut(s, CutRecord((), ()), 0)


def test_annulus_self_paste_is_torus():
    out = paste(annulus(4), BoundaryGluing(0, 1, 0))
    assert out.validate() is None
    assert out.classify() == DiffeoClass.connected(1, 0)


def test_paste_errors():
    u = disjoint_union(fan_disk(3), fan_disk(4))
    with pytest.raises(LengthMismatch):
        paste(u, BoundaryGluing(0, 1, 0))
    with pytest.raises(OrientationClash):
        paste(u, BoundaryGluing(0, 0, 0))


def test_paste_drops_two_boundary_cycles():
    u = disjoint_union(annulus(4), annulus(4))
    assert u.boundary_circle_count() == 4
    out = paste(u, BoundaryGluing(0, 2, 0))
    assert out.boundary_circle_count() == 2
    assert out.euler_characteristic() == u.euler_characteristic()


# ---------------------------------------------------------------------------
# refine_boundary
# ---------------------------------------------------------------------------


def test_refine_boundary_disk():
    d = fan_disk(3)
    d4 = refine_boundary(d, 0, 4)
    assert d4.classify() == DiffeoClass.connected(0, 1)
    assert len(d4.boundary_cycles[0]) == 4
    assert d4.euler_characteristic() == 1
    # idempotent at target == current
    assert refine_boundary(d, 0, 3) == d


def test_refine_boundary_single_triangle_disk():
    d = surface_from_data(3, [(0, 1, 2)], [])
    d5 = refine_boundary(d, 0, 5)
    assert d5.classify() == DiffeoClass.connected(0, 1)
    assert len(d5.boundary_cycles[0]) == 5


def test_refine_boundary_cannot_shrink():
    d = fan_disk(5)
    with pytest.raises(SurfaceError):
        refine_boundary(d, 0, 4)


def unglued_siblings_off_their_cycle(s: TriSurface) -> list:
    """Unglued refs of one triangle that lie on different boundary cycles."""
    cycle_of = {r: i for i, cyc in enumerate(s.boundary_cycles) for r in cyc}
    return [
        (ref, (ref[0], f))
        for ref, i in cycle_of.items()
        for f in range(3)
        if cycle_of.get((ref[0], f), i) != i
    ]


@pytest.mark.parametrize("genus,boundary", [(g, b) for g in range(3) for b in range(3)])
def test_unglued_siblings_lie_on_one_boundary_cycle(genus, boundary):
    """The refinement of a cycle updates that cycle's ref list alone.  A
    split relocates the split edge's siblings; a glued one is reglued, and
    an unglued one lies on the split edge's cycle.  Checked on a library
    surface, on its cuts along each canonical circle, and on those cuts
    with their first cycle refined."""
    lib = standard_library(genus, boundary)
    surfaces = [lib.surface, surface_from_data(3, [(0, 1, 2)], [])]
    for circle in lib.seams + lib.nulls:
        cut_surface, _ = cut_nonseparating_ok(lib.surface, circle)
        length = len(cut_surface.boundary_cycles[0])
        surfaces += [cut_surface, refine_boundary(cut_surface, 0, length + 3)]
    assert len(surfaces) > 2
    for s in surfaces:
        assert unglued_siblings_off_their_cycle(s) == []


# ---------------------------------------------------------------------------
# double_circle
# ---------------------------------------------------------------------------


def test_double_circle_on_torus_meridian():
    s = torus()
    circle = torus_meridian(s)
    doubled = double_circle(s, circle)
    assert doubled.surface.classify() == s.classify()
    assert doubled.surface.euler_characteristic() == 0
    # cutting along the pair yields annulus + annulus
    out = _cut_pair(doubled)
    assert out.classify() == DiffeoClass.from_pairs([(0, 2), (0, 2)])


def test_double_circle_on_sphere_equator():
    s = octahedron()
    circle = equator_circle(s)
    doubled = double_circle(s, circle)
    assert doubled.surface.classify() == s.classify()
    out = _cut_pair(doubled)
    assert out.classify() == DiffeoClass.from_pairs([(0, 1), (0, 2), (0, 1)])


def _cut_pair(doubled):
    from cutpaste.surface import _Builder, _cut_circle_raw

    b = _Builder.from_surface(doubled.surface)
    _cut_circle_raw(b, [3 * t + e for t, e in doubled.first.refs])
    _cut_circle_raw(b, [3 * t + e for t, e in doubled.second.refs])
    out, _ = b.finish()
    return out.require_valid()


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------


def test_sk_move_preserves_class_on_genus_two():
    lib = standard_library(2, 0)
    seam = lib.seams[0]
    for offset in (0, 1, 2):
        out = sk_move(lib.surface, seam, offset)
        assert out.classify() == DiffeoClass.connected(2, 0)
        assert out.euler_characteristic() == -2


def test_sk_system_move_identity_restores_surface():
    from cutpaste.surface import _Builder, _cut_circle_raw, _glue_ref_pairs

    lib = standard_library(1, 0)
    # at the raw level the identity regluing restores the exact gluing state
    b = _Builder.from_surface(lib.surface)
    before = ([list(t) for t in b.triangles], list(b.partners))
    left, right = _cut_circle_raw(b, [3 * t + e for t, e in lib.seams[0].refs])
    _glue_ref_pairs(b, list(zip(left, right)))
    assert ([list(t) for t in b.triangles], list(b.partners)) == before
    # and the public op is deterministic and class-preserving
    out = sk_system_move(lib.surface, [lib.seams[0]])
    assert out.classify() == lib.surface.classify()
    assert out == sk_system_move(lib.surface, [lib.seams[0]])


@pytest.mark.parametrize("offsets", [[1], [1, 2, 3]])
def test_sk_system_move_refuses_offsets_of_the_wrong_length(offsets):
    lib = standard_library(2, 0)
    with pytest.raises(SurfaceError, match=f"got {len(offsets)} offsets for 2 circles"):
        sk_system_move(lib.surface, [lib.seams[0], lib.nulls[0]], (1, 0), offsets)


def test_sk_system_move_two_circle_swap_splits_tori():
    # genus-2 surface union a sphere: swap a handle seam with a sphere null
    # circle and land on two tori
    surf, comps = library_for_class(DiffeoClass.from_pairs([(2, 0), (0, 0)]))
    genus2 = next(c for c in comps if c.seams)
    sphere = next(c for c in comps if not c.seams)
    out = sk_system_move(surf, [genus2.seams[0], sphere.nulls[0]], pairing=(1, 0))
    assert out.classify() == DiffeoClass.from_pairs([(1, 0), (1, 0)])
    assert out.euler_characteristic() == surf.euler_characteristic()


def test_sk_system_move_four_circle_cross_paste():
    # the same relation via a four-circle cross paste: both handle seams plus
    # two sphere nulls, crossing seam 0 with null 0
    surf, comps = library_for_class(DiffeoClass.from_pairs([(2, 0), (0, 0)]))
    genus2 = next(c for c in comps if c.seams)
    sphere = next(c for c in comps if not c.seams)
    circles = [genus2.seams[0], genus2.seams[1], sphere.nulls[0], sphere.nulls[1]]
    out = sk_system_move(surf, circles, pairing=(2, 1, 0, 3))
    assert out.classify() == DiffeoClass.from_pairs([(1, 0), (1, 0)])


def test_sk_move_nonseparating_rejected():
    s = torus()
    circle = torus_meridian(s)
    with pytest.raises(NonSeparatingCut):
        sk_move(s, circle)


# ---------------------------------------------------------------------------
# Generator library
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", range(4))
@pytest.mark.parametrize("b", range(4))
def test_build_standard_inverts_construction(g, b):
    s = build_standard(g, b)
    assert s.validate() is None
    assert s.classify() == DiffeoClass.connected(g, b)
    assert s.euler_characteristic() == 2 - 2 * g - b


def test_library_has_named_circles():
    lib = standard_library(2, 1)
    assert len(lib.seams) == 2
    assert len(lib.nulls) == 2
    # seams split off (1,1) pieces
    out, _ = cut(lib.surface, lib.seams[0])
    assert (1, 1) in out.classify().components


@pytest.mark.parametrize("g", range(6))
@pytest.mark.parametrize("b", range(6))
def test_library_circles_keep_the_docstring_claims(g, b):
    """``LibrarySurface``: genus seams and two nulls, all pairwise
    vertex-disjoint; a seam splits off a (1,1) piece, and a null a
    one-triangle disk."""
    lib = standard_library(g, b)
    assert (len(lib.seams), len(lib.nulls)) == (g, 2)
    assert circles_vertex_disjoint(lib.seams + lib.nulls)
    for seam in lib.seams:
        out, _ = cut(lib.surface, seam)
        assert out.classify() == DiffeoClass.from_pairs([(1, 1), (g - 1, b + 1)])
    for null in lib.nulls:
        out, _ = cut(lib.surface, null)
        assert out.classify() == DiffeoClass.from_pairs([(0, 1), (g, b + 1)])
        assert 1 in Counter(out.component_of_triangle).values()


def test_library_determinism():
    import json

    a = build_standard(1, 2)
    standard_library.cache_clear()
    b = build_standard(1, 2)
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())


def test_randomized_cut_paste_round_trips():
    rng = random.Random(7)
    classes = [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2), (2, 1)]
    for _ in range(30):
        g, b = classes[rng.randrange(len(classes))]
        lib = standard_library(g, b)
        circles = list(lib.seams) + list(lib.nulls)
        if not circles:
            continue
        circle = circles[rng.randrange(len(circles))]
        s = lib.surface
        before_cycles = sorted(len(c) for c in s.boundary_cycles)
        try:
            cut_surface, rec = cut(s, circle)
        except NonSeparatingCut:
            continue
        offset = rng.randrange(len(rec.left))
        back = paste_cut(cut_surface, rec, offset)
        assert back.classify() == s.classify()
        assert back.euler_characteristic() == s.euler_characteristic()
        assert sorted(len(c) for c in back.boundary_cycles) == before_cycles


def test_sk_move_preserves_untouched_boundary_fingerprints():
    lib = standard_library(1, 2)
    seam = lib.seams[0]
    before = sorted(len(c) for c in lib.surface.boundary_cycles)
    out = sk_move(lib.surface, seam, offset=1)
    assert out.classify() == lib.surface.classify()
    assert sorted(len(c) for c in out.boundary_cycles) == before
