"""Chain functor tests: simplicial chains, gluing squares, commutation."""

import json
import random

import pytest

import chain_oracle
from cutpaste import chains, euler_functor, surface
from cutpaste.abgroup import IntMatrix
from cutpaste.chains import ChainComplex, ChainMap, PushoutResult
from cutpaste.euler_functor import (
    SquareInstance,
    chains_of,
    coproduct_square,
    functor_on_square,
    inclusion_chain_map,
    pi0_commutation,
    square_from_circles,
    surface_chain_data,
)
from cutpaste.surface import (
    DiffeoClass,
    SurfaceError,
    TriSurface,
    build_standard,
    fan_disk,
    library_for_class,
    octahedron,
    seven_vertex_torus,
    sk_system_move,
    standard_library,
    subdivide,
)

from test_surface import equator_circle, torus_meridian


def test_chains_of_octahedron():
    c = chains_of(octahedron())
    assert c.ranks == (6, 12, 8)
    h = c.homology()
    assert h.at(0) == (1, ())
    assert h.at(1) == (0, ())
    assert h.at(2) == (1, ())
    assert c.euler_char() == 2


def test_chains_of_single_triangle_disk():
    from cutpaste.surface import surface_from_data

    disk = surface_from_data(3, [(0, 1, 2)], [])
    c = chains_of(disk)
    assert c.ranks == (3, 3, 1)
    h = c.homology()
    assert h.at(0) == (1, ())
    assert h.at(1) == (0, ())
    assert h.at(2) == (0, ())


def test_chains_of_folded_triangle_disk():
    """One triangle whose first two edges are glued to each other is a disk:
    the two refs are one chain edge, summed in the triangle's boundary, and
    the third edge is a loop with zero boundary."""
    from cutpaste.surface import surface_from_data

    disk = surface_from_data(2, [[0, 1, 0]], [[[0, 0], [0, 1]]])
    data = surface_chain_data(disk)
    assert data.complex.ranks == (2, 2, 1)
    assert data.complex.homology().describe() == "H_0=Z"
    assert data.complex.k0_class() == disk.euler_characteristic() == 1
    want = chain_oracle.surface_chain_data(disk)
    assert data.cells == want.cells
    assert data.complex == want.complex


def test_chains_of_torus():
    c = chains_of(seven_vertex_torus())
    assert c.ranks == (7, 21, 14)
    h = c.homology()
    assert h.at(0) == (1, ())
    assert h.at(1) == (2, ())
    assert h.at(2) == (1, ())
    assert c.k0_class() == 0


@pytest.mark.parametrize("g", range(3))
@pytest.mark.parametrize("b", range(3))
def test_chi_agreement_on_library(g, b):
    s = build_standard(g, b)
    assert chains_of(s).euler_char() == s.euler_characteristic()
    assert chains_of(s).k0_class() == 2 - 2 * g - b


def test_subcomplex_inclusion_is_injective_chain_map():
    s = octahedron()
    full = surface_chain_data(s)
    sub = euler_functor._restrict(s, full, {0, 1, 2})
    inc = inclusion_chain_map(sub, full)
    assert inc.levelwise_injective
    assert inc.is_monomial_injection()


def test_coproduct_square_passes():
    q = coproduct_square(fan_disk(3), seven_vertex_torus())
    rep = functor_on_square(q)
    assert rep.passed
    assert rep.pushout_model == "quotient"
    assert q.a_triangles == frozenset()


def sphere_halves_square() -> SquareInstance:
    """The 32-triangle sphere split into triangles 0-15 and 16-31.  The
    halves share no triangle, so A is empty, yet they meet along edges of
    D: the pushout over the empty complex is two components, D is one."""
    return SquareInstance(build_standard(0, 0), frozenset(range(16)), frozenset(range(16, 32)))


def test_square_sharing_no_triangle_fails_in_degree_zero():
    q = sphere_halves_square()
    assert q.surface.triangle_count == 32 and q.a_triangles == frozenset()
    assert functor_on_square(q).to_lines() == [
        "square_check=FAIL",
        "pushout_model=quotient",
        "pushout_homology=H_0=Z^2",
        "glued_homology=H_0=Z, H_2=Z",
        "first_failing_degree=0",
    ]


def test_sphere_from_two_disks_square():
    s = octahedron()
    circle = equator_circle(s)
    q = square_from_circles(s, [circle])
    rep = functor_on_square(q)
    assert rep.passed
    # both sides compute sphere homology
    assert rep.total_homology.at(0) == (1, ())
    assert rep.total_homology.at(2) == (1, ())
    # pieces: A is an annulus, B and C are disks with collars
    a, b, c, d = q.piece_surfaces()
    assert a.classify() == DiffeoClass.connected(0, 2)
    assert d.classify() == DiffeoClass.connected(0, 0)


def test_torus_from_annuli_square():
    # two parallel meridians: A = two annular collars, B and C = annuli,
    # D = the torus
    s = seven_vertex_torus()
    m = torus_meridian(s)
    q = square_from_circles(s, [m])
    rep = functor_on_square(q)
    assert rep.passed
    assert rep.total_homology.at(1) == (2, ())
    a, b, c, d = q.piece_surfaces()
    assert d.classify() == DiffeoClass.connected(1, 0)


def test_two_circle_square_on_torus():
    from cutpaste.surface import double_circle

    s = seven_vertex_torus()
    m = torus_meridian(s)
    doubled = double_circle(s, m)
    q = square_from_circles(doubled.surface, [doubled.first, doubled.second])
    rep = functor_on_square(q)
    assert rep.passed
    a, b, c, d = q.piece_surfaces()
    # A = two disjoint annuli (the paper-style collar object)
    assert a.classify() == DiffeoClass.from_pairs([(0, 2), (0, 2)])
    assert b.classify().boundary_circles == 2
    assert d.classify() == DiffeoClass.connected(1, 0)


def test_square_instance_json_round_trip():
    q = square_from_circles(octahedron(), [equator_circle(octahedron())])
    data = q.to_json()
    again = SquareInstance.from_json(data)
    assert again.surface == q.surface
    assert again.b_triangles == q.b_triangles
    assert functor_on_square(again).passed


def test_pi0_commutation_on_library():
    samples = [build_standard(g, b) for g in range(3) for b in range(3)]
    samples.append(TriSurface(0, (), (), ()))
    report = pi0_commutation(samples)
    assert report.passed
    for label, chi, k in report.entries:
        if label == "{}":
            assert chi == k == 0


def test_pi0_commutation_after_moves():
    surf, comps = library_for_class(DiffeoClass.from_pairs([(2, 0), (0, 0)]))
    genus2 = next(c for c in comps if c.seams)
    sphere = next(c for c in comps if not c.seams)
    moved = sk_system_move(surf, [genus2.seams[0], sphere.nulls[0]], pairing=(1, 0))
    report = pi0_commutation([surf, moved])
    assert report.passed
    assert report.entries[0][1] == report.entries[1][1]  # chi preserved


def test_square_additivity_of_k0_class():
    # for every gluing square, k0(A) + k0(D) = k0(B) + k0(C)
    rng = random.Random(29)
    classes = [(0, 0), (1, 0), (1, 1), (2, 0)]
    for g, b in classes:
        lib = standard_library(g, b)
        circles = list(lib.seams) + list(lib.nulls)
        if not circles:
            continue
        q = square_from_circles(lib.surface, [circles[0]])
        data_d = surface_chain_data(q.surface)
        data_a, data_b, data_c = (
            euler_functor._restrict(q.surface, data_d, t)
            for t in (q.a_triangles, q.b_triangles, q.c_triangles)
        )
        assert (
            data_a.complex.k0_class() + data_d.complex.k0_class()
            == data_b.complex.k0_class() + data_c.complex.k0_class()
        )


def test_pi0_naturality_equal_coordinates_imply_equal_k0():
    # classes with equal coordinates in the with-boundary group have equal
    # chain-level k0 class
    from cutpaste.squares_k0 import Caps, surface_squares_presentation

    pres = surface_squares_presentation(Caps(2, 2, 2))
    by_coord = {}
    for cls in pres.classes:
        if cls.is_empty or cls.component_count > 1:
            continue
        nf = pres.coordinate_of(cls)
        by_coord.setdefault((nf.free, nf.torsion), []).append(cls)
    for group in by_coord.values():
        k0s = {
            chains_of(build_standard(*group_cls.components[0])).k0_class()
            for group_cls in group
        }
        assert len(k0s) == 1


def test_acyclic_complex_has_zero_k0():
    from cutpaste.chains import ChainComplex, ChainMap

    acyclic = ChainComplex.make(0, 1, (2, 2), [[[1, 0], [0, 1]]])
    assert acyclic.k0_class() == 0


def test_many_random_squares_pass():
    rng = random.Random(23)
    classes = [(0, 0), (1, 0), (1, 1), (0, 2), (2, 0)]
    count = 0
    for trial in range(30):
        g, b = classes[rng.randrange(len(classes))]
        lib = standard_library(g, b)
        circles = list(lib.seams) + list(lib.nulls)
        if not circles:
            continue
        take = rng.randint(1, min(2, len(circles)))
        chosen = rng.sample(circles, take)
        from cutpaste.surface import circles_vertex_disjoint

        if not circles_vertex_disjoint(chosen):
            continue
        q = square_from_circles(lib.surface, chosen)
        rep = functor_on_square(q)
        assert rep.passed, f"square failed on {(g, b)} trial {trial}"
        count += 1
    assert count >= 20


def test_chain_paths_build_no_dense_matrix(monkeypatch):
    """Surface chains, inclusions, the d o d and commutation checks, the
    monomial pushout and homology all work on sparse columns: with every
    dense form of IntMatrix raising, a square and a subdivided surface still
    go through."""
    lib = standard_library(1, 2)
    q = square_from_circles(lib.surface, lib.nulls[:2])
    s = subdivide(lib.surface)

    def dense(self, *args):
        raise AssertionError("a dense matrix was built")

    monkeypatch.setattr(IntMatrix, "entries", property(dense))
    monkeypatch.setattr(IntMatrix, "to_rows", dense)
    monkeypatch.setattr(IntMatrix, "__init__", dense)
    rep = functor_on_square(q)
    assert rep.passed and rep.pushout_model == "quotient"
    h = chains_of(s).homology()
    assert [h.at(n) for n in range(3)] == [(1, ()), (3, ()), (0, ())]


def test_square_json_round_trip_renumbers_subsets():
    """Parsing canonicalizes the surface and may renumber its triangles; the
    two subsets are renumbered with it, so the square keeps its pieces."""
    lib = standard_library(2, 1)
    q = square_from_circles(lib.surface, [lib.seams[0], lib.nulls[0]])
    data = json.loads(json.dumps(q.to_json()))
    assert SquareInstance.from_json(data) == q  # a written square parses to itself
    # move triangle t of the file to place[t], so the parse must renumber
    place = list(range(len(q.surface.triangles)))
    random.Random(0).shuffle(place)
    d = data["d"]
    triangles = d["triangles"][:]
    for t, tri in enumerate(d["triangles"]):
        triangles[place[t]] = tri
    d["triangles"] = triangles
    d["gluing"] = [[[place[t], e] for t, e in pair] for pair in d["gluing"]]
    for key in ("b_triangles", "c_triangles"):
        data[key] = [place[t] for t in data[key]]
    back = SquareInstance.from_json(data)
    assert list(map(tuple, d["triangles"])) != list(back.surface.triangles)  # renumbered
    assert back == q
    assert [p.classify() for p in back.piece_surfaces()] == [
        p.classify() for p in q.piece_surfaces()
    ]
    assert functor_on_square(back).passed
    assert SquareInstance.from_json(back.to_json()) == back


def test_monomial_pushout_builds_no_direct_sum(monkeypatch):
    """Only the Smith and cone pushouts read B (+) C; the monomial quotient
    taken by every surface square must not build it.  Nor does it
    diagonalize the inclusions: a monomial injection is injective by its
    shape, and its cokernel is free."""
    lib = standard_library(1, 2)
    q = square_from_circles(lib.surface, lib.nulls[:2])

    def direct_sum(self, other):
        raise AssertionError("B (+) C was built")

    def diagonalized(self):
        raise AssertionError("an inclusion was diagonalized")

    monkeypatch.setattr(ChainComplex, "direct_sum", direct_sum)
    monkeypatch.setattr(ChainMap, "levelwise_injective", property(diagonalized))
    monkeypatch.setattr(ChainMap, "cokernel_torsion_free", property(diagonalized))
    rep = functor_on_square(q)
    assert rep.passed and rep.pushout_model == "quotient"


def _assert_same_chain_data(got, want):
    assert got.complex.ranks == want.complex.ranks
    assert got.cells == want.cells
    assert got.ref_edges == want.ref_edges
    for mine, theirs in zip(got.complex.boundaries, want.complex.boundaries):
        assert [list(c.items()) for c in mine.columns] == [list(c.items()) for c in theirs.columns]


def _check_restrictions(s, subsets):
    """Each subset's chains read off the whole surface's, as the square
    check reads them, equal the oracle's, which builds the subset on its
    own, cells included; and the cells place the piece in the whole: its
    inclusion commutes with the boundaries (ChainMap checks that)."""
    whole = surface_chain_data(s)
    assert whole.cells == chain_oracle.surface_chain_data(s).cells
    for subset in subsets:
        data = euler_functor._restrict(s, whole, subset)
        _assert_same_chain_data(data, chain_oracle.surface_chain_data(s, subset))
        assert inclusion_chain_map(data, whole).is_monomial_injection()


def test_restriction_of_the_folded_disk_reads_cells_off_the_refs():
    """The folded triangle's first two refs cancel out of its boundary
    column, and its third edge is a loop with an empty column: a restriction
    that took cells from the nonzero entries of the whole surface's columns
    would give ranks (0, 1, 1) on {0} instead of (2, 2, 1)."""
    from cutpaste.surface import surface_from_data

    disk = surface_from_data(2, [[0, 1, 0]], [[[0, 0], [0, 1]]])
    _check_restrictions(disk, [set(), {0}])
    whole = surface_chain_data(disk)
    assert euler_functor._restrict(disk, whole, {0}).complex.ranks == (2, 2, 1)
    assert euler_functor._restrict(disk, whole, set()).complex.ranks == (0, 0, 0)


@pytest.mark.parametrize("g, b", [(0, 0), (1, 0), (1, 2), (2, 1)])
def test_restriction_matches_the_subset_oracle_on_library_surfaces(g, b):
    """Seeded triangle subsets of library surfaces and of square surfaces
    (with their A, B and C): a restriction that renumbered edges by their
    first appearance, or kept the whole surface's vertex positions, fails
    here."""
    rng = random.Random(31 * g + b)
    lib = standard_library(g, b)
    s = lib.surface
    n = s.triangle_count
    subsets = [set(rng.sample(range(n), rng.randint(0, n))) for _ in range(6)]
    _check_restrictions(s, subsets)
    circles = list(lib.seams) + list(lib.nulls)
    if circles:
        q = square_from_circles(s, circles[:1])
        _check_restrictions(q.surface, [q.a_triangles, q.b_triangles, q.c_triangles])


def test_square_refuses_a_triangle_outside_the_surface():
    """Slicing the whole surface's ref_edges past its end gives an empty
    slice, not an error; the restriction leaves the range to the square,
    which refuses pieces that are not exactly the surface's triangles."""
    with pytest.raises(SurfaceError, match="square pieces must cover the surface"):
        SquareInstance(octahedron(), frozenset(range(9)), frozenset({0}))


def _count_reductions(monkeypatch) -> list:
    calls = []
    reduce = chains._reduce_unit_pairs

    def counted(*args):
        calls.append(1)
        return reduce(*args)

    monkeypatch.setattr(chains, "_reduce_unit_pairs", counted)
    return calls


def _passing_square() -> SquareInstance:
    lib = standard_library(2, 1)
    return square_from_circles(lib.surface, [lib.seams[0], lib.nulls[0]])


def test_square_whose_pushout_is_d_relabelled_reduces_once(monkeypatch):
    """The pushout of a library square is D with its basis renumbered, so
    D's homology serves both lines: one unit-pair reduction, where the
    parent ran two."""
    calls = _count_reductions(monkeypatch)
    rep = functor_on_square(_passing_square())
    assert len(calls) == 1
    assert rep.to_lines() == [
        "square_check=PASS",
        "pushout_model=quotient",
        "pushout_homology=H_0=Z, H_1=Z^4",
        "glued_homology=H_0=Z, H_1=Z^4",
    ]


def test_halves_meeting_outside_a_reduce_twice(monkeypatch):
    """The sphere's two halves share edges but no triangle: the pushout's
    cells do not map one to one onto D's, so both homologies are computed
    and the report is the FAIL it always was."""
    calls = _count_reductions(monkeypatch)
    rep = functor_on_square(sphere_halves_square())
    assert len(calls) == 2
    assert rep.to_lines()[-1] == "first_failing_degree=0" and not rep.passed


def test_relabelling_certificate_refuses_a_flipped_sign(monkeypatch):
    """A pushout whose first triangle has its boundary column negated still
    has d o d = 0 and a one-to-one basis onto D's cells, but one column no
    longer matches: the certificate refuses and both homologies are
    computed.  A certificate that checked only the bijection would accept
    it and reduce once."""
    real = euler_functor.pushout
    built = []

    def flipped(f, g):
        res = real(f, g)
        p = res.complex
        d1, d2 = p.boundaries
        cols = ({i: -x for i, x in d2.columns[0].items()},) + d2.columns[1:]
        p2 = ChainComplex(p.lo, p.hi, p.ranks, (d1, IntMatrix.from_columns(d2.rows, d2.cols, cols)))
        built.append(p2)
        return PushoutResult(p2, res.from_first, res.from_second, res.model)

    monkeypatch.setattr(euler_functor, "pushout", flipped)
    calls = _count_reductions(monkeypatch)
    rep = functor_on_square(_passing_square())
    assert len(calls) == 2
    assert rep.pushout_homology == built[0].homology()
    assert rep.total_homology.describe() == "H_0=Z, H_1=Z^4"


@pytest.mark.parametrize("kind", ["seams", "nulls"])
@pytest.mark.parametrize(
    "move",
    [
        surface.cut,
        surface.double_circle,
        lambda s, c: sk_system_move(s, [c]),
        lambda s, c: square_from_circles(s, [c]),
    ],
    ids=["cut", "double_circle", "sk_system_move", "square_from_circles"],
)
def test_moves_refuse_a_circle_of_another_surface(move, kind):
    """A genus-2 circle handed to the sphere: its refs would name unrelated
    edges of the sphere, or none at all."""
    circle = getattr(standard_library(2, 0), kind)[0]
    with pytest.raises(SurfaceError, match="circle does not live on this surface"):
        move(standard_library(0, 0).surface, circle)


def test_inclusion_refuses_a_piece_outside_the_bigger_one():
    q = _passing_square()
    whole = surface_chain_data(q.surface)
    data_b = euler_functor._restrict(q.surface, whole, q.b_triangles)
    data_c = euler_functor._restrict(q.surface, whole, q.c_triangles)
    assert not q.c_triangles <= q.b_triangles
    with pytest.raises(SurfaceError, match="not a subcomplex"):
        inclusion_chain_map(data_c, data_b)


def test_square_builds_its_chains_once_and_two_inclusions(monkeypatch):
    """One surface_chain_data call (D) and two inclusion_chain_map calls
    (A into B and into C) per square, so the traced chain-data and
    inclusion spans time the square path."""
    calls = []
    for name in ("surface_chain_data", "inclusion_chain_map"):
        real = getattr(euler_functor, name)

        def counted(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(euler_functor, name, counted)
    squares = [_passing_square(), sphere_halves_square()]
    for q in squares:
        functor_on_square(q)
    assert calls.count("surface_chain_data") == len(squares)
    assert calls.count("inclusion_chain_map") == 2 * len(squares)
