"""The chain functor on triangulated surfaces and its square-preservation checks.

``chains_of`` sends a surface to its simplicial chain complex in degrees
0..2 (vertices, geometric edges, triangles, with orientation signs taken
from the directed-edge structure).  A piece of a surface names each cell
of its basis once, by the cell's position in the whole surface's basis
(``ChainData.cells``), which makes inclusion maps plain 0/1 monomial
matrices and the pushout of B <- A -> C land literally on the
Mayer-Vietoris subcomplex of D.

Square instances package a surface D with two triangle subsets covering it
whose intersection A is the gluing locus; ``functor_on_square`` verifies
that the chain-level pushout of B <- A -> C is quasi-isomorphic to the
chains of D, and ``pi0_commutation`` checks that the induced class in
K0 of chain complexes equals the Euler characteristic.

``functor_on_square`` builds the chains of D once and reads A, B and C off
them; ``inclusion_chain_map`` builds both inclusions from the pieces'
cells.  The pushout's basis is B's cells outside A followed by C's.  When
that basis maps one to one onto D's cells and carries every boundary
column of the pushout onto the matching column of D, the pushout is D
relabelled: one homology, D's, serves both report lines.  Otherwise (a square whose pieces meet outside
A, say) both homologies are computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .abgroup import IntMatrix, require_json_ints
from .chains import ChainComplex, ChainMap, HomologyType, pushout
from .surface import (
    SurfaceError,
    TriSurface,
    _Builder,
    _canonical_flat,
    _check_circle_on,
    _components,
    _flat,
    _insert_collar_raw,
    circles_vertex_disjoint,
)


@dataclass(frozen=True)
class ChainData:
    """Chain complex of a surface or of a triangle subset of it.

    ``cells[k][i]`` is the position of basis cell i of degree k in the
    basis of the whole surface's chains: a vertex's id, an edge's place in
    the whole surface's edge basis, a triangle's index.  ``ref_edges[3i + e]``
    is the basis edge of ref e of the i-th triangle.  It is read off the
    refs, so it also names an edge whose two refs cancel in the triangle's
    boundary column."""

    complex: ChainComplex
    cells: tuple[tuple[int, ...], ...]
    ref_edges: tuple[int, ...]


def surface_chain_data(s: TriSurface) -> ChainData:
    """Simplicial chains of the whole surface.

    Vertex v is basis vertex v (a surface uses every id in
    0..vertex_count-1, which ``validate`` checks).  Refs are read by flat
    index 3t+e.  A geometric edge is represented by the lesser of its refs,
    and edge k of the basis is the k-th representative in ref order; a ref
    has sign +1 when it is the representative and -1 when its partner is."""
    triangles = s.triangles
    reps = [p if 0 <= p < k else k for k, p in enumerate(s.partners)]
    edges = sorted(set(reps))
    eidx = {r: i for i, r in enumerate(edges)}
    ref_edges = tuple(map(eidx.__getitem__, reps))
    nv, ne, nf = s.vertex_count, len(edges), len(triangles)

    d2 = []
    signed = iter([(i, 1 if r == k else -1) for k, (i, r) in enumerate(zip(ref_edges, reps))])
    for (i0, x0), (i1, x1), (i2, x2) in zip(signed, signed, signed):
        if i0 != i1 and i1 != i2 and i0 != i2:
            d2.append({i0: x0, i1: x1, i2: x2})
            continue
        col: dict[int, int] = {}
        for i, x in ((i0, x0), (i1, x1), (i2, x2)):
            col[i] = col.get(i, 0) + x
        d2.append({i: x for i, x in col.items() if x})
    d1 = []
    for r in edges:
        tri = triangles[r // 3]
        u, v = tri[r % 3], tri[(r + 1) % 3]
        d1.append({v: 1, u: -1} if u != v else {})
    cx = ChainComplex.make(
        0, 2, (nv, ne, nf), [IntMatrix.from_columns(nv, ne, d1), IntMatrix.from_columns(ne, nf, d2)]
    )
    cells = (tuple(range(nv)), tuple(range(ne)), tuple(range(nf)))
    return ChainData(complex=cx, cells=cells, ref_edges=ref_edges)


def _restrict(s: TriSurface, whole: ChainData, subset) -> ChainData:
    """The chains of a triangle subset read off ``whole``, the chains of all
    of ``s``.

    The cells are those of the triangles' corners and refs.  A piece keeps
    the whole surface's order and edge representatives, so its basis and
    its boundary columns (entry order included) are those the subset would
    get built on its own."""
    tris = sorted(subset)
    triangles = s.triangles
    ref_edges = whole.ref_edges
    refs = [e for t in tris for e in ref_edges[3 * t : 3 * t + 3]]
    verts = sorted({v for t in tris for v in triangles[t]})
    edges = sorted(set(refs))
    vloc = {v: i for i, v in enumerate(verts)}
    eloc = {p: i for i, p in enumerate(edges)}
    d1_whole, d2_whole = (m.columns for m in whole.complex.boundaries)
    d1 = [{vloc[i]: x for i, x in d1_whole[p].items()} for p in edges]
    d2 = [{eloc[i]: x for i, x in d2_whole[t].items()} for t in tris]
    nv, ne, nf = len(verts), len(edges), len(tris)
    cx = ChainComplex.make(
        0, 2, (nv, ne, nf), [IntMatrix.from_columns(nv, ne, d1), IntMatrix.from_columns(ne, nf, d2)]
    )
    cells = (tuple(verts), tuple(edges), tuple(tris))
    return ChainData(complex=cx, cells=cells, ref_edges=tuple(map(eloc.__getitem__, refs)))


def chains_of(s: TriSurface) -> ChainComplex:
    """Simplicial chain complex of the whole surface, degrees 0..2."""
    return surface_chain_data(s).complex


def inclusion_chain_map(small: ChainData, big: ChainData) -> ChainMap:
    """Inclusion of one piece of a surface into a larger piece of it."""
    mats = []
    for keys, cells in zip(small.cells, big.cells):
        pos = {p: i for i, p in enumerate(cells)}
        if not pos.keys() >= set(keys):
            raise SurfaceError("not a subcomplex: cell missing from the bigger piece")
        mats.append(IntMatrix.from_columns(len(cells), len(keys), [{pos[p]: 1} for p in keys]))
    return ChainMap(small.complex, big.complex, tuple(mats))


def extract_subcomplex(s: TriSurface, tris) -> TriSurface:
    """The triangle subset as a standalone surface (induced gluing)."""
    order = sorted(tris)
    reindex = {t: i for i, t in enumerate(order)}
    partners = s.partners
    # a ref keeps its partner when the partner's triangle is kept too
    flat = [
        3 * reindex[p // 3] + p % 3 if p >= 0 and p // 3 in reindex else -1
        for t in order
        for p in partners[3 * t : 3 * t + 3]
    ]
    out, _ = _canonical_flat([s.triangles[t] for t in order], flat)
    return out


@dataclass(frozen=True)
class SquareInstance:
    """A gluing square inside one surface: D covered by B and C with A = B & C.

    ``b_triangles`` and ``c_triangles`` must cover every triangle of the
    surface; their intersection is the common subcomplex along which the
    two pieces are glued.
    """

    surface: TriSurface
    b_triangles: frozenset[int]
    c_triangles: frozenset[int]

    def __post_init__(self):
        all_tris = set(range(self.surface.triangle_count))
        if set(self.b_triangles) | set(self.c_triangles) != all_tris:
            raise SurfaceError("square pieces must cover the surface")

    @property
    def a_triangles(self) -> frozenset[int]:
        return self.b_triangles & self.c_triangles

    def piece_surfaces(self) -> tuple[TriSurface, TriSurface, TriSurface, TriSurface]:
        a = extract_subcomplex(self.surface, self.a_triangles)
        b = extract_subcomplex(self.surface, self.b_triangles)
        c = extract_subcomplex(self.surface, self.c_triangles)
        return a, b, c, self.surface

    def to_json(self) -> dict:
        a, b, c, d = self.piece_surfaces()
        return {
            "d": d.to_json(),
            "b_triangles": sorted(self.b_triangles),
            "c_triangles": sorted(self.c_triangles),
            "a": a.to_json(),
            "b": b.to_json(),
            "c": c.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SquareInstance":
        """Parse the gluing-square format.  Both subsets hold JSON integers
        in 0..n-1, where n is the number of triangles of ``d``; a ValueError
        names the first that is not.  Parsing canonicalizes ``d`` and may
        renumber its triangles, so both subsets are renumbered the same way."""
        surf, new_ref = TriSurface.parse_json(data["d"])
        b_tris, c_tris = data["b_triangles"], data["c_triangles"]
        require_json_ints(b_tris, "triangle index")
        require_json_ints(c_tris, "triangle index")
        n = surf.triangle_count
        for t in chain(b_tris, c_tris):
            if not 0 <= t < n:
                raise ValueError(f"triangle index {t} outside 0..{n - 1}")
        return cls(
            surface=surf,
            b_triangles=frozenset(new_ref[3 * t] // 3 for t in b_tris),
            c_triangles=frozenset(new_ref[3 * t] // 3 for t in c_tris),
        )


@dataclass(frozen=True)
class SquareReport:
    passed: bool
    pushout_model: str
    pushout_homology: HomologyType
    total_homology: HomologyType
    failing_degree: int | None

    def to_lines(self) -> list[str]:
        out = [f"square_check={'PASS' if self.passed else 'FAIL'}"]
        out.append(f"pushout_model={self.pushout_model}")
        out.append(f"pushout_homology={self.pushout_homology.describe()}")
        out.append(f"glued_homology={self.total_homology.describe()}")
        if self.failing_degree is not None:
            out.append(f"first_failing_degree={self.failing_degree}")
        return out


def functor_on_square(q: SquareInstance) -> SquareReport:
    """Check that chains turn the gluing square into a pushout square up to
    quasi-isomorphism (the Mayer-Vietoris comparison).

    A, B and C are read off the chains of D, and the inclusions are built
    from their cells.  When the pushout P is D with its basis relabelled
    (``_relabels``), D's homology serves for both; otherwise both are
    computed."""
    s = q.surface
    data_d = surface_chain_data(s)
    data_a = _restrict(s, data_d, q.a_triangles)
    data_b = _restrict(s, data_d, q.b_triangles)
    data_c = _restrict(s, data_d, q.c_triangles)
    res = pushout(inclusion_chain_map(data_a, data_b), inclusion_chain_map(data_a, data_c))
    hd = data_d.complex.homology()
    # the quotient basis is B's cells outside A, then C's
    cells = [
        [p for p in b if p not in a] + list(c)
        for a, b, c in zip(map(set, data_a.cells), data_b.cells, data_c.cells)
    ]
    if _relabels(res.complex, data_d.complex, cells):
        hp = hd
    else:
        hp = res.complex.homology()
    failing = None
    for n in sorted(set(hp.degrees()) | set(hd.degrees())):
        if hp.at(n) != hd.at(n):
            failing = n
            break
    return SquareReport(
        passed=failing is None,
        pushout_model=res.model,
        pushout_homology=hp,
        total_homology=hd,
        failing_degree=failing,
    )


def _relabels(p: ChainComplex, d: ChainComplex, cells) -> bool:
    """Whether p is d with its basis renumbered: cells[k][i] is the cell of
    d in degree lo + k that cell i of p becomes.  That holds when each
    cells[k] is a bijection onto d's basis and carries every boundary column
    of p onto the matching column of d, entries and signs alike."""
    if (p.lo, p.hi, p.ranks) != (d.lo, d.hi, d.ranks):
        return False
    for perm, rank in zip(cells, d.ranks):
        if len(perm) != rank or len(set(perm)) != rank:
            return False
    for k, (pb, db) in enumerate(zip(p.boundaries, d.boundaries)):
        lower, upper, dcols = cells[k], cells[k + 1], db.columns
        for j, col in enumerate(pb.columns):
            if dcols[upper[j]] != {lower[i]: x for i, x in col.items()}:
                return False
    return True


def coproduct_square(x: TriSurface, y: TriSurface) -> SquareInstance:
    """The disjoint-union square: A empty, B = x, C = y, D = x | y."""
    nx = x.triangle_count
    b = _Builder.from_surface(x)
    b.add_surface(y)
    d, new_ref = b.finish()
    b_tris = frozenset(k // 3 for k in new_ref[: 3 * nx : 3])
    c_tris = frozenset(k // 3 for k in new_ref[3 * nx :: 3])
    return SquareInstance(surface=d, b_triangles=b_tris, c_triangles=c_tris)


def square_from_circles(s: TriSurface, circles) -> SquareInstance:
    """Build a gluing square by thickening each circle to a collar annulus.

    A is the union of the collars.  The pieces between the circles are the
    components of the refined surface with every ref of a collar triangle
    unglued, collar triangles left out; they are split between B and C
    alternately in order of their least triangle, and both keep every
    collar, so B & C = A and B | C = D."""
    circles = list(circles)
    if not circles:
        raise SurfaceError("need at least one circle")
    for c in circles:
        _check_circle_on(s, c)
    if not circles_vertex_disjoint(circles):
        raise SurfaceError("circles must be pairwise vertex-disjoint")
    b = _Builder.from_surface(s)
    raw_collar: set[int] = set()
    for c in circles:
        raw_collar |= _insert_collar_raw(b, _flat(c.refs))[2]
    refined, new_ref = b.finish()
    refined.require_valid()
    collar = {new_ref[3 * t] // 3 for t in raw_collar}
    partners = [
        -1 if p < 0 or k // 3 in collar or p // 3 in collar else p
        for k, p in enumerate(refined.partners)
    ]
    # components are numbered in order of their least triangle
    pieces: dict[int, set[int]] = {}
    for t, c in enumerate(_components(partners)):
        if t not in collar:
            pieces.setdefault(c, set()).add(t)
    b_tris, c_tris = set(collar), set(collar)
    for i, piece in enumerate(pieces.values()):
        (b_tris if i % 2 == 0 else c_tris).update(piece)
    return SquareInstance(
        surface=refined,
        b_triangles=frozenset(b_tris),
        c_triangles=frozenset(c_tris),
    )


@dataclass(frozen=True)
class CommutationReport:
    entries: tuple[tuple[str, int, int], ...]  # (class label, chi, k0 class)

    @property
    def passed(self) -> bool:
        return all(chi == k for _, chi, k in self.entries)

    def to_lines(self) -> list[str]:
        out = []
        for label, chi, k in self.entries:
            status = "PASS" if chi == k else "FAIL"
            out.append(f"class={label} chi={chi} k0={k} status={status}")
        out.append(f"commutation={'PASS' if self.passed else 'FAIL'}")
        return out


def pi0_commutation(surfaces) -> CommutationReport:
    """Check k0(chains) == Euler characteristic on each sample surface."""
    entries = []
    for s in surfaces:
        chi = s.euler_characteristic()
        k = chains_of(s).k0_class()
        entries.append((s.classify().label(), chi, k))
    return CommutationReport(entries=tuple(entries))
