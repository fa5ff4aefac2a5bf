"""Reference chain homology for the tests.

``unreduced_homology`` is the plain form of ``ChainComplex.homology``: it
hands each raw boundary d_n to ``abgroup._Analysis`` as it stands, with no
unit pairs eliminated first.  H_n has free rank rank C_n - rank d_n -
rank d_{n+1} and the invariant factors (> 1) of d_{n+1} as torsion.

``surface_chain_data`` is the plain form of ``euler_functor.surface_chain_data``:
it finds each ref's edge representative with a ref-keyed partner dict, and
sorts the set of representative refs as tuples to number the edges.  It
builds a subset's chains on their own, not as a restriction of the whole
surface's, and numbers the sorted representatives of all of the surface's
edges to find each edge's position in the whole surface's basis.

``noncommuting_degree`` and ``nonvanishing_composite`` are the product forms
of the ``ChainMap`` and ``ChainComplex`` checks: they multiply whole
matrices and compare, where the checks go one column at a time.
"""

import surface_oracle
from cutpaste.abgroup import IntMatrix, _Analysis
from cutpaste.chains import ChainComplex, HomologyType
from cutpaste.euler_functor import ChainData
from cutpaste.surface import TriSurface


def surface_chain_data(s: TriSurface, subset=None) -> ChainData:
    glue = surface_oracle.partner_dict(s)

    def edge_rep(ref):
        p = glue.get(ref)
        if p is None or ref <= p:
            return ref, 1
        return p, -1

    tris = list(range(s.triangle_count)) if subset is None else sorted(subset)
    verts = sorted({v for t in tris for v in s.triangles[t]})
    vidx = {v: i for i, v in enumerate(verts)}
    edges = sorted({edge_rep((t, e))[0] for t in tris for e in range(3)})
    eidx = {r: i for i, r in enumerate(edges)}
    nv, ne, nf = len(verts), len(edges), len(tris)
    d2 = []
    for t in tris:
        col = {}
        for e in range(3):
            rep, sign = edge_rep((t, e))
            col[eidx[rep]] = col.get(eidx[rep], 0) + sign
        d2.append({i: x for i, x in col.items() if x})
    d1 = []
    for rep in edges:
        u, v = s.endpoints(rep)
        d1.append({vidx[v]: 1, vidx[u]: -1} if u != v else {})
    cx = ChainComplex.make(
        0, 2, (nv, ne, nf), [IntMatrix.from_columns(nv, ne, d1), IntMatrix.from_columns(ne, nf, d2)]
    )
    ref_edges = tuple(eidx[edge_rep((t, e))[0]] for t in tris for e in range(3))
    # a cell's position in the whole surface's basis: vertex ids, the
    # place among all of the surface's edges, triangle indices
    all_edges = sorted({edge_rep((t, e))[0] for t in range(s.triangle_count) for e in range(3)})
    place = {r: i for i, r in enumerate(all_edges)}
    cells = (tuple(verts), tuple(map(place.__getitem__, edges)), tuple(tris))
    return ChainData(complex=cx, cells=cells, ref_edges=ref_edges)


def unreduced_homology(c: ChainComplex) -> HomologyType:
    data = {}
    for n in c.degrees():
        d = c.boundary_at(n)
        a = _Analysis(d.rows, d.columns)
        data[n] = (a.lattice.rank, a.torsion)
    groups = []
    for n in c.degrees():
        rank_up, torsion = data.get(n + 1, (0, ()))
        groups.append((c.rank_at(n) - data[n][0] - rank_up, torsion))
    return HomologyType(lo=c.lo, groups=tuple(groups))


def noncommuting_degree(source: ChainComplex, target: ChainComplex, mats) -> int | None:
    """The first degree n where target.d_n * M_n != M_{n-1} * source.d_n."""
    for n in range(source.lo + 1, source.hi + 1):
        k = n - source.lo
        if target.boundary_at(n) * mats[k] != mats[k - 1] * source.boundary_at(n):
            return n
    return None


def nonvanishing_composite(lower: IntMatrix, upper: IntMatrix) -> int | None:
    """The first column j of upper where lower * upper has a nonzero entry."""
    product = lower * upper
    return next((j for j, col in enumerate(product.columns) if col), None)
