"""Reference lattice algorithms for the tests.

``full_walk_reduce`` and ``top_down_normalize`` are the plain forms of
``IntegerLattice.reduce`` and ``IntegerLattice.normalize``: they probe every
pivot column of the lattice in increasing order, and normalize rows first
pivot first, each against later rows that may not be reduced yet.

``GivenOrderAnalysis`` is ``abgroup._Analysis`` with the relation rows
added in their given order, zero rows included, every row normalized first
pivot first, and normal forms read with the full walk and dense matrix
entries.

``lattice_decision`` decides cut-and-paste equivalence by coordinate
equality in the truncated with-boundary group at the covering caps, the
reference for ``decide_equivalent``; ``lattice_differences_equal`` compares
two differences of classes there, the reference for the doubling witness and
the cylinder collapse; ``coordinate_partition`` groups the classes of that
group by coordinate.  ``class_vector`` writes a formal sum of classes as a
vector over a group's generators.

The homomorphism checks below run on the full generator lattices.
``AbHom`` decides injectivity, surjectivity, zero and exactness on the
induced map between Smith quotients.  These functions answer the same
questions the direct way: every lattice is as wide as the generator space
(the kernel's identity-augmented echelon is as wide as target and source
generators together), and the relation lattices are built from the
presentations' own relation rows, not from their ``_Analysis``.
"""

from cutpaste.abgroup import IntMatrix, IntegerLattice, NormalForm, smith_normal_form, to_sparse
from cutpaste.squares_k0 import Caps, surface_squares_presentation


def _subtract(v: dict, row: dict, q: int) -> None:
    for c, x in row.items():
        nv = v.get(c, 0) - q * x
        if nv:
            v[c] = nv
        else:
            v.pop(c, None)


def full_walk_reduce(lat: IntegerLattice, vec) -> dict:
    """Residue of vec modulo lat, reduced at every pivot column in turn."""
    v = dict(vec) if isinstance(vec, dict) else to_sparse(vec)
    v = {c: x for c, x in v.items() if x}
    for j in sorted(lat.rows):
        x = v.get(j)
        if x:
            row = lat.rows[j]
            q = x // row[j]
            if q:
                _subtract(v, row, q)
    return v


def top_down_normalize(lat: IntegerLattice, only=None) -> None:
    """Reduce each row (or each row whose pivot is in ``only``), first pivot
    first, against every later pivot column."""
    pivot_cols = sorted(lat.rows)
    for j0 in pivot_cols if only is None else only:
        row = lat.rows[j0]
        for j in pivot_cols:
            if j <= j0:
                continue
            x = row.get(j)
            if x:
                other = lat.rows[j]
                q = x // other[j]
                if q:
                    _subtract(row, other, q)


class GivenOrderAnalysis:
    """Echelon in the given row order, then the Smith form of the non-unit
    rows on the columns that are not unit pivots."""

    def __init__(self, n: int, relations):
        lat = IntegerLattice(n)
        for r in relations:
            lat.add(r)
        top_down_normalize(lat)
        self.lattice = lat
        nonunit = [j for j, p in lat.pivots() if p != 1]
        self.surviving = [j for j in range(n) if j not in lat.rows or lat.rows[j][j] != 1]
        small = [[lat.rows[j].get(c, 0) for c in self.surviving] for j in nonunit]
        if small:
            snf = smith_normal_form(IntMatrix.from_rows(small))
            self.small_d, self.small_v = snf.d, snf.V
        else:
            self.small_d, self.small_v = (), None

    def normal_form(self, vec) -> NormalForm:
        w = full_walk_reduce(self.lattice, vec)
        u = [w.get(j, 0) for j in self.surviving]
        if self.small_v is not None:
            v = self.small_v
            u = [sum(u[i] * v.entry(i, k) for i in range(v.rows)) for k in range(v.cols)]
        d = self.small_d + (0,) * (len(u) - len(self.small_d))
        return NormalForm(
            torsion=tuple(x % dk for x, dk in zip(u, d) if dk > 1),
            moduli=tuple(dk for dk in d if dk > 1),
            free=tuple(x for x, dk in zip(u, d) if dk == 0),
        )


def relation_lattice(pres) -> IntegerLattice:
    lat = IntegerLattice(len(pres.generators))
    for r in pres.rows:
        lat.add(r)
    return lat


def images(h) -> tuple[dict, ...]:
    """Sparse image of each source generator, in target generator coordinates."""
    return h.matrix.transpose().columns


def kernel_rows(h) -> list[dict]:
    """Generators of {x : x * matrix lies in the target relation lattice}."""
    width = len(h.target.generators)
    aug = IntegerLattice(width + len(h.source.generators))
    for r in h.target.rows:
        aug.add(r)
    for i, r in enumerate(images(h)):
        v = dict(r)
        v[width + i] = 1
        aug.add(v)
    return [
        {c - width: x for c, x in aug.rows[j].items()} for j in sorted(aug.rows) if j >= width
    ]


def is_injective(h) -> bool:
    src = relation_lattice(h.source)
    return all(src.contains(k) for k in kernel_rows(h))


def is_surjective(h) -> bool:
    lat = relation_lattice(h.target)
    for r in images(h):
        lat.add(r)
    pivs = lat.pivots()
    return len(pivs) == len(h.target.generators) and all(p == 1 for _, p in pivs)


def is_zero(h) -> bool:
    lat = relation_lattice(h.target)
    return all(lat.contains(r) for r in images(h))


def exact_at(f, g) -> bool:
    """Image of f + middle relations against kernel of g + middle relations,
    by mutual lattice membership."""
    image_rows = images(f)
    kernel = kernel_rows(g)
    im_lat = relation_lattice(f.target)
    for r in image_rows:
        im_lat.add(r)
    ker_lat = relation_lattice(f.target)
    for r in kernel:
        ker_lat.add(r)
    return all(im_lat.contains(k) for k in kernel) and all(ker_lat.contains(r) for r in image_rows)


def class_vector(group, combo) -> list[int]:
    """Integer vector over the generators of ``group`` of a formal sum
    given as (class, coefficient) pairs (repeated classes accumulate)."""
    vec = [0] * len(group.generators)
    for cls, coeff in combo:
        vec[group.generator_index[cls.label()]] += coeff
    return vec


def covering_caps(classes) -> Caps:
    """The least caps of at least (2,2,2) holding every class."""
    return Caps(
        max([2] + [g for c in classes for g, _ in c.components]),
        max([2] + [b for c in classes for _, b in c.components]),
        max([2] + [c.component_count for c in classes]),
    )


def lattice_decision(left, right) -> bool:
    """Whether two classes share a coordinate in the with-boundary group at
    their covering caps."""
    pres = surface_squares_presentation(covering_caps([left, right]))
    return pres.coordinate_of(left) == pres.coordinate_of(right)


def lattice_differences_equal(first, second) -> bool:
    """Whether [a] - [b] and [c] - [d], for pairs (a, b) and (c, d) of
    classes, share a coordinate in the with-boundary group at the covering
    caps of all four: the reference for the (chi, b) comparisons of
    ``doubling_witness`` and ``skk_collapse_check``."""
    group = surface_squares_presentation(covering_caps([*first, *second])).group

    def coordinate(plus, minus):
        return group.element_normal_form(class_vector(group, [(plus, 1), (minus, -1)]))

    return coordinate(*first) == coordinate(*second)


def coordinate_partition(caps) -> set[frozenset]:
    """The classes within the caps, grouped by their coordinate."""
    pres = surface_squares_presentation(caps)
    blocks: dict = {}
    for cls in pres.classes:
        blocks.setdefault(pres.coordinate_of(cls), set()).add(cls)
    return {frozenset(b) for b in blocks.values()}
