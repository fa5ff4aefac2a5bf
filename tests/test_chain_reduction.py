"""Chain homology by unit-pair reduction, against the unreduced reference.

``ChainComplex.homology`` eliminates pairs of cells joined by a +-1 entry
before the lattice kernel sees what is left; ``chain_oracle`` hands it the
raw boundaries.  The two must agree on ``lo`` and on every group, torsion
included.  The cells left for the lattice kernel are read from the private
``_boundary_data``: on surfaces they must be exactly the Betti numbers.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import chain_oracle
from test_chains import FIXTURES, conjugated_sums, unimodular_pair
from cutpaste.abgroup import IntMatrix
from cutpaste.chains import ChainComplex, ChainMap, _reduce_unit_pairs, pushout
from cutpaste.euler_functor import chains_of
from cutpaste.surface import build_standard, disjoint_union, subdivide


def matches_oracle(c: ChainComplex):
    h = c.homology()
    ref = chain_oracle.unreduced_homology(c)
    assert (h.lo, h.groups) == (ref.lo, ref.groups)
    return h


def cells_left(c: ChainComplex) -> list[int]:
    return [c._boundary_data[n][0] for n in c.degrees()]


def entries_left(c: ChainComplex) -> list[int]:
    """Every entry of the boundaries the reduction leaves over."""
    down = [[{}] * c.ranks[0]] + [[dict(col) for col in d.columns] for d in c.boundaries]
    up = _reduce_unit_pairs(c.ranks, down)
    return [x for k in range(1, len(down)) for i, col in enumerate(down[k]) if up[k][i] is not None for x in col.values()]


def shifted(c: ChainComplex, lo: int) -> ChainComplex:
    return ChainComplex(lo, lo + c.hi - c.lo, c.ranks, c.boundaries)


def scalar(r: int, k: int) -> IntMatrix:
    return IntMatrix.from_columns(r, r, ({j: k} if k else {} for j in range(r)))


def conjugate(c: ChainComplex, ops_by_degree) -> ChainComplex:
    """c with boundaries P_{n-1} d_n P_n^-1, P_n from the elementary row
    operations of degree n (see ``unimodular_pair``)."""
    pairs = [unimodular_pair(r, ops) for r, ops in zip(c.ranks, ops_by_degree)]
    bnds = tuple(pairs[k][0] * d * pairs[k + 1][1] for k, d in enumerate(c.boundaries))
    return ChainComplex(c.lo, c.hi, c.ranks, bnds)


def conjugated(draw, c: ChainComplex) -> ChainComplex:
    """c conjugated by drawn unimodular P_n."""
    op = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2))
    return conjugate(c, [draw(st.lists(op, max_size=4)) for _ in c.ranks])


NONUNIT = st.sampled_from((0, 2, -2, 3, -3))


@st.composite
def nonunit_complexes(draw):
    """Complexes in three degrees from a drawn ``lo`` whose entries are all
    0, +-2 or +-3, ranks 0 included.  Degree lo+1 is Z^a (+) Z^b with
    d = [X | 0] out of it and [0 ; Y] into it, so the composite vanishes;
    then its basis is permuted and signed."""
    lo = draw(st.integers(-3, 3))
    r0, a, b, r2 = (draw(st.integers(0, 3)) for _ in range(4))
    x = [[draw(NONUNIT) for _ in range(a)] for _ in range(r0)]
    y = [[draw(NONUNIT) for _ in range(r2)] for _ in range(b)]
    perm = draw(st.permutations(range(a + b)))
    sign = [draw(st.sampled_from((1, -1))) for _ in range(a + b)]
    d1 = [{}] * (a + b)
    for j in range(a):
        d1[perm[j]] = {i: sign[j] * x[i][j] for i in range(r0) if x[i][j]}
    d2 = [{perm[a + i]: sign[a + i] * y[i][j] for i in range(b) if y[i][j]} for j in range(r2)]
    mats = (IntMatrix.from_columns(r0, a + b, d1), IntMatrix.from_columns(a + b, r2, d2))
    return ChainComplex(lo, lo + 2, (r0, a + b, r2), mats)


@st.composite
def loop_complexes(draw):
    """Cell complexes in degrees lo..lo+2: edges that are loops (empty
    columns) or join two distinct vertices, and 2-cells attached along the
    loops with entries in -3..3, on which d_1 vanishes."""
    lo = draw(st.integers(-2, 2))
    v = draw(st.integers(1, 4))
    d1, loops = [], []
    for j in range(draw(st.integers(0, 6))):
        if v == 1 or draw(st.booleans()):
            loops.append(j)
            d1.append({})
        else:
            u, w = draw(st.lists(st.integers(0, v - 1), min_size=2, max_size=2, unique=True))
            d1.append({u: -1, w: 1})
    d2 = []
    for _ in range(draw(st.integers(0, 3))):
        col = {j: draw(st.integers(-3, 3)) for j in loops}
        d2.append({j: x for j, x in col.items() if x})
    e = len(d1)
    mats = (IntMatrix.from_columns(v, e, d1), IntMatrix.from_columns(e, len(d2), d2))
    return ChainComplex(lo, lo + 2, (v, e, len(d2)), mats)


@settings(max_examples=200, deadline=None)
@given(nonunit_complexes())
def test_entries_two_and_three_are_never_pivots(c):
    matches_oracle(c)
    assert cells_left(c) == list(c.ranks)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_nonunit_entries_among_unit_ones(data):
    c = data.draw(nonunit_complexes())
    for make in data.draw(st.lists(st.sampled_from(FIXTURES), max_size=2)):
        c = c.direct_sum(shifted(make(), c.lo))
    c = conjugated(data.draw, c)
    matches_oracle(c)
    assert not {1, -1} & set(entries_left(c))


@settings(max_examples=150, deadline=None)
@given(loop_complexes())
def test_loop_edges_against_oracle(c):
    matches_oracle(c)


@settings(max_examples=150, deadline=None)
@given(conjugated_sums(), st.integers(-3, 3))
def test_conjugated_sums_against_oracle(pair, lo):
    c, conj = pair
    before = [[dict(col) for col in d.columns] for d in conj.boundaries]
    matches_oracle(conj)
    assert [list(d.columns) for d in conj.boundaries] == before
    matches_oracle(shifted(conj, lo))
    assert not {1, -1} & set(entries_left(conj))


@settings(max_examples=100, deadline=None)
@given(conjugated_sums(), st.sampled_from((2, 3, -2)), st.integers(-2, 2))
def test_cone_pushouts_against_oracle(pair, k, m):
    _, a = pair
    f = ChainMap(a, a, tuple(scalar(r, k) for r in a.ranks))
    g = ChainMap(a, a, tuple(scalar(r, m) for r in a.ranks))
    res = pushout(f, g)
    assert res.model == ("cone" if any(a.ranks) else "quotient")
    matches_oracle(res.complex)


def test_fixed_cell_complexes():
    torus = ChainComplex.make(0, 2, (1, 2, 1), [[[0, 0]], [[0], [0]]])
    projective_plane = ChainComplex.make(0, 2, (1, 1, 1), [[[0]], [[2]]])
    klein_bottle = ChainComplex.make(0, 2, (1, 2, 1), [[[0, 0]], [[2], [0]]])
    assert matches_oracle(torus).describe() == "H_0=Z, H_1=Z^2, H_2=Z"
    assert matches_oracle(projective_plane).describe() == "H_0=Z, H_1=Z/2"
    assert matches_oracle(klein_bottle).describe() == "H_0=Z, H_1=Z+Z/2"
    assert cells_left(projective_plane) == [1, 1, 1]


def surface_cells(g: int, b: int) -> list[int]:
    """Betti numbers of a connected oriented surface of genus g with b
    boundary circles, in degrees 0, 1, 2."""
    return [1, 2 * g + b - 1, 0] if b else [1, 2 * g, 1]


@pytest.mark.parametrize("g", range(4))
def test_library_surfaces_reduce_to_their_betti_numbers(g):
    for b in range(4):
        s = build_standard(g, b)
        for _ in range(3):
            c = chains_of(s)
            assert cells_left(c) == surface_cells(g, b)
            s = subdivide(s)


def test_disjoint_union_reduces_to_the_sum_of_its_parts():
    s = disjoint_union(build_standard(2, 1), build_standard(3, 0))
    for _ in range(2):
        c = chains_of(s)
        assert cells_left(c) == [x + y for x, y in zip(surface_cells(2, 1), surface_cells(3, 0))]
        matches_oracle(c)
        s = subdivide(s)


def test_least_fill_order_on_a_conjugated_surface():
    """The genus-2 surface with one boundary circle (ranks 44, 138, 91),
    conjugated by 120 seeded operations row i += +-row j per degree, hides
    its free faces in dense columns.  Taking the unit pair of least fill
    still reduces it to its Betti numbers; eliminating each cell's first
    unit entry in index order left [20, 23, 0] cells, and at 200 operations
    per degree (seed 0) took 66 s against 0.16 s (Python 3.11, 2-core
    x86-64 host)."""
    rng = random.Random(2)
    c = chains_of(build_standard(2, 1))
    c = conjugate(c, [[(rng.randrange(r), rng.randrange(r), rng.choice((1, -1))) for _ in range(120)] for r in c.ranks])
    assert c.ranks == (44, 138, 91)
    matches_oracle(c)
    assert cells_left(c) == surface_cells(2, 1) == [1, 4, 0]
