"""Chain complex tests.

The homology oracle used here is independent of the production path: it
extracts an explicit kernel basis from Smith transforms of the outgoing
boundary, rewrites the incoming boundary in kernel coordinates by exact
back-substitution, and hands the quotient to AbGroupPresentation.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import chain_oracle

from cutpaste.abgroup import AbGroupPresentation, IntMatrix, smith_normal_form
from cutpaste.chains import (
    ChainComplex,
    ChainComplexError,
    ChainMap,
    HomologyType,
    matrix_from_json,
    pushout,
    quasi_iso_type_equal,
)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def homology_oracle(c: ChainComplex, n: int) -> tuple[int, tuple[int, ...]]:
    """H_n via explicit kernel coordinates (dense Smith transforms)."""
    d_out = c.boundary_at(n)
    rank_n = c.rank_at(n)
    if rank_n == 0:
        return (0, ())
    # kernel basis of d_out: columns x with d_out @ x = 0
    snf = smith_normal_form(d_out)
    snf.verify(d_out)
    r = sum(1 for d in snf.d if d)
    # d_out @ V has zero columns exactly at indices >= r; kernel basis =
    # those columns of V
    kernel_cols = [[snf.V.entry(i, j) for i in range(rank_n)] for j in range(r, rank_n)]
    kdim = len(kernel_cols)
    d_in = c.boundary_at(n + 1)
    # write each image column in kernel coordinates: solve K @ y = img.
    # K's columns are columns of V, so y = (V^-1 @ img) restricted to the
    # kernel index range; the complement coordinates must vanish.
    vinv = snf.V_inv
    rel_rows = []
    for j in range(d_in.cols):
        img = [d_in.entry(i, j) for i in range(rank_n)]
        coords = [
            sum(vinv.entry(i, t) * img[t] for t in range(rank_n))
            for i in range(rank_n)
        ]
        assert all(x == 0 for x in coords[:r]), "image not inside the kernel"
        rel_rows.append(coords[r:])
    pres = AbGroupPresentation.make([f"k{i}" for i in range(kdim)], rel_rows)
    return pres.quotient_invariants()


def full_homology_oracle(c: ChainComplex) -> HomologyType:
    return HomologyType(
        lo=c.lo, groups=tuple(homology_oracle(c, n) for n in c.degrees())
    )


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def times_two_complex() -> ChainComplex:
    return ChainComplex.make(0, 1, (1, 1), [[[2]]])


def test_dd_zero_enforced():
    with pytest.raises(ChainComplexError):
        ChainComplex.make(0, 2, (1, 1, 1), [[[1]], [[1]]])
    # and a legal two-step complex passes
    ChainComplex.make(0, 2, (1, 1, 1), [[[2]], [[0]]])


def test_homology_times_two():
    c = times_two_complex()
    h = c.homology()
    assert h.at(0) == (0, (2,))
    assert h.at(1) == (0, ())
    assert full_homology_oracle(c) == h


def test_homology_zero_complex():
    c = ChainComplex.zero()
    assert c.homology().at(0) == (0, ())
    assert c.euler_char() == 0


def test_euler_char_examples():
    assert times_two_complex().euler_char() == 0
    single = ChainComplex.single(0, 5)
    assert single.euler_char() == 5
    assert single.k0_class() == 5


def test_homology_random_against_oracle():
    rng = random.Random(11)
    built = 0
    while built < 20:
        r0, r1, r2 = rng.randint(0, 3), rng.randint(1, 3), rng.randint(0, 3)
        d1 = [[rng.randint(-2, 2) for _ in range(r1)] for _ in range(r0)]
        # choose d2 with columns in ker(d1) by rejection on small candidates
        cand = []
        for _ in range(r2):
            for _attempt in range(60):
                col = [rng.randint(-2, 2) for _ in range(r1)]
                if all(
                    sum(d1[i][k] * col[k] for k in range(r1)) == 0
                    for i in range(r0)
                ):
                    cand.append(col)
                    break
            else:
                break
        if len(cand) != r2:
            continue
        d2 = [[cand[j][i] for j in range(r2)] for i in range(r1)]
        c = ChainComplex.make(0, 2, (r0, r1, r2), [d1, d2])
        assert c.homology() == full_homology_oracle(c)
        built += 1


# ---------------------------------------------------------------------------
# Quasi-isomorphism classes and k0
# ---------------------------------------------------------------------------


@st.composite
def small_int_matrices(draw):
    """Integer matrices up to 6x6 with entries in -9..9, empty shapes and
    zeroed rows and columns included."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    zero_rows = draw(st.sets(st.integers(0, max(m - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(n - 1, 0))))
    rows = [
        [0 if i in zero_rows or j in zero_cols else draw(st.integers(-9, 9)) for j in range(n)]
        for i in range(m)
    ]
    return IntMatrix(m, n, tuple(x for row in rows for x in row))


@settings(max_examples=150, deadline=None)
@given(small_int_matrices())
def test_lattice_kernel_matches_dense_snf(a):
    d = smith_normal_form(a).d
    rank = sum(1 for x in d if x)
    torsion = tuple(x for x in d if x > 1)
    c = ChainComplex(0, 1, (a.rows, a.cols), (a,))
    h = c.homology()
    assert h.at(0) == (a.rows - rank, torsion)
    assert h.at(1) == (a.cols - rank, ())
    f = ChainMap(ChainComplex.single(0, a.cols), ChainComplex.single(0, a.rows), (a,))
    assert f.cokernel_torsion_free == (not any(x > 1 for x in d))


def acyclic_summand() -> ChainComplex:
    return ChainComplex.make(0, 1, (1, 1), [[[1]]])


def torsion_fixture() -> ChainComplex:
    return ChainComplex.make(0, 2, (2, 3, 1), [[[0, 2, 0], [0, 0, 2]], [[2], [0], [0]]])


def two_vertex_circle() -> ChainComplex:
    """Edges v0 -> v1 and v1 -> v0: boundary columns with two entries."""
    return ChainComplex.make(0, 1, (2, 2), [[[-1, 1], [1, -1]]])


FIXTURES = (
    times_two_complex,
    acyclic_summand,
    torsion_fixture,
    two_vertex_circle,
    lambda: ChainComplex.single(0, 2),
    lambda: ChainComplex.single(1, 1),
    ChainComplex.zero,
    lambda: ChainComplex.make(0, 2, (1, 0, 1), [[[]], []]),
)


def unimodular_pair(r: int, ops) -> tuple[IntMatrix, IntMatrix]:
    """P and P^-1 from elementary row operations (i, j, q): row i += q row j."""
    p = IntMatrix.identity(r).to_rows()
    p_inv = IntMatrix.identity(r).to_rows()
    for i, j, q in ops:
        if r and i % r != j % r:
            i, j = i % r, j % r
            for k in range(r):
                p[i][k] += q * p[j][k]
            for row in p_inv:
                row[j] -= q * row[i]
    return IntMatrix(r, r, tuple(x for row in p for x in row)), IntMatrix(r, r, tuple(x for row in p_inv for x in row))


@st.composite
def conjugated_sums(draw):
    """Direct sums of the fixtures, conjugated degreewise by unimodular
    matrices: boundaries P_{n-1} d_n P_n^-1, so d o d = 0 still holds."""
    picks = draw(st.lists(st.sampled_from(FIXTURES), min_size=1, max_size=3))
    c = picks[0]()
    for make in picks[1:]:
        c = c.direct_sum(make())
    op = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2))
    pairs = [unimodular_pair(r, draw(st.lists(op, max_size=4))) for r in c.ranks]
    bnds = tuple(pairs[k][0] * d * pairs[k + 1][1] for k, d in enumerate(c.boundaries))
    return c, ChainComplex(c.lo, c.hi, c.ranks, bnds)


@settings(max_examples=120, deadline=None)
@given(conjugated_sums())
def test_sparse_homology_against_dense_oracle(pair):
    c, conj = pair
    h = conj.homology()
    assert h == full_homology_oracle(conj)
    assert h == c.homology()
    ChainMap.identity(conj)
    # doubling one degree commutes only when both boundaries at it vanish
    for k in range(len(conj.ranks)):
        touching = conj.boundaries[max(k - 1, 0) : k + 1]
        if any(d != IntMatrix.zeros(d.rows, d.cols) for d in touching):
            mats = [IntMatrix.identity(r) for r in conj.ranks]
            mats[k] = IntMatrix(conj.ranks[k], conj.ranks[k], tuple(2 * x for x in mats[k].entries))
            with pytest.raises(ChainComplexError):
                ChainMap(conj, conj, tuple(mats))


def test_quasi_iso_acyclic_summand():
    c = times_two_complex()
    c2 = c.direct_sum(acyclic_summand())
    assert quasi_iso_type_equal(c, c2)
    assert c2.k0_class() == c.k0_class()


def test_quasi_iso_distinguishes_torsion():
    c = times_two_complex()
    z = ChainComplex.make(0, 1, (0, 0), [[]])
    zero2 = ChainComplex(0, 1, (0, 0), (IntMatrix.zeros(0, 0),))
    assert not quasi_iso_type_equal(c, zero2)
    assert quasi_iso_type_equal(z, zero2)


def test_quasi_iso_is_equivalence_relation():
    rng = random.Random(13)
    pool = [
        times_two_complex(),
        times_two_complex().direct_sum(acyclic_summand()),
        ChainComplex.single(0, 1),
        ChainComplex.single(0, 1).direct_sum(acyclic_summand()),
        ChainComplex.zero(),
    ]
    for _ in range(30):
        a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
        assert quasi_iso_type_equal(a, a)
        assert quasi_iso_type_equal(a, b) == quasi_iso_type_equal(b, a)
        if quasi_iso_type_equal(a, b) and quasi_iso_type_equal(b, c):
            assert quasi_iso_type_equal(a, c)


def test_k0_class_invariances():
    rng = random.Random(17)
    c = torsion_fixture()
    base = c.k0_class()
    assert base == c.euler_char()
    # acyclic two-term summands
    assert c.direct_sum(acyclic_summand()).k0_class() == base
    # unimodular basis change per degree
    for _ in range(5):
        pairs = []
        for r in c.ranks:
            ops = []
            for _ in range(3):
                i, j = rng.randrange(r), rng.randrange(r)
                if i != j:
                    ops.append((i, j, rng.randint(-2, 2)))
            pairs.append(unimodular_pair(r, ops))
        bnds = []
        for n in range(c.lo + 1, c.hi + 1):
            k = n - c.lo
            bnds.append(pairs[k - 1][0] * c.boundary_at(n) * pairs[k][1])
        conj = ChainComplex(c.lo, c.hi, c.ranks, tuple(bnds))
        assert conj.k0_class() == base
        assert quasi_iso_type_equal(conj, c)
    # additivity over direct sums
    d = times_two_complex().direct_sum(ChainComplex.single(1, 2))
    assert c.direct_sum(d).k0_class() == c.k0_class() + d.k0_class()


# ---------------------------------------------------------------------------
# Chain maps
# ---------------------------------------------------------------------------


def test_chain_map_must_commute():
    c = times_two_complex()
    with pytest.raises(ChainComplexError):
        ChainMap(c, c, (IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[3]])))
    ChainMap.identity(c)


def test_levelwise_injective_flag():
    c = ChainComplex.single(0, 1)
    d = ChainComplex.single(0, 2)
    inj = ChainMap(c, d, (IntMatrix.from_rows([[1], [0]]),))
    assert inj.levelwise_injective
    zero = ChainMap(c, d, (IntMatrix.from_rows([[0], [0]]),))
    assert not zero.levelwise_injective
    doubled = ChainMap(c, ChainComplex.single(0, 1), (IntMatrix.from_rows([[2]]),))
    assert doubled.levelwise_injective
    assert not doubled.cokernel_torsion_free
    assert inj.cokernel_torsion_free


def signed_permutation(perm, signs) -> IntMatrix:
    return IntMatrix.from_columns(len(perm), len(perm), [{i: x} for i, x in zip(perm, signs)])


@st.composite
def chain_map_cases(draw):
    """(source, target, mats): a direct sum of fixtures, the same complex
    with each degree's basis renumbered and re-signed, and degreewise maps
    between them.  "relabel" is the signed permutation that carries one
    onto the other; "wrong_sign" and "swapped" break it in one column (a
    negated entry, or two columns' rows exchanged); "monomial" has one
    random entry per column, two of which may share a row; "general" has
    small dense integer entries."""
    picks = draw(st.lists(st.sampled_from(FIXTURES), min_size=1, max_size=3))
    c = picks[0]()
    for make in picks[1:]:
        c = c.direct_sum(make())
    unit = st.sampled_from((1, -1))
    perms = [
        (draw(st.permutations(range(r))), draw(st.lists(unit, min_size=r, max_size=r)))
        for r in c.ranks
    ]
    p = [signed_permutation(*ps) for ps in perms]
    target = ChainComplex(
        c.lo, c.hi, c.ranks, tuple(p[k] * d * p[k + 1].transpose() for k, d in enumerate(c.boundaries))
    )
    kind = draw(st.sampled_from(("relabel", "wrong_sign", "swapped", "monomial", "general")))
    mats = list(p)
    levels = [k for k, r in enumerate(c.ranks) if r >= (2 if kind == "swapped" else 1)]
    if kind in ("wrong_sign", "swapped") and levels:
        k = draw(st.sampled_from(levels))
        perm, signs = list(perms[k][0]), list(perms[k][1])
        j = draw(st.integers(0, c.ranks[k] - 1))
        if kind == "wrong_sign":
            signs[j] = -signs[j]
        else:
            j2 = (j + 1 + draw(st.integers(0, c.ranks[k] - 2))) % c.ranks[k]
            perm[j], perm[j2] = perm[j2], perm[j]
        mats[k] = signed_permutation(perm, signs)
    elif kind == "monomial":
        entry = st.sampled_from((1, -1, 2, -2))
        mats = [
            IntMatrix.from_columns(r, r, [{draw(st.integers(0, r - 1)): draw(entry)} for _ in range(r)])
            for r in c.ranks
        ]
    elif kind == "general":
        ints = st.integers(-2, 2)
        mats = [IntMatrix(r, r, draw(st.lists(ints, min_size=r * r, max_size=r * r))) for r in c.ranks]
    return c, target, tuple(mats)


@settings(max_examples=300, deadline=None)
@given(chain_map_cases())
def test_commutation_check_against_product_oracle(case):
    """ChainMap raises exactly when the whole-matrix products differ, at
    the oracle's first failing degree.  Checking only the relabelled
    columns, or taking a relabelling whose entries collide for a sum,
    would pass a map that does not commute."""
    source, target, mats = case
    degree = chain_oracle.noncommuting_degree(source, target, mats)
    if degree is None:
        ChainMap(source, target, mats)
    else:
        with pytest.raises(ChainComplexError) as err:
            ChainMap(source, target, mats)
        assert str(err.value) == f"map does not commute with boundaries at degree {degree}"


def test_monomial_map_sums_entries_that_meet():
    """Both vertices of the two-vertex circle go to the one vertex of a
    loop, so the image of each edge's boundary is v - v = 0: the map
    commutes.  Read as a relabelling, the two entries would land on one row
    and the later would overwrite the earlier, refusing this map; with one
    sign changed the image is -2v, and the map is refused."""
    circle = two_vertex_circle()
    loop = ChainComplex.make(0, 1, (1, 1), [[[0]]])
    both = IntMatrix.from_rows([[1, 1]])
    ChainMap(circle, loop, (both, both))
    with pytest.raises(ChainComplexError, match="at degree 1"):
        ChainMap(circle, loop, (IntMatrix.from_rows([[1, -1]]), both))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_boundary_composite_check_against_product_oracle(r0, r1, r2, data):
    """A two-step complex is refused exactly when d_1 * d_2 has a nonzero
    entry, naming the first such column of d_2."""
    ints = st.integers(-2, 2)
    d1 = IntMatrix(r0, r1, data.draw(st.lists(ints, min_size=r0 * r1, max_size=r0 * r1)))
    if data.draw(st.booleans()):  # a kernel-filling d_2, which passes
        kernel = [c for c, col in enumerate(d1.columns) if not col]
        cols = [{c: data.draw(ints) for c in kernel} for _ in range(r2)]
        d2 = IntMatrix.from_columns(r1, r2, [{i: x for i, x in col.items() if x} for col in cols])
    else:
        d2 = IntMatrix(r1, r2, data.draw(st.lists(ints, min_size=r1 * r2, max_size=r1 * r2)))
    column = chain_oracle.nonvanishing_composite(d1, d2)
    if column is None:
        ChainComplex(0, 2, (r0, r1, r2), (d1, d2))
    else:
        with pytest.raises(ChainComplexError) as err:
            ChainComplex(0, 2, (r0, r1, r2), (d1, d2))
        assert str(err.value) == f"boundary composite does not vanish at degree 2, column {column}"


# ---------------------------------------------------------------------------
# Pushouts
# ---------------------------------------------------------------------------


def zero_complex_like(c: ChainComplex) -> ChainComplex:
    return ChainComplex(
        c.lo,
        c.hi,
        tuple(0 for _ in c.ranks),
        tuple(IntMatrix.zeros(0, 0) for _ in c.boundaries),
    )


def test_pushout_over_zero_is_direct_sum():
    b = times_two_complex()
    c = ChainComplex.make(0, 1, (1, 0), [[]])
    a = zero_complex_like(b)
    f = ChainMap(a, b, tuple(IntMatrix.zeros(r, 0) for r in b.ranks))
    g = ChainMap(a, c, tuple(IntMatrix.zeros(r, 0) for r in c.ranks))
    res = pushout(f, g)
    assert res.model == "quotient"
    assert quasi_iso_type_equal(res.complex, b.direct_sum(c))
    assert res.complex.ranks == tuple(
        x + y for x, y in zip(b.ranks, c.ranks)
    )


def test_pushout_along_identity_is_other_leg():
    a = times_two_complex()
    c = a.direct_sum(acyclic_summand())
    f = ChainMap.identity(a)
    g = ChainMap(
        a,
        c,
        tuple(
            IntMatrix.from_rows([[1 if i == j else 0 for j in range(a.ranks[k])] for i in range(c.ranks[k])])
            for k in range(len(a.ranks))
        ),
    )
    res = pushout(f, g)
    assert quasi_iso_type_equal(res.complex, c)


def test_pushout_circle_in_two_disks_is_sphere():
    # A = simplicial circle (3 vertices, 3 edges); B = C = cone over it
    # (a triangulated disk: 4 vertices, 6 edges wait-- use the fan with 3
    # boundary edges: 4 vertices, 6 edges, 3 triangles)
    circle = ChainComplex.make(
        0,
        2,
        (3, 3, 0),
        [
            [
                [-1, 0, 1],
                [1, -1, 0],
                [0, 1, -1],
            ],
            [[], [], []],
        ],
    )
    # disk: vertices v0,v1,v2,center; edges e01,e12,e20,c0,c1,c2; faces
    # f0=(v0,v1,center), f1=(v1,v2,center), f2=(v2,v0,center)
    d1 = [
        [-1, 0, 1, -1, 0, 0],
        [1, -1, 0, 0, -1, 0],
        [0, 1, -1, 0, 0, -1],
        [0, 0, 0, 1, 1, 1],
    ]
    d2 = [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
        [-1, 0, 1],
        [1, -1, 0],
        [0, 1, -1],
    ]
    disk = ChainComplex.make(0, 2, (4, 6, 3), [d1, d2])
    assert disk.homology().at(0) == (1, ()) and disk.homology().at(1) == (0, ())
    incl_mats = (
        IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]),
        IntMatrix.from_rows(
            [
                [1, 0, 0],
                [0, 1, 0],
                [0, 0, 1],
                [0, 0, 0],
                [0, 0, 0],
                [0, 0, 0],
            ]
        ),
        IntMatrix.zeros(3, 0),
    )
    f = ChainMap(circle, disk, incl_mats)
    g = ChainMap(circle, disk, incl_mats)
    res = pushout(f, g)
    assert res.model == "quotient"
    h = res.complex.homology()
    assert h.at(0) == (1, ())
    assert h.at(1) == (0, ())
    assert h.at(2) == (1, ())
    # the structure maps are chain maps into the pushout by construction;
    # they agree after composing with the two legs
    comp1 = res.from_first.compose(f)
    comp2 = res.from_second.compose(g)
    assert comp1.mats == comp2.mats


def test_pushout_split_non_monomial_injection():
    # f: Z -> Z^2 by (1,1) is split injective but not a coordinate inclusion;
    # the quotient stays free and exact
    a = ChainComplex.single(0, 1)
    b = ChainComplex.single(0, 2)
    c = ChainComplex.single(0, 1)
    f = ChainMap(a, b, (IntMatrix.from_rows([[1], [1]]),))
    g = ChainMap(a, c, (IntMatrix.from_rows([[1]]),))
    assert not f.is_monomial_injection()
    assert f.cokernel_torsion_free
    res = pushout(f, g)
    assert res.model == "quotient"
    assert res.complex.homology().at(0) == (2, ())
    # the two legs agree after composing with f and g
    assert res.from_first.compose(f).mats == res.from_second.compose(g).mats


def test_pushout_cone_model_handles_torsion():
    # A = Z --2--> B = Z in a single degree; C = 0: pushout is Z/2
    a = ChainComplex.single(0, 1)
    b = ChainComplex.single(0, 1)
    czero = ChainComplex.single(0, 0)
    f = ChainMap(a, b, (IntMatrix.from_rows([[2]]),))
    g = ChainMap(a, czero, (IntMatrix.zeros(0, 1),))
    res = pushout(f, g)
    assert res.model == "cone"
    h = res.complex.homology()
    assert h.at(0) == (0, (2,))
    assert h.at(1) == (0, ())
    assert res.complex.k0_class() == 0


def test_pushout_requires_injective_first_leg():
    a = ChainComplex.single(0, 1)
    b = ChainComplex.single(0, 1)
    f = ChainMap(a, b, (IntMatrix.from_rows([[0]]),))
    g = ChainMap.identity(a)
    with pytest.raises(ChainComplexError):
        pushout(f, g)


def test_pushout_square_additivity_of_k0():
    # for the disk/circle/sphere square: k0(A) + k0(P) = k0(B) + k0(C)
    circle = ChainComplex.make(
        0,
        1,
        (3, 3),
        [
            [
                [-1, 0, 1],
                [1, -1, 0],
                [0, 1, -1],
            ]
        ],
    )
    assert circle.k0_class() == 0


def test_json_round_trip():
    c = times_two_complex()
    assert ChainComplex.from_json(c.to_json()) == c


def test_matrix_json_round_trip():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    data = ChainComplex(0, 1, (2, 2), (a,)).to_json()
    assert data["boundaries"] == [{"rows": 2, "cols": 2, "entries": [1, 2, 3, 4]}]
    assert matrix_from_json(data["boundaries"][0]) == a
